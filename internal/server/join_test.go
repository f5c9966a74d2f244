package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// join posts /join for id straight into the handler and returns the
// response's status and body.
func join(h http.Handler, id string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/join?member="+url.QueryEscape(id), nil))
	return rec.Code, rec.Body.String()
}

// TestJoinMemberIDBound checks that a member ID of maxMemberIDBytes bytes
// joins and one byte more is refused with a 400 naming the limit, without
// being recorded.
func TestJoinMemberIDBound(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	if code, body := join(h, strings.Repeat("a", maxMemberIDBytes)); code != http.StatusOK {
		t.Fatalf("a %d-byte id: status %d %q, want 200", maxMemberIDBytes, code, body)
	}
	code, body := join(h, strings.Repeat("b", maxMemberIDBytes+1))
	if code != http.StatusBadRequest || !strings.Contains(body, strconv.Itoa(maxMemberIDBytes)+"-byte limit") {
		t.Fatalf("a %d-byte id: status %d %q, want 400 naming the limit", maxMemberIDBytes+1, code, body)
	}
	if n := len(s.members); n != 1 {
		t.Fatalf("%d members recorded, want 1", n)
	}
}

// TestJoinMemberCap fills the server to maxMembers and checks that the next
// new member is refused with a 409 naming the cap, that a member already
// in still gets "already joined", and that nothing past the cap is
// recorded.
func TestJoinMemberCap(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	for i := range maxMembers {
		if code, body := join(h, fmt.Sprintf("m%d", i)); code != http.StatusOK {
			t.Fatalf("join %d: status %d %q, want 200", i, code, body)
		}
	}
	code, body := join(h, "one-too-many")
	if code != http.StatusConflict || !strings.Contains(body, fmt.Sprintf("at most %d members", maxMembers)) {
		t.Fatalf("join past the cap: status %d %q, want 409 naming the cap", code, body)
	}
	if code, body := join(h, "m0"); code != http.StatusConflict || !strings.Contains(body, "already joined") {
		t.Fatalf("rejoin at the cap: status %d %q, want 409 already joined", code, body)
	}
	if n := len(s.members); n != maxMembers {
		t.Fatalf("%d members recorded, want %d", n, maxMembers)
	}
}
