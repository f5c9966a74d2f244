package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"oassis"
	"oassis/internal/paperdata"
)

// fuzzFixture is the one session every fuzz input attaches: the paper's
// running example, observed, with one finished run already journaled so
// GET /journal has run events to serve.
type fuzzFixture struct {
	sess   *oassis.Session
	obsv   *oassis.Observer
	target oassis.FactSet
}

func newFuzzFixture(f *testing.F) fuzzFixture {
	f.Helper()
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		f.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		f.Fatal(err)
	}
	o := oassis.NewObserver()
	sess, err := oassis.NewSession(store, q, oassis.WithSeed(1), oassis.WithObserver(o),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, q.Satisfying.Support)))
	if err != nil {
		f.Fatal(err)
	}
	du1, du2 := paperdata.Table3(v)
	m1 := oassis.NewSimMember("u1", v, du1, 1)
	m2 := oassis.NewSimMember("u2", v, du2, 2)
	if _, err := sess.Run([]oassis.Member{m1, m2}); err != nil {
		f.Fatal(err)
	}
	return fuzzFixture{sess: sess, obsv: o, target: du1[0]}
}

// answerRig builds a server over the fixture's session with members m1 and
// m2 joined and question 1 pending for m1 — the state a POST /answer meets
// mid-run — without starting a run, so no goroutine outlives the input.
// The returned counter records how many replies reached the engine.
func (fx fuzzFixture) answerRig(t *testing.T) (http.Handler, *int) {
	s := New(Config{Obs: fx.obsv})
	s.Attach(fx.sess)
	h := s.Handler()
	for _, id := range []string{"m1", "m2"} {
		if code, body := join(h, id); code != http.StatusOK {
			t.Fatalf("join %s: %d %q", id, code, body)
		}
	}
	delivered := new(int)
	s.Post(&oassis.Ask{ID: 1, Member: "m1", Kind: oassis.ConcreteAsk, Target: fx.target},
		func(r oassis.Reply) {
			*delivered++
			if r.Support < 0 || r.Support > 1 {
				t.Errorf("reply support %v escaped [0,1]", r.Support)
			}
		})
	return h, delivered
}

// requireClientOutcome fails unless the handler answered 2xx or 4xx.
func requireClientOutcome(t *testing.T, what string, rec *httptest.ResponseRecorder) {
	t.Helper()
	if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
		t.Fatalf("%s: status %d %q, want 2xx or 4xx", what, rec.Code, rec.Body.String())
	}
}

func postAnswer(t *testing.T, h http.Handler, body []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/answer", bytes.NewReader(body)))
	requireClientOutcome(t, "POST /answer", rec)
}

// FuzzAnswer posts an arbitrary body to /answer, then a well-formed answer
// built from the fuzzed member, question ID, support and choice, twice.
// No input may panic the handler or draw a 5xx, and the pending question
// resolves at most once however often it is answered.
func FuzzAnswer(f *testing.F) {
	fx := newFuzzFixture(f)
	valid := []byte(`{"member":"m1","question":1,"support":0.5,"choice":-1}`)
	f.Add(valid, "m2", int64(1), 0.5, -1)                                             // a valid answer
	f.Add(valid, "m1", int64(1), 1.0, -1)                                             // then its duplicate
	f.Add([]byte(`{"member":"m1","question":0,"support":0}`), "m1", int64(7), 0.0, 0) // stale answers
	f.Add([]byte(`{"member":"`+strings.Repeat("a", maxAnswerBody)+`"}`), "", int64(-1), 2.0, 3)
	f.Fuzz(func(t *testing.T, body []byte, member string, question int64, support float64, choice int) {
		h, delivered := fx.answerRig(t)
		postAnswer(t, h, body)
		structured, err := json.Marshal(answerBody{Member: member, Question: question, Support: support, Choice: choice})
		if err == nil { // NaN and ±Inf supports have no JSON form
			postAnswer(t, h, structured)
			postAnswer(t, h, structured)
		}
		if *delivered > 1 {
			t.Fatalf("question 1 resolved %d times", *delivered)
		}
	})
}

// FuzzJournalTail requests GET /journal?n= with an arbitrary n. No input
// may panic the handler or draw a 5xx, and a served tail is JSONL of at
// most the journal's recorded events.
func FuzzJournalTail(f *testing.F) {
	fx := newFuzzFixture(f)
	h := New(Config{Obs: fx.obsv}).Handler()
	for _, n := range []string{"", "0", "5", "-3", "99999999999999999999", "x", "1e3", " 7"} {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, n string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/journal?n="+url.QueryEscape(n), nil))
		requireClientOutcome(t, "GET /journal", rec)
		if rec.Code != http.StatusOK {
			return
		}
		lines := 0
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			lines++
			if !json.Valid(sc.Bytes()) {
				t.Fatalf("line %d is not JSON: %q", lines, sc.Text())
			}
		}
		if total := fx.obsv.JournalSet().Total(); int64(lines) > total || lines == 0 {
			t.Fatalf("served %d events, journal holds %d", lines, total)
		}
	})
}

// FuzzJoin posts /join with an arbitrary member ID, to an empty server and
// to one already holding maxMembers members. No input may panic the
// handler or draw a 5xx; an empty or over-long ID is refused with a 400,
// any other ID joins the empty server once, and the full server takes no
// one.
func FuzzJoin(f *testing.F) {
	full := New(Config{})
	fullH := full.Handler()
	for i := range maxMembers {
		if code, body := join(fullH, fmt.Sprintf("m%d", i)); code != http.StatusOK {
			f.Fatalf("join %d: status %d %q", i, code, body)
		}
	}
	for _, id := range []string{"m1", "", "m0", "a b&c=d", "\xff\x00", strings.Repeat("x", maxMemberIDBytes),
		strings.Repeat("y", maxMemberIDBytes+1)} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		s := New(Config{})
		h := s.Handler()
		code, body := join(h, id)
		switch {
		case id == "" || len(id) > maxMemberIDBytes:
			if code != http.StatusBadRequest || len(s.members) != 0 {
				t.Fatalf("join %q: status %d %q with %d members, want 400 and none", id, code, body, len(s.members))
			}
		case code != http.StatusOK || s.members[id] == nil:
			t.Fatalf("join %q: status %d %q, want 200", id, code, body)
		default:
			if code, body := join(h, id); code != http.StatusConflict {
				t.Fatalf("second join %q: status %d %q, want 409", id, code, body)
			}
		}
		if code, body := join(fullH, id); code != http.StatusBadRequest && code != http.StatusConflict {
			t.Fatalf("join %q to a full server: status %d %q, want 400 or 409", id, code, body)
		}
		if n := len(full.members); n != maxMembers {
			t.Fatalf("full server holds %d members, want %d", n, maxMembers)
		}
	})
}

// FuzzQuestion requests GET /question for an arbitrary member while m1 has
// question 1 pending. No input may panic the handler or draw a 5xx, and
// only m1 is served a question: the pending one, as JSON.
func FuzzQuestion(f *testing.F) {
	fx := newFuzzFixture(f)
	for _, id := range []string{"m1", "m2", "", "nobody", "m1&member=m2", strings.Repeat("m", 300)} {
		f.Add(id)
	}
	f.Fuzz(func(t *testing.T, id string) {
		h, _ := fx.answerRig(t)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/question?member="+url.QueryEscape(id), nil))
		requireClientOutcome(t, "GET /question", rec)
		if (rec.Code == http.StatusOK) != (id == "m1") {
			t.Fatalf("GET /question for %q: status %d %q", id, rec.Code, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			var q question
			if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil || q.ID != 1 {
				t.Fatalf("served %q, want question 1 as JSON (%v)", rec.Body.String(), err)
			}
		}
	})
}

// FuzzStartQuery posts /start?query= with an arbitrary name to a server
// whose fleet is registered with AttachNamed and whose crowd is below
// MinMembers, so the name lookup runs but no run, and no goroutine, ever
// starts. No input may panic the handler or draw a 5xx; an unknown name is
// a 404, anything else the 412 of the member gate.
func FuzzStartQuery(f *testing.F) {
	fx := newFuzzFixture(f)
	names := []string{"simple", "again"}
	for _, n := range append(names, "", "missing", "simple ", "a&query=simple", "\x00") {
		f.Add(n)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s := New(Config{MinMembers: 2})
		for _, n := range names {
			s.AttachNamed(n, fx.sess)
		}
		h := s.Handler()
		if code, body := join(h, "m1"); code != http.StatusOK {
			t.Fatalf("join: %d %q", code, body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/start?query="+url.QueryEscape(name), nil))
		requireClientOutcome(t, "POST /start", rec)
		want := http.StatusPreconditionFailed
		if name != "" && s.fleet[name] == nil {
			want = http.StatusNotFound
		}
		if rec.Code != want || s.started {
			t.Fatalf("POST /start?query=%q: status %d %q (started %v), want %d", name, rec.Code, rec.Body.String(), s.started, want)
		}
	})
}
