package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis"
	"oassis/internal/chaos"
	"oassis/internal/paperdata"
	"oassis/internal/server"
)

// newPlatform builds a server over the paper's running example attached to
// a parallel session, ready for httptest.
func newPlatform(t *testing.T, cfg server.Config, opts ...oassis.Option) (*server.Server, *oassis.Session, *oassis.Vocabulary) {
	t.Helper()
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(cfg)
	sess, err := oassis.NewSession(store, q, append([]oassis.Option{oassis.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sess)
	return srv, sess, v
}

// TestServerErrorPathsTable drives every rejection path of the HTTP API
// before a run starts, table-style.
func TestServerErrorPathsTable(t *testing.T) {
	srv, _, _ := newPlatform(t, server.Config{MinMembers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, id: "u1"}
	if resp, body := c.do("POST", "/join?member=u1", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any    // JSON-encoded when non-nil
		raw    string // overrides body with a raw payload
		want   int
	}{
		{name: "join without member id", method: "POST", path: "/join",
			want: http.StatusBadRequest},
		{name: "duplicate join", method: "POST", path: "/join?member=u1",
			want: http.StatusConflict},
		{name: "start before MinMembers", method: "POST", path: "/start",
			want: http.StatusPreconditionFailed},
		{name: "question for unknown member", method: "GET", path: "/question?member=ghost",
			want: http.StatusNotFound},
		{name: "question before one is ready", method: "GET", path: "/question?member=u1",
			want: http.StatusNotFound},
		{name: "answer with malformed json", method: "POST", path: "/answer",
			raw: "not json", want: http.StatusBadRequest},
		{name: "answer body over the size cap", method: "POST", path: "/answer",
			raw:  `{"member":"` + strings.Repeat("u", 64<<10) + `","question":1,"support":0.5}`,
			want: http.StatusRequestEntityTooLarge},
		{name: "answer with out-of-range support", method: "POST", path: "/answer",
			body: map[string]any{"member": "u1", "question": 1, "support": 2.0},
			want: http.StatusBadRequest},
		{name: "answer from unknown member", method: "POST", path: "/answer",
			body: map[string]any{"member": "ghost", "question": 1, "support": 0.5},
			want: http.StatusNotFound},
		{name: "answer with no pending question", method: "POST", path: "/answer",
			body: map[string]any{"member": "u1", "question": 7, "support": 0.5},
			want: http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.raw != "" {
				req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.raw))
				if err != nil {
					t.Fatal(err)
				}
				r, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				r.Body.Close()
				resp = r
			} else {
				resp, body = c.do(tc.method, tc.path, tc.body)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("%s %s: status %d, want %d (%s)",
					tc.method, tc.path, resp.StatusCode, tc.want, body)
			}
		})
	}
}

// TestServerRunLifecycleErrors walks one full run and checks the rejection
// paths that only exist mid-run or after it: stale answers, duplicate
// answers, joining late, and asking for questions once the run is over.
func TestServerRunLifecycleErrors(t *testing.T) {
	srv, _, v := newPlatform(t, server.Config{MinMembers: 1, AnswerTimeout: 10 * time.Second},
		oassis.WithAggregator(oassis.NewMeanAggregator(1, 0.4)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	du1, _ := paperdata.Table3(v)
	m := oassis.NewSimMember("solo", v, du1, 1)
	m.Scale = nil
	c := &client{t: t, base: ts.URL, id: "solo", member: m, v: v}

	if resp, body := c.do("POST", "/join?member=solo", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d %s", resp.StatusCode, body)
	}
	if resp, body := c.do("POST", "/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d %s", resp.StatusCode, body)
	}

	// Wait for the first question to be posted.
	var q wireQuestion
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := c.do("GET", "/question?member=solo", nil)
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, &q); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no question posted")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Out-of-order: answering a question that was never posted is rejected
	// without consuming the pending one.
	if resp, _ := c.do("POST", "/answer", map[string]any{
		"member": "solo", "question": q.ID + 1000, "support": 0.5,
	}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale answer: %d, want 409", resp.StatusCode)
	}
	// The real answer is still accepted...
	ans := map[string]any{"member": "solo", "question": q.ID, "choice": -1,
		"support": c.supportFor(v, q.Text)}
	if resp, body := c.do("POST", "/answer", ans); resp.StatusCode != http.StatusOK {
		t.Fatalf("first answer: %d %s", resp.StatusCode, body)
	}
	// ...and posting it a second time is a rejected duplicate.
	if resp, _ := c.do("POST", "/answer", ans); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate answer: %d, want 409", resp.StatusCode)
	}
	// Joining after the run started is rejected.
	if resp, _ := c.do("POST", "/join?member=late", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("late join: %d, want 409", resp.StatusCode)
	}

	// Serve the rest of the run honestly, then wait for completion.
	var wg sync.WaitGroup
	wg.Add(1)
	go c.serve(&wg)
	wg.Wait()
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, body := c.do("GET", "/results", nil)
		var out struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Error != "" {
			t.Fatalf("run error: %s", out.Error)
		}
		if out.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not complete")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The run is over: question fetches now report 410.
	if resp, _ := c.do("GET", "/question?member=solo", nil); resp.StatusCode != http.StatusGone {
		t.Fatalf("question after run end: %d, want 410", resp.StatusCode)
	}
}

// TestServerSurvivesChaosClients runs the platform against chaos clients:
// crowd members that silently depart, double-submit and answer out of
// order. The run must still complete, with the departure detected through
// the answer deadline and the duplicate/stale posts rejected harmlessly.
func TestServerSurvivesChaosClients(t *testing.T) {
	srv, _, v := newPlatform(t,
		server.Config{MinMembers: 3, AnswerTimeout: 120 * time.Millisecond},
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	du1, du2 := paperdata.Table3(v)
	honest := func(id string, tx []oassis.FactSet) answerer {
		m := oassis.NewSimMember(id, v, tx, 1)
		m.Scale = nil
		helper := &client{t: t, base: ts.URL, id: id, member: m, v: v}
		return func(q wireQuestion) (float64, int) {
			if q.Kind == "specialization" {
				best, bestS := -1, 0.0
				for i, opt := range q.Options {
					if s := helper.supportFor(v, opt); s > bestS {
						best, bestS = i, s
					}
				}
				return bestS, best
			}
			return helper.supportFor(v, q.Text), -1
		}
	}
	clients := []*chaosClient{
		newChaosClient(chaosClientConfig{
			Base: ts.URL, Member: "c1", Answer: honest("c1", du1),
			Faults: chaos.Faults{Seed: 1},
			// Every answer is double-submitted and half re-answer the
			// previous question first.
			DuplicateProb: 1.0, StaleProb: 0.5,
		}),
		newChaosClient(chaosClientConfig{
			Base: ts.URL, Member: "c2", Answer: honest("c2", du2),
			Faults: chaos.Faults{Seed: 2},
		}),
		newChaosClient(chaosClientConfig{
			Base: ts.URL, Member: "c3", Answer: honest("c3", du1),
			// Answers twice, then silently stops polling: the server only
			// finds out through its answer deadline.
			Faults: chaos.Faults{Seed: 3, DepartAfter: 2},
		}),
	}
	for _, c := range clients {
		if err := c.Join(); err != nil {
			t.Fatal(err)
		}
	}
	helper := &client{t: t, base: ts.URL, id: "c1"}
	if resp, body := helper.do("POST", "/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d %s", resp.StatusCode, body)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Run(30 * time.Second); err != nil {
				t.Errorf("%v", err)
			}
		}()
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	var out struct {
		Done       bool     `json:"done"`
		Answers    []string `json:"answers"`
		Departures int      `json:"departures"`
		Error      string   `json:"error"`
	}
	for {
		_, body := helper.do("GET", "/results", nil)
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Error != "" {
			t.Fatalf("run error: %s", out.Error)
		}
		if out.Done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not complete under chaos clients")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !clients[2].Departed {
		t.Error("the departing client never departed")
	}
	if out.Departures < 1 {
		t.Errorf("server recorded %d departures, want ≥ 1", out.Departures)
	}
	if clients[0].Duplicates == 0 {
		t.Error("no duplicate submissions were exercised")
	}
	if clients[0].Answered == 0 || clients[1].Answered == 0 {
		t.Error("surviving clients answered nothing")
	}
}
