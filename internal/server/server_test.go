package server_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"oassis"
	"oassis/internal/paperdata"
	"oassis/internal/server"
)

// client is a scripted crowd member polling the HTTP API and answering from
// a personal database (the role a human plays against the real UI).
type client struct {
	t      *testing.T
	base   string
	id     string
	member *oassis.SimMember
	v      *oassis.Vocabulary
}

func (c *client) do(method, path string, body any) (*http.Response, []byte) {
	c.t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			c.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// serve polls for questions and answers them until the run completes.
func (c *client) serve(wg *sync.WaitGroup) {
	defer wg.Done()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, body := c.do("GET", "/question?member="+c.id, nil)
		switch resp.StatusCode {
		case http.StatusGone:
			return
		case http.StatusNotFound:
			time.Sleep(2 * time.Millisecond)
			continue
		case http.StatusOK:
		default:
			c.t.Errorf("%s: unexpected status %d: %s", c.id, resp.StatusCode, body)
			return
		}
		var q struct {
			ID      int64    `json:"id"`
			Kind    string   `json:"kind"`
			Text    string   `json:"text"`
			Options []string `json:"options"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			c.t.Errorf("%s: bad question: %v", c.id, err)
			return
		}
		ans := map[string]any{"member": c.id, "question": q.ID, "choice": -1}
		if q.Kind == "specialization" {
			best, bestS := -1, 0.0
			for i, opt := range q.Options {
				if s := c.supportFor(c.v, opt); s > bestS {
					best, bestS = i, s
				}
			}
			ans["choice"] = best
			ans["support"] = bestS
		} else {
			ans["support"] = c.supportFor(c.v, q.Text)
		}
		if resp, body := c.do("POST", "/answer", ans); resp.StatusCode != http.StatusOK {
			// The engine may have timed the question out; keep going.
			_ = body
		}
	}
}

// supportFor parses the rendered question back into the asked fact-set (the
// template is "How often do you engage in {activity} at {place}?") and
// answers with the member's true support — exactly what a diligent human
// reading the web UI would do.
func (c *client) supportFor(v *oassis.Vocabulary, text string) float64 {
	body := strings.TrimSuffix(strings.TrimPrefix(text, "How often do you "), "?")
	var facts []oassis.Fact
	for _, part := range strings.Split(body, " and also ") {
		part = strings.TrimPrefix(part, "engage in ")
		i := strings.LastIndex(part, " at ")
		if i < 0 {
			return 0
		}
		subj, obj := part[:i], part[i+len(" at "):]
		f, err := oassis.ParseFact(
			quote(subj)+" doAt "+quote(obj), v)
		if err != nil {
			c.t.Errorf("%s: cannot parse question %q: %v", c.id, text, err)
			return 0
		}
		facts = append(facts, f)
	}
	return c.member.TrueSupport(oassis.NewFactSet(facts...))
}

func quote(name string) string { return `"` + name + `"` }

func TestServerEndToEnd(t *testing.T) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{MinMembers: 2, AnswerTimeout: 10 * time.Second})
	var sess *oassis.Session
	sess, err = oassis.NewSession(store, q,
		oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, q.Satisfying.Support)),
		oassis.WithOnMSP(func(a *oassis.Assignment) {
			srv.RecordAnswer(sess.DescribeAssignment(a))
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sess)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	du1, du2 := paperdata.Table3(v)
	m1 := oassis.NewSimMember("u1", v, du1, 1)
	m2 := oassis.NewSimMember("u2", v, du2, 2)
	m1.Scale = nil
	m2.Scale = nil
	clients := []*client{
		{t: t, base: ts.URL, id: "u1", member: m1, v: v},
		{t: t, base: ts.URL, id: "u2", member: m2, v: v},
	}
	// Join.
	for _, c := range clients {
		resp, body := c.do("POST", "/join?member="+c.id, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join: %d %s", resp.StatusCode, body)
		}
	}
	// Duplicate join rejected.
	if resp, _ := clients[0].do("POST", "/join?member=u1", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate join: %d", resp.StatusCode)
	}
	// Start.
	if resp, body := clients[0].do("POST", "/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d %s", resp.StatusCode, body)
	}
	// Serve both members concurrently.
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go c.serve(&wg)
	}
	// Wait for completion via /results.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := clients[0].do("GET", "/results", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("results: %d %s", resp.StatusCode, body)
		}
		var out struct {
			Done    bool     `json:"done"`
			Answers []string `json:"answers"`
			Error   string   `json:"error"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Error != "" {
			t.Fatalf("run error: %s", out.Error)
		}
		if out.Done {
			if len(out.Answers) == 0 {
				t.Fatal("no streamed answers")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not complete in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()
}

func TestServerValidation(t *testing.T) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{MinMembers: 2})
	sess, err := oassis.NewSession(store, q, oassis.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(sess)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, id: "x"}

	// Join without a member id.
	if resp, _ := c.do("POST", "/join", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty join: %d", resp.StatusCode)
	}
	// Start before enough members.
	if resp, _ := c.do("POST", "/start", nil); resp.StatusCode != http.StatusPreconditionFailed {
		t.Errorf("early start: %d", resp.StatusCode)
	}
	// Question for unknown member.
	if resp, _ := c.do("GET", "/question?member=ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown member: %d", resp.StatusCode)
	}
	// Malformed answer.
	req, _ := http.NewRequest("POST", ts.URL+"/answer", strings.NewReader("not json"))
	resp, _ := http.DefaultClient.Do(req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad answer json: %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Out-of-range support.
	if resp, _ := c.do("POST", "/answer", map[string]any{
		"member": "x", "question": 1, "support": 2.0,
	}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("out-of-range support: %d", resp.StatusCode)
	}
}

// TestResultsDeterministicOrder pins the /results contract: the answers
// array is sorted, independent of the interleaving in which answers
// arrived from the crowd.
func TestResultsDeterministicOrder(t *testing.T) {
	srv := server.New(server.Config{MinMembers: 1})
	// Record in two different arrival orders; both must render the same.
	for _, text := range []string{"zebra crossing", "apple picking", "midtown stroll"} {
		srv.RecordAnswer(text)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := &client{t: t, base: ts.URL, id: "x"}
	resp, body := c.do("GET", "/results", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Answers []string `json:"answers"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	want := []string{"apple picking", "midtown stroll", "zebra crossing"}
	if len(out.Answers) != len(want) {
		t.Fatalf("answers = %v, want %v", out.Answers, want)
	}
	for i := range want {
		if out.Answers[i] != want[i] {
			t.Fatalf("answers = %v, want sorted %v", out.Answers, want)
		}
	}
}
