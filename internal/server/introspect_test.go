package server_test

import (
	"bufio"
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

// TestIntrospectionEndpoints drives a full crowd run over HTTP with an
// observer and its scorecards attached, then checks the three introspection
// endpoints against the finished run: /status carries kernel counters and
// the arrival-curve tail, /members the per-member scorecards, /journal the
// event tail as JSONL in the canonical wire format.
func TestIntrospectionEndpoints(t *testing.T) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	o := oassis.NewObserver()
	o.EnableScorecards()
	srv := server.New(server.Config{
		MinMembers:    2,
		AnswerTimeout: 10 * time.Second,
		Obs:           o,
	})
	sess, err := oassis.NewSession(store, q,
		oassis.WithSeed(1),
		oassis.WithObserver(o),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, q.Satisfying.Support)),
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
	for _, c := range clients {
		if resp, body := c.do("POST", "/join?member="+c.id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("join: %d %s", resp.StatusCode, body)
		}
	}

	// /status is registered unconditionally and must answer before any run.
	var pre struct {
		Started bool `json:"started"`
		Done    bool `json:"done"`
		Members int  `json:"members"`
	}
	resp, body := clients[0].do("GET", "/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status before start: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &pre); err != nil {
		t.Fatalf("/status JSON: %v", err)
	}
	if pre.Started || pre.Done || pre.Members != 2 {
		t.Fatalf("pre-run status = %+v, want not started, 2 members", pre)
	}

	if resp, body := clients[0].do("POST", "/start", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("start: %d %s", resp.StatusCode, body)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go c.serve(&wg)
	}
	wg.Wait()
	deadline := time.Now().Add(30 * time.Second)
	for srv.Result() == nil {
		if time.Now().After(deadline) {
			t.Fatal("run did not complete")
		}
		time.Sleep(2 * time.Millisecond)
	}
	res := srv.Result()

	// /status after the run: lifecycle flags flipped, kernel counters
	// agree with the run's stats, and the journal section carries the
	// run ID and a non-empty curve tail.
	var st struct {
		Started bool `json:"started"`
		Done    bool `json:"done"`
		Answers int  `json:"answers"`
		Kernel  struct {
			Rounds    int64 `json:"rounds"`
			Questions int64 `json:"questions"`
			MSPs      int64 `json:"msps"`
		} `json:"kernel"`
		Journal struct {
			Events    int64             `json:"events"`
			Dropped   int64             `json:"dropped"`
			Run       int64             `json:"run"`
			CurveTail []json.RawMessage `json:"curve_tail"`
		} `json:"journal"`
	}
	resp, body = clients[0].do("GET", "/status", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/status: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("/status JSON: %v\n%s", err, body)
	}
	if !st.Started || !st.Done {
		t.Fatalf("post-run status = %+v, want started and done", st)
	}
	if st.Kernel.Questions != int64(res.Stats.Questions) {
		t.Errorf("status kernel questions = %d, run counted %d", st.Kernel.Questions, res.Stats.Questions)
	}
	if st.Kernel.Rounds != int64(res.Stats.Rounds) {
		t.Errorf("status kernel rounds = %d, run counted %d", st.Kernel.Rounds, res.Stats.Rounds)
	}
	if st.Journal.Events == 0 || st.Journal.Run == 0 {
		t.Errorf("status journal section empty: %+v", st.Journal)
	}
	if len(st.Journal.CurveTail) == 0 {
		t.Error("status journal carries no curve tail")
	}
	if len(st.Journal.CurveTail) > 8 {
		t.Errorf("curve tail has %d points, cap is 8", len(st.Journal.CurveTail))
	}

	// /members: one scorecard per member, sorted, counts consistent.
	var mem struct {
		Members []struct {
			Member   string `json:"member"`
			Asked    int64  `json:"asked"`
			Answered int64  `json:"answered"`
		} `json:"members"`
	}
	resp, body = clients[0].do("GET", "/members", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/members: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &mem); err != nil {
		t.Fatalf("/members JSON: %v", err)
	}
	if len(mem.Members) != 2 {
		t.Fatalf("/members lists %d cards, want 2", len(mem.Members))
	}
	var answered int64
	for i, c := range mem.Members {
		if i > 0 && mem.Members[i-1].Member >= c.Member {
			t.Errorf("cards out of order: %q then %q", mem.Members[i-1].Member, c.Member)
		}
		answered += c.Answered
	}
	if answered != int64(res.Stats.Questions) {
		t.Errorf("scorecards sum to %d answers, run counted %d", answered, res.Stats.Questions)
	}

	// /journal: NDJSON tail, every line decodes as a journal event, ?n=
	// bounds the tail, bad n is a 400.
	resp, body = clients[0].do("GET", "/journal", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("/journal content type = %q", ct)
	}
	events, err := oassis.ReadJournal(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/journal body does not decode: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("/journal returned no events")
	}
	if events[len(events)-1].Kind != "run_end" {
		t.Errorf("journal tail ends with %q, want run_end", events[len(events)-1].Kind)
	}

	resp, body = clients[0].do("GET", "/journal?n=3", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/journal?n=3: %d %s", resp.StatusCode, body)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	lines := 0
	for sc.Scan() {
		lines++
	}
	if lines != 3 {
		t.Errorf("/journal?n=3 returned %d lines", lines)
	}

	if resp, _ := clients[0].do("GET", "/journal?n=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/journal?n=bogus: %d, want 400", resp.StatusCode)
	}
}

// TestIntrospectionGates: /status exists without an observer but omits the
// kernel and journal sections; /journal 404s only without an observer,
// /members until the scoreboard is enabled.
func TestIntrospectionGates(t *testing.T) {
	bare := httptest.NewServer(server.New(server.Config{}).Handler())
	defer bare.Close()

	resp, err := http.Get(bare.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/status without observer: %d", resp.StatusCode)
	}
	for _, absent := range []string{"kernel", "journal"} {
		if _, ok := got[absent]; ok {
			t.Errorf("/status without observer carries %q section", absent)
		}
	}
	for _, path := range []string{"/members", "/journal"} {
		resp, err := http.Get(bare.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s without observer: %d, want 404", path, resp.StatusCode)
		}
	}

	// With an observer but no scoreboard, /members exists and explains
	// what is missing instead of a blank 404 from the mux. Every observer
	// carries a journal, so /journal is served.
	o := oassis.NewObserver()
	gated := httptest.NewServer(server.New(server.Config{Obs: o}).Handler())
	defer gated.Close()
	resp, err = http.Get(gated.URL + "/members")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/members with bare observer: %d, want 404", resp.StatusCode)
	}
	if !strings.Contains(buf.String(), "not enabled") {
		t.Errorf("/members 404 body = %q, want a feature hint", buf.String())
	}
	resp, err = http.Get(gated.URL + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/journal with bare observer: %d, want 200", resp.StatusCode)
	}
}
