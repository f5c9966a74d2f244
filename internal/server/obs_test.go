package server_test

import (
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

// TestServerMetricsEndToEnd drives a full crowd session over HTTP with an
// Observer shared between session and platform, scraping GET /metrics
// concurrently with the answer traffic the whole way (the -race run is the
// point: a scrape must never tear or block the hot path). At the end the
// scrape must expose every layer: kernel, server, sparql, space.
func TestServerMetricsEndToEnd(t *testing.T) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	o := oassis.NewObserver()
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

	// Concurrent scraper: hammer /metrics while the run is live.
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		c := clients[0]
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := c.do("GET", "/metrics", nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("metrics scrape: %d", resp.StatusCode)
				return
			}
			if !strings.Contains(string(body), "oassis_http_requests_total") {
				t.Error("scrape missing request counter")
				return
			}
		}
	}()

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
	close(stop)
	<-scraperDone

	res := srv.Result()
	// Platform lifecycle counters agree with the kernel's view.
	if got := o.Server.Posted.Value(); got != int64(res.Stats.Asked) {
		t.Errorf("server posted %d questions, kernel asked %d", got, res.Stats.Asked)
	}
	if o.Server.Accepted.Value() == 0 {
		t.Error("no answers accepted")
	}
	if got := o.Server.Departed.Value(); got != int64(res.Stats.Departures) {
		t.Errorf("server reaped %d departures, Stats say %d", got, res.Stats.Departures)
	}

	// Final scrape exposes every layer through one endpoint.
	resp, body := clients[0].do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final scrape: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	scrape := string(body)
	for _, want := range []string{
		"oassis_kernel_rounds_total",
		"oassis_kernel_questions_total",
		"oassis_server_questions_posted_total",
		"oassis_server_answers_accepted_total",
		`oassis_http_requests_total{path="/answer",code="200"}`,
		`oassis_http_request_seconds_count{path="/question"}`,
		"oassis_sparql_compiles_total 1",
		"oassis_space_nodes",
		"oassis_ontology_closure_cold",
		"oassis_ontology_cone_cold",
		"oassis_ontology_cone_facts",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestPprofGate: /debug/pprof is absent by default and present only when
// explicitly enabled.
func TestPprofGate(t *testing.T) {
	off := httptest.NewServer(server.New(server.Config{}).Handler())
	defer off.Close()
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without EnablePprof: %d", resp.StatusCode)
	}

	on := httptest.NewServer(server.New(server.Config{EnablePprof: true}).Handler())
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with EnablePprof: %d", resp.StatusCode)
	}
}

// TestMetricsAbsentWithoutObserver: no observer, no /metrics route.
func TestMetricsAbsentWithoutObserver(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/metrics without observer: %d", resp.StatusCode)
	}
}
