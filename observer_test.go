package oassis_test

import (
	"bufio"
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"oassis"
	"oassis/internal/paperdata"
	"oassis/internal/server"
)

// TestSessionObserver drives the paper's running example with an Observer
// attached and checks that every pipeline stage left its mark: compile and
// eval counters, the fused space_build span, space gauges, kernel round
// metrics, broker round-trips, a trace summary on the Result, and a
// Prometheus scrape that carries all of it.
func TestSessionObserver(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	o := oassis.NewObserver()
	o.JournalSet().SetPhase("paper-example")
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1), oassis.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}

	// The WHERE stage was observed during construction.
	if o.Plan.Compiles.Value() != 1 || o.Plan.Evals.Value() != 1 {
		t.Fatalf("plan counters: compiles=%d evals=%d",
			o.Plan.Compiles.Value(), o.Plan.Evals.Value())
	}
	explain := session.PlanExplain()
	if !strings.Contains(explain, "rows_in") {
		t.Fatalf("observed PlanExplain lacks actual cardinalities:\n%s", explain)
	}
	if len(session.PlanOps()) == 0 {
		t.Fatal("PlanOps empty")
	}
	if st := session.SpaceStats(); st.Nodes == 0 || st.Valid != 42 {
		t.Fatalf("space stats = %+v", st)
	}

	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("observed run has no trace summary")
	}
	names := map[string]bool{}
	for _, e := range res.Trace.Entries {
		if e.Phase != "paper-example" {
			t.Errorf("span %q has phase %q", e.Name, e.Phase)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"space_build", "round"} {
		if !names[want] {
			t.Errorf("trace missing %q spans:\n%s", want, res.Trace)
		}
	}
	if o.Kernel.Rounds.Value() != int64(res.Stats.Rounds) {
		t.Errorf("rounds counter = %d, Stats say %d", o.Kernel.Rounds.Value(), res.Stats.Rounds)
	}
	if o.Broker.Posted.Value() != int64(res.Stats.Asked) {
		t.Errorf("broker posted %d, kernel asked %d", o.Broker.Posted.Value(), res.Stats.Asked)
	}

	var sb strings.Builder
	o.Registry.WritePrometheus(&sb)
	scrape := sb.String()
	for _, want := range []string{
		"oassis_sparql_compiles_total 1",
		"oassis_kernel_rounds_total",
		"oassis_broker_round_trip_seconds_count",
		"oassis_space_nodes",
		"oassis_space_edge_cache_hits",
		"oassis_ontology_closure_cold",
		"oassis_ontology_cone_cold",
		"oassis_ontology_cone_facts",
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestSessionUnobserved: without WithObserver nothing observable leaks into
// the result, and PlanExplain still works (estimates only).
func TestSessionUnobserved(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if out := session.PlanExplain(); strings.Contains(out, "rows_in") || !strings.Contains(out, "est=") {
		t.Fatalf("unobserved PlanExplain should show estimates only:\n%s", out)
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("unobserved run grew a trace summary")
	}
}

// docMetricName matches a metric name spelled out in full in backticks;
// family patterns such as `oassis_kernel_*` do not match.
var docMetricName = regexp.MustCompile("`(oassis_[a-z0-9_]+)`")

// TestDocumentedMetricNamesRegistered checks that every metric name
// DESIGN.md and README.md spell out in full is registered by an observer
// that has run a session with scorecards on and backed a server and a
// platform, so the documented names and the exported ones agree.
func TestDocumentedMetricNamesRegistered(t *testing.T) {
	o := oassis.NewObserver()
	o.EnableScorecards()
	runScorecardScenario(t, 0, o)
	server.New(server.Config{Obs: o})
	oassis.NewPlatform(oassis.PlatformConfig{Obs: o})

	var prom bytes.Buffer
	o.Registry.WritePrometheus(&prom)
	registered := map[string]bool{}
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}
	checked := 0
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docMetricName.FindAllStringSubmatch(string(text), -1) {
			checked++
			if !registered[m[1]] {
				t.Errorf("%s names %s, which no observer registers", doc, m[1])
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no metric names in DESIGN.md or README.md")
	}
}
