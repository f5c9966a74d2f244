package synth

import (
	"bytes"
	"strings"
	"testing"

	"oassis/internal/obs"
	"oassis/internal/ontology"
)

func TestWriteScaleNTriplesDeterministic(t *testing.T) {
	cfg := SmokeScale()
	var a, b bytes.Buffer
	if err := WriteScaleNTriples(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteScaleNTriples(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("generator is not deterministic")
	}
	if got := strings.Count(a.String(), "\n"); got != cfg.TripleCount() {
		t.Fatalf("emitted %d lines, TripleCount says %d", got, cfg.TripleCount())
	}
}

func TestScaleIngestSerialParallelAgree(t *testing.T) {
	cfg := SmokeScale()
	var buf bytes.Buffer
	if err := WriteScaleNTriples(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	sv, ss, sstats, err := ontology.LoadNTriples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pv, ps, pstats, err := ontology.LoadNTriplesParallel(bytes.NewReader(buf.Bytes()), ontology.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if *sstats != *pstats {
		t.Fatalf("stats divergence: %+v vs %+v", *sstats, *pstats)
	}
	if sv.NumElements() != pv.NumElements() || sv.NumRelations() != pv.NumRelations() {
		t.Fatalf("vocab divergence: (%d,%d) vs (%d,%d)",
			sv.NumElements(), sv.NumRelations(), pv.NumElements(), pv.NumRelations())
	}
	if ss.Size() != ps.Size() {
		t.Fatalf("store divergence: %d vs %d facts", ss.Size(), ps.Size())
	}
	if sstats.Triples != cfg.TripleCount() {
		t.Fatalf("parsed %d triples, generator claims %d", sstats.Triples, cfg.TripleCount())
	}
	// The generated names must round-trip into the vocabulary, including
	// the percent-encoded IRI spellings.
	for _, name := range []string{ScaleClassName(3), ScaleClassName(10), ScaleInstName(4), ScaleInstName(0)} {
		if pv.Element(name) == 0 && name != pv.ElementName(0) {
			t.Fatalf("element %q missing from vocabulary", name)
		}
	}
}

func TestSampleFleetShapes(t *testing.T) {
	scale := SmokeScale()
	fleet := SampleFleet(scale, FleetConfig{Queries: 400, Seed: 9})
	if len(fleet) != 400 {
		t.Fatalf("sampled %d queries, want 400", len(fleet))
	}
	counts := map[int]int{}
	sem := 0
	texts := map[string]bool{}
	for _, fq := range fleet {
		if fq.Patterns < 1 || fq.Patterns > 4 {
			t.Fatalf("query with %d patterns outside [1,4]", fq.Patterns)
		}
		counts[fq.Patterns]++
		if fq.Semantic {
			sem++
		}
		texts[fq.Text] = true
	}
	// Single-pattern stars must dominate per the log-derived distribution.
	if counts[1] <= counts[2] || counts[2] <= counts[3]+counts[4] {
		t.Fatalf("shape distribution off: %v", counts)
	}
	if sem == 0 || sem == len(fleet) {
		t.Fatalf("semantic mix degenerate: %d of %d", sem, len(fleet))
	}
	// Distinctness is (text, mode); texts alone may coincide across modes
	// but the overwhelming majority must be unique.
	if len(texts) < 350 {
		t.Fatalf("only %d distinct texts of 400", len(texts))
	}
}

func loadSmokeStore(t testing.TB) *ontology.Store {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteScaleNTriples(&buf, SmokeScale()); err != nil {
		t.Fatal(err)
	}
	_, store, _, err := ontology.LoadNTriplesParallel(bytes.NewReader(buf.Bytes()), ontology.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestRunFleet(t *testing.T) {
	store := loadSmokeStore(t)
	o := obs.New()
	cfg := FleetConfig{Queries: 150, Executions: 600, Workers: 4, Seed: 5, Obs: o}
	fleet := SampleFleet(SmokeScale(), cfg)
	rep, err := RunFleet(store, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DistinctQueries != 150 || rep.Executions != 600 {
		t.Fatalf("report counts off: %+v", rep)
	}
	if rep.PlanCacheHits == 0 {
		t.Fatal("Zipf-skewed schedule produced no plan-cache hits")
	}
	if rep.CacheHitRate <= 0 || rep.CacheHitRate >= 1 {
		t.Fatalf("cache hit rate %v outside (0,1)", rep.CacheHitRate)
	}
	if rep.QueriesPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", rep)
	}
	if rep.SemanticQueries == 0 {
		t.Fatal("no semantic queries in the mix")
	}
}

// BenchmarkFleet measures fleet throughput at smoke scale (CI bench-smoke);
// the full million-triple figure comes from `oassis-bench -fleet`.
func BenchmarkFleet(b *testing.B) {
	store := loadSmokeStore(b)
	cfg := FleetConfig{Queries: 200, Executions: 800, Seed: 5}
	fleet := SampleFleet(SmokeScale(), cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := RunFleet(store, fleet, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("fleet: %.0f q/s, cache hit rate %.2f", rep.QueriesPerSec, rep.CacheHitRate)
		}
	}
}

// TestRunFleetAttribution runs a small mining fleet with a journal wired in
// and checks the per-query cost attribution joins up: one row per distinct
// query, execution counts summing to the schedule, crowd questions
// attributed to the runs that asked them.
func TestRunFleetAttribution(t *testing.T) {
	store := loadSmokeStore(t)
	o := obs.New()
	cfg := FleetConfig{Queries: 12, Executions: 48, Workers: 4, MineMembers: 3, Seed: 5, Obs: o}
	fleet := SampleFleet(SmokeScale(), cfg)
	rep, err := RunFleet(store, fleet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Questions == 0 {
		t.Fatal("mining fleet asked no crowd questions")
	}
	if len(rep.PerQuery) != rep.DistinctQueries {
		t.Fatalf("attribution covers %d queries, fleet had %d", len(rep.PerQuery), rep.DistinctQueries)
	}
	var execs int
	var questions int64
	for i, c := range rep.PerQuery {
		if i > 0 && rep.PerQuery[i-1].Query >= c.Query {
			t.Fatalf("attribution rows out of order: %q then %q", rep.PerQuery[i-1].Query, c.Query)
		}
		if c.Execs <= 0 {
			t.Fatalf("%s attributed %d executions", c.Query, c.Execs)
		}
		if c.WallSecs < 0 {
			t.Fatalf("%s has negative wall time", c.Query)
		}
		execs += c.Execs
		questions += c.Questions
	}
	if execs != rep.Executions {
		t.Fatalf("attribution sums to %d executions, fleet ran %d", execs, rep.Executions)
	}
	if questions != rep.Questions {
		t.Fatalf("attribution sums to %d questions, fleet asked %d", questions, rep.Questions)
	}

	// Without a journal the fleet still mines but reports no attribution.
	plain := FleetConfig{Queries: 12, Executions: 24, Workers: 2, MineMembers: 2, Seed: 5}
	rep2, err := RunFleet(store, SampleFleet(SmokeScale(), plain), plain)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Questions == 0 {
		t.Fatal("journal-less mining fleet asked no questions")
	}
	if len(rep2.PerQuery) != 0 {
		t.Fatalf("journal-less fleet reported %d attribution rows", len(rep2.PerQuery))
	}
}
