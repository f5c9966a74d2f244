package assign_test

// Differential tests for the streaming space constructor: NewSpaceFromPlan
// consumes rows straight off the plan operators, so it must reproduce the
// materialized path (Eval + NewSpaceFromRows) exactly — same Valid()
// ordering, same NodeIDs — or every downstream transcript diverges. The
// suite sweeps 100+ randomized DAGs, includes projection-dropped fan-out
// shapes where streaming actually deduplicates, replays full oracle-driven
// mining runs on both spaces, and hammers one shared plan from many
// goroutines (run with -race).

import (
	"math"
	"slices"
	"sync"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

// fanOutQuery has a WHERE variable ($q) the projection drops, so the
// streamed row count exceeds the distinct-candidate count by the size of
// the item taxonomy.
const fanOutQuery = `SELECT FACT-SETS WHERE $y subClassOf* Stuff. $q subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = 0.5`

// requireSameSpace pins Valid() ordering, keys and NodeIDs across the two
// construction paths.
func requireSameSpace(t *testing.T, tag string, a, b *assign.Space) {
	t.Helper()
	av, bv := a.Valid(), b.Valid()
	if len(av) != len(bv) {
		t.Fatalf("%s: valid count %d vs %d", tag, len(av), len(bv))
	}
	for i := range av {
		if av[i].Key() != bv[i].Key() {
			t.Fatalf("%s: Valid()[%d] key %q vs %q", tag, i, av[i].Key(), bv[i].Key())
		}
		if av[i].ID() != bv[i].ID() {
			t.Fatalf("%s: Valid()[%d] NodeID %d vs %d", tag, i, av[i].ID(), bv[i].ID())
		}
	}
}

// TestStreamingSpaceMatchesMaterialized sweeps randomized DAG shapes; on
// every one the streaming constructor must be indistinguishable from the
// materialized one. Every fourth seed additionally runs the fan-out query,
// where the intermediate row set is much larger than the output.
func TestStreamingSpaceMatchesMaterialized(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width:      int(8 + seed%17),
			Depth:      int(2 + seed%3),
			MSPPercent: 0.05,
			Seed:       seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		queries := []*oassisql.Query{d.Query}
		if seed%4 == 0 {
			q, err := oassisql.Parse(fanOutQuery, d.Vocab)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, q)
		}
		for qi, q := range queries {
			plan, err := sparql.NewEvaluator(d.Store).Compile(q.Where)
			if err != nil {
				t.Fatal(err)
			}
			materialized, err := assign.NewSpaceFromRows(q, plan.Eval(), nil)
			if err != nil {
				t.Fatal(err)
			}
			streaming, streamed, err := assign.NewSpaceFromPlan(q, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			if streamed < len(streaming.Valid()) {
				t.Fatalf("seed %d query %d: streamed %d rows but %d candidates survived",
					seed, qi, streamed, len(streaming.Valid()))
			}
			requireSameSpace(t, "seed/query", materialized, streaming)
		}
	}
}

// TestStreamingSpaceFullRun replays complete oracle-driven mining runs over
// both constructions: identical spaces must yield identical MSP sets and
// transcripts, which is the end-to-end consequence NodeID identity exists
// to protect.
func TestStreamingSpaceFullRun(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: 30, Depth: 4, MSPPercent: 0.05, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
		if err != nil {
			t.Fatal(err)
		}
		materialized, err := assign.NewSpaceFromRows(d.Query, plan.Eval(), nil)
		if err != nil {
			t.Fatal(err)
		}
		streaming, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		run := func(sp *assign.Space) []string {
			res := core.NewEngine(sp, []crowd.Member{d.Oracle(0, seed)}, core.EngineConfig{
				Theta: 0.5, Seed: seed, RecordTranscript: true,
			}).Run()
			keys := make([]string, len(res.MSPs))
			for i, m := range res.MSPs {
				keys[i] = m.Key()
			}
			return keys
		}
		mk, sk := run(materialized), run(streaming)
		if len(mk) != len(sk) {
			t.Fatalf("seed %d: %d MSPs materialized, %d streaming", seed, len(mk), len(sk))
		}
		for i := range mk {
			if mk[i] != sk[i] {
				t.Fatalf("seed %d: MSP %d differs: %q vs %q", seed, i, mk[i], sk[i])
			}
		}
	}
}

// TestConcurrentStreamingSpace streams many spaces off one shared plan at
// once; the plan's exec state is per-call, so every result must be
// identical. Run with -race.
func TestConcurrentStreamingSpace(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 100, Depth: 5, MSPPercent: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
			if err != nil {
				t.Error(err)
				return
			}
			got, want := sp.Valid(), ref.Valid()
			if len(got) != len(want) {
				t.Errorf("valid count %d, want %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i].Key() != want[i].Key() || got[i].ID() != want[i].ID() {
					t.Errorf("Valid()[%d] diverges under concurrency", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestStreamTuplesCompaction drives the streaming constructor's slab with
// compaction floors from 1 upwards on the fan-out query projected onto $p
// and $q, which the plan binds around $y, so each (p, q) tuple streams
// once per $y binding: every floor must leave the same distinct tuples as
// one uncompacted slab, and the slab must end below max(floor, 2m) rows
// for m distinct tuples.
func TestStreamTuplesCompaction(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		d, err := synth.NewDAG(synth.DAGConfig{Width: int(8 + seed*3), Depth: 3, MSPPercent: 0.05, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		q, err := oassisql.Parse(fanOutQuery, d.Vocab)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sparql.NewEvaluator(d.Store).Compile(q.Where)
		if err != nil {
			t.Fatal(err)
		}
		var cols []int
		for i, pv := range plan.Vars() {
			if pv.Name == "p" || pv.Name == "q" {
				cols = append(cols, i)
			}
		}
		w := len(cols)
		full, nFull, streamed := assign.StreamTuples(plan, cols, math.MaxInt)
		if nFull != streamed {
			t.Fatalf("seed %d: uncompacted slab holds %d of %d rows", seed, nFull, streamed)
		}
		want, m := assign.DistinctTuples(full, w, nFull)
		if streamed < 2*m {
			t.Fatalf("seed %d: %d rows for %d tuples; the fixture must repeat tuples", seed, streamed, m)
		}
		for _, floor := range []int{1, 2, 3, 8, 64} {
			slab, n, gotStreamed := assign.StreamTuples(plan, cols, floor)
			if gotStreamed != streamed {
				t.Fatalf("seed %d floor %d: streamed %d rows, want %d", seed, floor, gotStreamed, streamed)
			}
			if n >= max(floor, 2*m) {
				t.Fatalf("seed %d floor %d: slab ends at %d rows for %d distinct tuples", seed, floor, n, m)
			}
			got, gm := assign.DistinctTuples(slab, w, n)
			if gm != m || !slices.Equal(got, want) {
				t.Fatalf("seed %d floor %d: %d distinct tuples %v, want %d %v", seed, floor, gm, got, m, want)
			}
		}
	}
}
