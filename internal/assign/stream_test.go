package assign_test

// Tests for the space constructor: NewSpaceFromPlan consumes rows straight
// off the plan operators, through the projection's cut, into 𝒜valid. Its
// Valid() keys and NodeIDs are pinned against the plan's full Stream,
// projected and deduplicated here, on a projection-dropped fan-out shape
// where streaming actually deduplicates and on the paper's queries in both
// modes. Full oracle-driven
// mining runs must find the planted MSPs, and one shared plan is hammered
// from many goroutines (run with -race).

import (
	"math"
	"slices"
	"sort"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// solutions compiles where on e and returns the plan with the distinct rows
// of its full Stream: copied, sorted with slices.Compare and deduplicated.
func solutions(t testing.TB, e *sparql.Evaluator, where sparql.BGP) (*sparql.Plan, [][]vocab.TermID) {
	t.Helper()
	plan, err := e.Compile(where)
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]vocab.TermID
	plan.Stream(nil, func(row []vocab.TermID) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	slices.SortFunc(rows, slices.Compare)
	return plan, slices.CompactFunc(rows, slices.Equal)
}

// fanOutQuery has a WHERE variable ($q) the projection drops, so the
// streamed row count exceeds the distinct-candidate count by the size of
// the item taxonomy.
const fanOutQuery = `SELECT FACT-SETS WHERE $y subClassOf* Stuff. $q subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = 0.5`

// requireMatchesStream checks the query's space against the plan's full
// Stream: NodeIDs as requireNodeOrder does, and Valid() lists exactly the
// projected tuples' keys, in sorted order. It returns the space.
func requireMatchesStream(t *testing.T, tag string, q *oassisql.Query, store *ontology.Store, semantic bool) *assign.Space {
	t.Helper()
	sp, want, names := requireNodeOrder(t, tag, q, store, semantic)
	keys := make([]string, len(want))
	for i, tuple := range want {
		vals := make(map[string][]vocab.TermID, len(names))
		for j, n := range names {
			vals[n] = []vocab.TermID{tuple[j]}
		}
		keys[i] = assign.New(q.Vocabulary(), sp.Kinds(), vals, nil).Key()
	}
	sort.Strings(keys)
	for i, a := range sp.Valid() {
		if a.Key() != keys[i] {
			t.Fatalf("%s: Valid()[%d] is %q, want %q", tag, i, a.Key(), keys[i])
		}
	}
	return sp
}

// TestStreamingSpaceMatchesMaterialized checks the streamed space against
// the plan's full Stream, materialized and projected here, on the
// width-100 DAG's fan-out query and the paper's queries in both modes.
// TestParallelSpaceMatchesSerial covers the width-100 DAG's own query and
// TestStreamingSpaceNodeOrder sweeps 100 smaller randomized DAGs.
func TestStreamingSpaceMatchesMaterialized(t *testing.T) {
	d := dagFixture(t)
	q, err := oassisql.Parse(fanOutQuery, d.Vocab)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesStream(t, "width-100 fan-out", q, d.Store, false)
	v, store := paperdata.Build()
	for _, text := range []string{paperdata.QueryText, paperdata.SimpleQueryText, multQuery} {
		q, err := oassisql.Parse(text, v)
		if err != nil {
			t.Fatal(err)
		}
		requireMatchesStream(t, "paperdata exact", q, store, false)
		requireMatchesStream(t, "paperdata semantic", q, store, true)
	}
}

// TestStreamingSpaceFullRun replays complete oracle-driven mining runs over
// streamed spaces: the oracle realizes exactly the planted MSPs, so a run
// must find exactly those, which is the end-to-end consequence of a
// correct 𝒜valid.
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
		sp, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		res := core.NewEngine(sp, []crowd.Member{d.Oracle(0, seed)}, core.EngineConfig{
			Theta: 0.5, Seed: seed,
		}).Run()
		got := make([]string, len(res.MSPs))
		for i, m := range res.MSPs {
			got[i] = m.Key()
		}
		want := make([]string, len(d.Planted))
		for i, p := range d.Planted {
			want[i] = p.Key()
		}
		slices.Sort(got)
		slices.Sort(want)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("seed %d: run found MSPs %q, planted %q", seed, got, want)
		}
	}
}

// TestConcurrentStreamingSpace streams many spaces off one shared plan at
// once; the plan's exec state is per-call, so every result must be
// identical. Run with -race.
func TestConcurrentStreamingSpace(t *testing.T) {
	d := dagFixture(t)
	plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	buildInParallel(t, d, ref, func() (*sparql.Plan, error) { return plan, nil })
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
