package assign_test

// Oracle test for the NodeID order of the projected valid assignments.
// NewSpaceFromPlan interns 𝒜valid in canonical key order: SATISFYING
// variables in name order, each value ordered as its decimal rendering
// followed by ';'. The expected order is computed here independently, from
// the plan's full Stream and the query's own variable names, by sorting
// the rendered tuples as strings; Valid() must carry exactly those tuples
// with Valid()[k] the node with NodeID k.

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// projectedOrder returns the distinct projections of a plan's rows (over
// the plan's variables vars) onto the query's WHERE-bound SATISFYING
// variables, sorted by name, in the order of their "value;" renderings as
// strings (the key order), plus those variable names.
func projectedOrder(q *oassisql.Query, vars []sparql.PlanVar, rows [][]vocab.TermID) ([][]vocab.TermID, []string) {
	col := map[string]int{}
	for i, pv := range vars {
		col[pv.Name] = i
	}
	var names []string
	for _, sv := range q.SatVars() {
		if _, ok := col[sv.Name]; ok {
			names = append(names, sv.Name)
		}
	}
	sort.Strings(names)
	var tuples [][]vocab.TermID
	for _, row := range rows {
		t := make([]vocab.TermID, len(names))
		for i, n := range names {
			t[i] = row[col[n]]
		}
		tuples = append(tuples, t)
	}
	render := func(tuple []vocab.TermID) string {
		var b strings.Builder
		for _, x := range tuple {
			b.WriteString(strconv.Itoa(int(x)) + ";")
		}
		return b.String()
	}
	slices.SortFunc(tuples, func(a, b []vocab.TermID) int { return strings.Compare(render(a), render(b)) })
	return slices.CompactFunc(tuples, slices.Equal), names
}

// requireTupleOrder checks that Valid()[k] is the valid node with NodeID k
// and carries the k-th projected tuple, for every k.
func requireTupleOrder(t *testing.T, tag string, sp *assign.Space, want [][]vocab.TermID, names []string) {
	t.Helper()
	valid := sp.Valid()
	if len(valid) != len(want) {
		t.Fatalf("%s: %d valid assignments, want %d", tag, len(valid), len(want))
	}
	for k, a := range valid {
		if a.ID() != assign.NodeID(k) {
			t.Fatalf("%s: Valid()[%d] %s has NodeID %d", tag, k, a.Key(), a.ID())
		}
		id := int(a.ID())
		if id >= len(want) {
			t.Fatalf("%s: valid %s has NodeID %d outside [0, %d)", tag, a.Key(), id, len(want))
		}
		for i, n := range names {
			if vals := a.Values(n); len(vals) != 1 || vals[0] != want[id][i] {
				t.Fatalf("%s: NodeID %d binds $%s to %v, want tuple %v", tag, id, n, vals, want[id])
			}
		}
	}
}

// requireNodeOrder builds the query's space, pins its NodeID order against
// the oracle computed from the plan's full Stream, and returns the space
// with the oracle's tuples and their variable names.
func requireNodeOrder(t *testing.T, tag string, q *oassisql.Query, store *ontology.Store, semantic bool) (*assign.Space, [][]vocab.TermID, []string) {
	t.Helper()
	e := sparql.NewEvaluator(store)
	e.Semantic = semantic
	plan, rows := solutions(t, e, q.Where)
	want, names := projectedOrder(q, plan.Vars(), rows)
	sp, streamed, err := assign.NewSpaceFromPlan(q, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	if streamed < len(sp.Valid()) {
		t.Fatalf("%s: streamed %d rows but %d candidates survived", tag, streamed, len(sp.Valid()))
	}
	requireTupleOrder(t, tag, sp, want, names)
	return sp, want, names
}

// TestStreamingSpaceNodeOrder covers 100 randomized DAGs with the fan-out
// query on every fourth, and the paper's Figure 2 queries in both modes.
func TestStreamingSpaceNodeOrder(t *testing.T) {
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
		requireNodeOrder(t, "dag", d.Query, d.Store, false)
		if seed%4 == 0 {
			q, err := oassisql.Parse(fanOutQuery, d.Vocab)
			if err != nil {
				t.Fatal(err)
			}
			requireNodeOrder(t, "fan-out", q, d.Store, false)
		}
	}
	v, store := paperdata.Build()
	for _, text := range []string{paperdata.QueryText, paperdata.SimpleQueryText, multQuery} {
		q, err := oassisql.Parse(text, v)
		if err != nil {
			t.Fatal(err)
		}
		requireNodeOrder(t, "paperdata exact", q, store, false)
		requireNodeOrder(t, "paperdata semantic", q, store, true)
	}
}
