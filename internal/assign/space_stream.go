package assign

import (
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// This file implements the streaming space constructor: rows flow from the
// compiled plan's push-based executor (sparql.Plan.Stream) straight into
// space construction, with no intermediate result arena. 𝒜valid is the
// WHERE solutions projected onto the SATISFYING variables (Section 3), so
// the constructor asks Stream for exactly the schema's slots. Once those
// are bound, the rest of the plan only has to show that one completion
// exists, and the stream yields about one row per distinct candidate
// instead of one per full solution.
//
// Each yielded row is projected onto the schema columns and appended to one
// flat slab, duplicates included, and sort-and-compact (distinctTuples)
// deduplicates them instead of a per-row hash lookup. A query whose rows
// repeat their projection many times over would make that slab grow with
// the rows, so the slab is compacted whenever it holds twice the distinct
// tuples left by the last compaction (and at least slabCompactRows rows):
// it stays within a constant factor of the distinct tuples, and a query
// with fewer rows than the floor is sorted once. That one sort puts the
// tuples in canonical key order (variables in name order, values as their
// "value;" key fragments), mostly as an integer sort of packed keys, and
// internTuples registers them in it: NodeID i is Valid()[i]. The oracle
// tests in stream_test.go and order_test.go pin that order against the
// full stream.

// NewSpaceFromPlan builds the assignment space by streaming rows out of a
// compiled plan, never materializing the plan's result set. It returns the
// space and the number of rows Stream yielded: rows after the projection's
// cut (see sparql.Plan.Stream), before deduplication. The plan must have
// been compiled for the query's WHERE clause; like Plan.Stream, concurrent
// calls on one plan are safe.
func NewSpaceFromPlan(q *oassisql.Query, pl *sparql.Plan, morePool ontology.FactSet) (*Space, int, error) {
	s, err := newSpaceShell(q, morePool)
	if err != nil {
		return nil, 0, err
	}
	sch := s.schemaFor(pl.Vars())
	slab, n, streamed := streamTuples(pl, sch.colIdx, slabCompactRows)
	s.internTuples(sch, slab, n)
	return s, streamed, nil
}

// BuildSpace compiles the query's WHERE clause through the store's shared
// plan cache, in exact or semantic (Definition 2.5) mode, and streams the
// plan into a new space with NewSpaceFromPlan. It records the plan's
// metrics and one space_build span in o, which may be nil. A compile error
// is returned with a nil plan, a construction error with the compiled one.
func BuildSpace(store *ontology.Store, q *oassisql.Query, semantic bool, morePool ontology.FactSet, o *obs.Observer) (*Space, *sparql.Plan, error) {
	ev := sparql.NewEvaluator(store)
	ev.Semantic = semantic
	ev.Metrics = o.PlanSet() // Compile auto-observes the plan
	ev.UseSharedCache()
	plan, err := ev.Compile(q.Where)
	if err != nil {
		return nil, nil, err
	}
	jr := o.JournalSet()
	start := jr.Begin()
	space, streamed, err := NewSpaceFromPlan(q, plan, morePool)
	if err != nil {
		return nil, plan, err
	}
	// WHERE evaluation and space construction are one fused stage on the
	// streaming path, so one span covers both. The rows attribute counts
	// rows yielded after the projection's cut (sparql.Plan.Stream), not
	// full WHERE solutions.
	jr.End("space_build", start,
		obs.Attr{Key: "rows", Val: int64(streamed)},
		obs.Attr{Key: "nodes", Val: int64(space.NumNodes())},
		obs.Attr{Key: "valid", Val: int64(len(space.Valid()))})
	return space, plan, nil
}

// slabCompactRows is the fewest buffered rows streamTuples compacts.
const slabCompactRows = 4096

// streamTuples streams pl projected onto cols into a slab of n tuples, one
// value per column, and returns it with the number of rows Stream yielded.
// Whenever the slab holds max(floor, 2m) rows, m the distinct tuples after
// the last compaction, it is replaced by its distinct tuples, so the slab
// holds the same distinct tuples as the uncompacted one would, in at most
// about twice their number of rows.
func streamTuples(pl *sparql.Plan, cols []int, floor int) (slab []vocab.TermID, n, streamed int) {
	// The callback's state is one struct, so it escapes as one allocation.
	st := struct {
		slab     []vocab.TermID
		n, limit int
	}{limit: floor}
	streamed = pl.Stream(cols, func(row []vocab.TermID) bool {
		for _, c := range cols {
			st.slab = append(st.slab, row[c])
		}
		if st.n++; st.n >= st.limit {
			st.slab, st.n = distinctTuples(st.slab, len(cols), st.n)
			st.limit = max(floor, 2*st.n)
		}
		return true
	})
	return st.slab, st.n, streamed
}
