package assign

import (
	"encoding/binary"

	"oassis/internal/oassisql"
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
// Each yielded row is projected onto the schema columns and deduplicated
// through a byte-key map; a map hit costs no allocation, and the distinct
// tuples are packed into one flat slab. The slab then goes through
// internTuples, the helper every constructor ends in: NodeIDs follow the
// projected tuples in ascending order, TermIDs compared numerically,
// variables in name order. NodeIDs and Valid() therefore come out identical
// to NewSpaceFromRows and NewSpace over the same query, which the
// differential suites in stream_test.go and space_race_test.go pin.

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

	// seen holds the byte key of every distinct tuple in slab. The key
	// buffer is reused across rows; Go's map[string] lookup on
	// string(keyBuf) does not allocate, so only fresh tuples cost anything.
	seen := make(map[string]struct{})
	var slab []vocab.TermID
	n := 0
	keyBuf := make([]byte, 4*len(sch.colIdx))
	streamed := pl.Stream(sch.colIdx, func(row []vocab.TermID) bool {
		for i, c := range sch.colIdx {
			binary.LittleEndian.PutUint32(keyBuf[4*i:], uint32(row[c]))
		}
		if _, ok := seen[string(keyBuf)]; ok {
			return true
		}
		seen[string(keyBuf)] = struct{}{}
		for _, c := range sch.colIdx {
			slab = append(slab, row[c])
		}
		n++
		return true
	})
	s.internTuples(sch, slab, n)
	return s, streamed, nil
}
