package ontology

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oassis/internal/vocab"
)

// Store is the ontology: a fact-set of universal truths laid out for
// triple-pattern matching, plus string labels attached to elements (used by
// patterns such as `$x hasLabel "child-friendly"`).
//
// A Store has two phases. While it is built, Add queues facts and AddLabel
// attaches labels. Freeze then sorts the queued facts, drops duplicates and
// lays them out as three sorted permutations, each with a dense offset
// table indexed by TermID:
//
//   - (S, P, O): P and O columns in per-subject runs. It serves Objects as a
//     zero-copy sub-slice, and Has.
//   - (O, P, S): P and S columns in per-object runs. It serves Subjects.
//   - (P, S, O): whole facts in per-predicate runs. It serves
//     FactsWithPredicate, Predicates, PredStats and the closure and cone
//     builds.
//
// From then on the store is immutable. A store answers fact reads only
// once frozen: until Freeze every fact read sees an empty store, whatever
// Add has queued.
type Store struct {
	v       *vocab.Vocabulary
	pending []Fact // queued by Add, consumed by Freeze

	labels map[vocab.TermID]map[string]bool // element -> label set

	frozen bool

	// The frozen permutations (see the type comment).
	spo, ops column
	psoOff   []int
	pso      []Fact

	// Built once at Freeze: predList lists the predicates with a non-empty
	// run, stats holds each predicate's counts, labelIdx the elements of
	// each label sorted by ID.
	predList []vocab.TermID
	stats    []predStat
	labelIdx map[string][]vocab.TermID

	// The per-predicate closure indexes are built lazily, on first use,
	// under closeMu (see closure.go) so concurrent evaluators share one
	// computation, and so are the semantic candidate cones below.
	closeMu  sync.RWMutex
	closures map[vocab.TermID]*pathClosure

	// Closure index temperature, readable lock-free via ClosureStats():
	// cold counts index builds, warm counts lookups served memoized.
	closureCold atomic.Int64
	closureWarm atomic.Int64

	// cones memoizes semantic candidate cones by coneKey (see cone.go),
	// filled lazily under coneMu; coneCold and coneFacts move only on a
	// fill, so a memo hit touches no shared counter.
	coneMu    sync.RWMutex
	cones     map[uint64][]Fact
	coneCold  atomic.Int64
	coneFacts atomic.Int64

	// planMemo is an opaque memo slot for frozen-store consumers: the
	// sparql plan cache hangs its per-store compiled-plan table here, so
	// cached artifacts share the store's lifetime instead of leaking
	// through a process-global table.
	planMemo sync.Map
}

// column is one sorted fact permutation keyed by its leading position: the
// facts whose key is k are rows off[k]:off[k+1] of the mid and last
// columns, sorted by (mid, last).
type column struct {
	off       []int
	mid, last []vocab.TermID
}

// find returns the rows of key k whose mid value is m. A key outside the
// offset table (negative, or beyond the vocabulary the store was frozen
// over) has no rows.
func (c *column) find(k, m vocab.TermID) (lo, hi int) {
	if k < 0 || int(k) >= len(c.off)-1 {
		return 0, 0
	}
	lo, hi = c.off[k], c.off[k+1]
	lo = gallop(c.mid, lo, hi, int64(m))
	return lo, gallop(c.mid, lo, hi, int64(m)+1)
}

// gallop returns the first row in [lo, hi) of the sorted xs whose value is
// not below x, or hi. It probes lo, lo+1, lo+3, lo+7, ... and then
// binary-searches the last gap, so the cost grows with the log of the
// distance skipped: a short run costs a few sequential reads, a long one
// no more than a binary search.
func gallop(xs []vocab.TermID, lo, hi int, x int64) int {
	for step := 1; lo < hi && int64(xs[lo]) < x; step *= 2 {
		next := lo + step
		if next >= hi || int64(xs[next]) >= x {
			// The answer is in (lo, min(next, hi)].
			lo++
			next = min(next, hi)
			for lo < next {
				h := int(uint(lo+next) >> 1)
				if int64(xs[h]) < x {
					lo = h + 1
				} else {
					next = h
				}
			}
			return lo
		}
		lo = next
	}
	return lo
}

type predStat struct{ facts, subjects, objects int }

// PlanMemo exposes the store's consumer memo slot (see the field comment).
// Entries should only be added once the store is frozen.
func (s *Store) PlanMemo() *sync.Map { return &s.planMemo }

// ClosureCacheStats is a snapshot of the closure index counters.
type ClosureCacheStats struct {
	Cold int64 // per-predicate closure indexes built
	Warm int64 // closure lookups served from the memo
}

// ClosureStats snapshots how often path-closure lookups hit the memoized
// index (warm) versus built it (cold).
func (s *Store) ClosureStats() ClosureCacheStats {
	return ClosureCacheStats{Cold: s.closureCold.Load(), Warm: s.closureWarm.Load()}
}

// NewStore returns an empty ontology over the given vocabulary.
func NewStore(v *vocab.Vocabulary) *Store {
	return &Store{
		v:        v,
		labels:   make(map[vocab.TermID]map[string]bool),
		closures: make(map[vocab.TermID]*pathClosure),
		cones:    make(map[uint64][]Fact),
	}
}

// Vocabulary returns the vocabulary the store is defined over.
func (s *Store) Vocabulary() *vocab.Vocabulary { return s.v }

// Add queues a fact for Freeze; duplicates are dropped there. Every term
// must already be in the vocabulary: a fact naming NoTerm, the Any
// wildcard or an ID the vocabulary has not issued is rejected.
func (s *Store) Add(f Fact) error {
	if s.frozen {
		return fmt.Errorf("ontology: Add after Freeze")
	}
	ne, nr := s.v.NumElements(), s.v.NumRelations()
	switch {
	case f.S < 0 || int(f.S) >= ne:
		return fmt.Errorf("ontology: subject %d is not one of the %d vocabulary elements", f.S, ne)
	case f.P < 0 || int(f.P) >= nr:
		return fmt.Errorf("ontology: predicate %d is not one of the %d vocabulary relations", f.P, nr)
	case f.O < 0 || int(f.O) >= ne:
		return fmt.Errorf("ontology: object %d is not one of the %d vocabulary elements", f.O, ne)
	}
	s.pending = append(s.pending, f)
	return nil
}

// MustAdd is Add panicking on error, for construction code.
func (s *Store) MustAdd(f Fact) {
	if err := s.Add(f); err != nil {
		panic(err)
	}
}

// AddLabel attaches a string label to an element.
func (s *Store) AddLabel(e vocab.TermID, label string) error {
	if s.frozen {
		return fmt.Errorf("ontology: AddLabel after Freeze")
	}
	m := s.labels[e]
	if m == nil {
		m = make(map[string]bool)
		s.labels[e] = m
	}
	m[label] = true
	return nil
}

// HasLabel reports whether the element carries the label.
func (s *Store) HasLabel(e vocab.TermID, label string) bool {
	return s.labels[e][label]
}

// LabeledElements returns all elements carrying the label, sorted by ID,
// as a shared index slice; do not modify it.
func (s *Store) LabeledElements(label string) []vocab.TermID {
	return s.labelIdx[label]
}

// Fact positions, as counting-sort keys.
const (
	bySubject = iota
	byPredicate
	byObject
)

func keyOf(f *Fact, pos int) vocab.TermID {
	switch pos {
	case bySubject:
		return f.S
	case byPredicate:
		return f.P
	}
	return f.O
}

// countingSort stably sorts src into dst by the key at pos, whose values
// lie in [0, n), and returns the offsets of each key's run in dst.
func countingSort(dst, src []Fact, pos, n int) []int {
	off := make([]int, n+2)
	for i := range src {
		off[keyOf(&src[i], pos)+2]++
	}
	for k := 2; k < len(off); k++ {
		off[k] += off[k-1]
	}
	// off[k+1] is now the start of key k's run; scattering advances it to
	// the run's end, which is the start of key k+1's.
	for i := range src {
		k := keyOf(&src[i], pos) + 1
		dst[off[k]] = src[i]
		off[k]++
	}
	return off[:n+1]
}

// newColumn splits a permutation sorted by (pos, mid, last) into its
// offset table over n keys and its mid and last columns.
func newColumn(sorted []Fact, pos, mid, last, n int) column {
	c := column{
		off:  make([]int, n+1),
		mid:  make([]vocab.TermID, len(sorted)),
		last: make([]vocab.TermID, len(sorted)),
	}
	for i := range sorted {
		f := &sorted[i]
		c.off[keyOf(f, pos)+1]++
		c.mid[i] = keyOf(f, mid)
		c.last[i] = keyOf(f, last)
	}
	for k := 1; k <= n; k++ {
		c.off[k] += c.off[k-1]
	}
	return c
}

// Freeze lays the queued facts out as the three sorted permutations; the
// store becomes immutable. Three stable counting sorts on TermID (O, then
// P, then S) give (S, P, O) order, where duplicates are adjacent and
// dropped. A P-stable pass over that gives (P, S, O), and an O-stable pass
// over (P, S, O) gives (O, P, S). The layout depends only on the set of
// facts, never on the order they were added in.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	ne, nr := s.v.NumElements(), s.v.NumRelations()
	facts := s.pending
	s.pending = nil
	tmp := make([]Fact, len(facts))
	countingSort(tmp, facts, byObject, ne)
	countingSort(facts, tmp, byPredicate, nr)
	countingSort(tmp, facts, bySubject, ne)
	spo := tmp[:0]
	for i, f := range tmp {
		if i == 0 || f != tmp[i-1] {
			spo = append(spo, f)
		}
	}
	s.spo = newColumn(spo, bySubject, byPredicate, byObject, ne)
	s.pso = make([]Fact, len(spo))
	s.psoOff = countingSort(s.pso, spo, byPredicate, nr)
	ops := facts[:len(spo)]
	countingSort(ops, s.pso, byObject, ne)
	s.ops = newColumn(ops, byObject, byPredicate, bySubject, ne)

	// Per-predicate counts: a predicate's distinct subjects are its
	// distinct (S, P) groups of the (S, P, O) run, and likewise for
	// objects over (O, P, S).
	s.stats = make([]predStat, nr)
	for p := range s.stats {
		if n := s.psoOff[p+1] - s.psoOff[p]; n > 0 {
			s.stats[p].facts = n
			s.predList = append(s.predList, vocab.TermID(p))
		}
	}
	countGroups(&s.spo, func(p vocab.TermID) { s.stats[p].subjects++ })
	countGroups(&s.ops, func(p vocab.TermID) { s.stats[p].objects++ })

	s.labelIdx = make(map[string][]vocab.TermID)
	for e, m := range s.labels {
		for label := range m {
			s.labelIdx[label] = append(s.labelIdx[label], e)
		}
	}
	for _, ids := range s.labelIdx {
		slices.Sort(ids)
	}
	s.frozen = true
}

// countGroups calls add with the mid value of every distinct (key, mid)
// group of the column.
func countGroups(c *column, add func(vocab.TermID)) {
	for k := 0; k+1 < len(c.off); k++ {
		for i := c.off[k]; i < c.off[k+1]; i++ {
			if i == c.off[k] || c.mid[i] != c.mid[i-1] {
				add(c.mid[i])
			}
		}
	}
}

// Size returns the number of stored facts.
func (s *Store) Size() int { return len(s.pso) }

// Has reports exact membership of a fact.
func (s *Store) Has(f Fact) bool {
	lo, hi := s.spo.find(f.S, f.P)
	_, ok := slices.BinarySearch(s.spo.last[lo:hi], f.O)
	return ok
}

// Objects returns the objects o such that ⟨s, p, o⟩ is stored, sorted.
// The returned slice is shared; callers must not modify it.
func (s *Store) Objects(subj, pred vocab.TermID) []vocab.TermID {
	lo, hi := s.spo.find(subj, pred)
	if lo == hi {
		return nil
	}
	return s.spo.last[lo:hi:hi]
}

// Subjects returns the subjects x such that ⟨x, p, o⟩ is stored, sorted.
// The returned slice is shared; callers must not modify it.
func (s *Store) Subjects(pred, obj vocab.TermID) []vocab.TermID {
	lo, hi := s.ops.find(obj, pred)
	if lo == hi {
		return nil
	}
	return s.ops.last[lo:hi:hi]
}

// FactsWithPredicate returns all stored facts with the given predicate,
// sorted. The returned slice is shared; callers must not modify it.
func (s *Store) FactsWithPredicate(p vocab.TermID) []Fact {
	if p < 0 || int(p) >= len(s.psoOff)-1 || s.psoOff[p] == s.psoOff[p+1] {
		return nil
	}
	lo, hi := s.psoOff[p], s.psoOff[p+1]
	return s.pso[lo:hi:hi]
}

// Predicates returns the relations that appear in at least one stored fact,
// sorted by ID, as a shared index slice; do not modify it.
func (s *Store) Predicates() []vocab.TermID { return s.predList }

// AllFacts returns every stored fact as a canonical fact-set.
func (s *Store) AllFacts() FactSet {
	out := make(FactSet, 0, len(s.pso))
	for k := 0; k+1 < len(s.spo.off); k++ {
		for i := s.spo.off[k]; i < s.spo.off[k+1]; i++ {
			out = append(out, Fact{S: vocab.TermID(k), P: s.spo.mid[i], O: s.spo.last[i]})
		}
	}
	return out
}

// PredStats returns the fact count and the number of distinct subjects and
// objects stored under a predicate — the planner's estimates for half-bound
// triple patterns.
func (s *Store) PredStats(pred vocab.TermID) (facts, subjects, objects int) {
	if pred < 0 || int(pred) >= len(s.stats) {
		return 0, 0, 0
	}
	st := s.stats[pred]
	return st.facts, st.subjects, st.objects
}
