package ontology

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"oassis/internal/vocab"
)

// Store is the ontology: a fact-set of universal truths with indexes for
// triple-pattern matching, plus string labels attached to elements (used by
// patterns such as `$x hasLabel "child-friendly"`).
//
// A Store is built incrementally and frozen together with its vocabulary
// before query evaluation.
type Store struct {
	v     *vocab.Vocabulary
	facts map[Fact]struct{}

	// Indexes. The slices are sorted at Freeze time for determinism.
	bySP map[spKey][]vocab.TermID // (subject, predicate) -> objects
	byPO map[spKey][]vocab.TermID // (predicate, object) -> subjects
	byP  map[vocab.TermID][]Fact  // predicate -> facts

	labels map[vocab.TermID]map[string]bool // element -> label set

	frozen bool

	// Frozen-store memos. predList and labelIdx are built once at Freeze;
	// the per-predicate closure indexes and stats are built lazily, on
	// first use, under closeMu (see closure.go) so concurrent evaluators
	// share one computation, and so are the semantic candidate cones
	// below.
	predList []vocab.TermID
	labelIdx map[string][]vocab.TermID

	closeMu   sync.RWMutex
	closures  map[vocab.TermID]*pathClosure
	predStats map[vocab.TermID]predStat

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

type spKey struct{ a, b vocab.TermID }

// NewStore returns an empty ontology over the given vocabulary.
func NewStore(v *vocab.Vocabulary) *Store {
	return &Store{
		v:         v,
		facts:     make(map[Fact]struct{}),
		bySP:      make(map[spKey][]vocab.TermID),
		byPO:      make(map[spKey][]vocab.TermID),
		byP:       make(map[vocab.TermID][]Fact),
		labels:    make(map[vocab.TermID]map[string]bool),
		closures:  make(map[vocab.TermID]*pathClosure),
		predStats: make(map[vocab.TermID]predStat),
		cones:     make(map[uint64][]Fact),
	}
}

// Vocabulary returns the vocabulary the store is defined over.
func (s *Store) Vocabulary() *vocab.Vocabulary { return s.v }

// Add inserts a fact. Duplicate inserts are ignored.
func (s *Store) Add(f Fact) error {
	if s.frozen {
		return fmt.Errorf("ontology: Add after Freeze")
	}
	if _, ok := s.facts[f]; ok {
		return nil
	}
	s.facts[f] = struct{}{}
	s.bySP[spKey{f.S, f.P}] = append(s.bySP[spKey{f.S, f.P}], f.O)
	s.byPO[spKey{f.P, f.O}] = append(s.byPO[spKey{f.P, f.O}], f.S)
	s.byP[f.P] = append(s.byP[f.P], f)
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

// LabeledElements returns all elements carrying the label, sorted by ID.
// On a frozen store the result is a shared index slice; do not modify it.
func (s *Store) LabeledElements(label string) []vocab.TermID {
	if s.frozen {
		return s.labelIdx[label]
	}
	var out []vocab.TermID
	for e, m := range s.labels {
		if m[label] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// freezeSortParallelThreshold is the fact count above which Freeze fans the
// per-key index sorts out to a worker pool. Sorting is deterministic either
// way; the threshold only avoids goroutine overhead on small stores.
const freezeSortParallelThreshold = 1 << 16

// Freeze sorts all indexes; the store becomes immutable. On large stores
// the independent per-key sorts run on a GOMAXPROCS-wide worker pool (the
// result is identical — every slice is sorted with the same comparator).
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	if workers := runtime.GOMAXPROCS(0); len(s.facts) >= freezeSortParallelThreshold && workers > 1 {
		s.sortIndexesParallel(workers)
	} else {
		for k := range s.bySP {
			ids := s.bySP[k]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
		for k := range s.byPO {
			ids := s.byPO[k]
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		}
		for p := range s.byP {
			fs := s.byP[p]
			sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
		}
	}
	s.predList = make([]vocab.TermID, 0, len(s.byP))
	for p := range s.byP {
		s.predList = append(s.predList, p)
	}
	sort.Slice(s.predList, func(i, j int) bool { return s.predList[i] < s.predList[j] })
	s.labelIdx = make(map[string][]vocab.TermID)
	for e, m := range s.labels {
		for label := range m {
			s.labelIdx[label] = append(s.labelIdx[label], e)
		}
	}
	for label := range s.labelIdx {
		ids := s.labelIdx[label]
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	s.frozen = true
}

// sortIndexesParallel distributes the per-key sorts of bySP/byPO/byP over a
// worker pool. Each slice is independent, so workers pull them off shared
// work lists with an atomic cursor.
func (s *Store) sortIndexesParallel(workers int) {
	idSlices := make([][]vocab.TermID, 0, len(s.bySP)+len(s.byPO))
	for k := range s.bySP {
		idSlices = append(idSlices, s.bySP[k])
	}
	for k := range s.byPO {
		idSlices = append(idSlices, s.byPO[k])
	}
	factSlices := make([][]Fact, 0, len(s.byP))
	for p := range s.byP {
		factSlices = append(factSlices, s.byP[p])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	const batch = 256
	total := int64(len(idSlices) + len(factSlices))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := next.Add(batch) - batch
				if lo >= total {
					return
				}
				hi := lo + batch
				if hi > total {
					hi = total
				}
				for i := lo; i < hi; i++ {
					if i < int64(len(idSlices)) {
						ids := idSlices[i]
						sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
					} else {
						fs := factSlices[i-int64(len(idSlices))]
						sort.Slice(fs, func(a, b int) bool { return fs[a].Less(fs[b]) })
					}
				}
			}
		}()
	}
	wg.Wait()
}

// Size returns the number of stored facts.
func (s *Store) Size() int { return len(s.facts) }

// Has reports exact membership of a fact.
func (s *Store) Has(f Fact) bool {
	_, ok := s.facts[f]
	return ok
}

// ImpliesFact reports whether the ontology semantically implies f, i.e.
// some stored fact g satisfies f ≤ g (Definition 2.5 applied to 𝒪).
func (s *Store) ImpliesFact(f Fact) bool {
	if s.Has(f) {
		return true
	}
	// Any stored fact with predicate p' ≥ f.P may witness the implication.
	for _, p := range s.Predicates() {
		if !s.v.LeqR(f.P, p) {
			continue
		}
		for _, g := range s.byP[p] {
			if s.v.LeqE(f.S, g.S) && s.v.LeqE(f.O, g.O) {
				return true
			}
		}
	}
	return false
}

// Objects returns the objects o such that ⟨s, p, o⟩ is stored, sorted.
// The returned slice is shared; callers must not modify it.
func (s *Store) Objects(subj, pred vocab.TermID) []vocab.TermID {
	return s.bySP[spKey{subj, pred}]
}

// Subjects returns the subjects x such that ⟨x, p, o⟩ is stored, sorted.
func (s *Store) Subjects(pred, obj vocab.TermID) []vocab.TermID {
	return s.byPO[spKey{pred, obj}]
}

// FactsWithPredicate returns all stored facts with the given predicate,
// sorted. The returned slice is shared; callers must not modify it.
func (s *Store) FactsWithPredicate(p vocab.TermID) []Fact { return s.byP[p] }

// Predicates returns the relations that appear in at least one stored fact,
// sorted by ID. On a frozen store the result is a shared index slice; do not
// modify it.
func (s *Store) Predicates() []vocab.TermID {
	if s.frozen {
		return s.predList
	}
	out := make([]vocab.TermID, 0, len(s.byP))
	for p := range s.byP {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AllFacts returns every stored fact as a canonical fact-set.
func (s *Store) AllFacts() FactSet {
	out := make([]Fact, 0, len(s.facts))
	for f := range s.facts {
		out = append(out, f)
	}
	return NewFactSet(out...)
}
