package ontology

import (
	"slices"
	"sort"

	"oassis/internal/vocab"
)

// This file implements the per-predicate transitive-closure indexes behind
// zero-or-more property paths (`subClassOf*`) and the reachability checks of
// the WHERE stage. The paper's prototype (like the seed evaluator here)
// recomputed a BFS closure on every pattern match; a frozen store instead
// memoizes, per predicate, the full forward/backward reachability relation
// once and answers every later query with a slice lookup. The memo is built
// lazily — a store pays for a predicate's closure only if some query walks a
// path over it — and is concurrency-safe, so evaluators running on different
// goroutines share one computation.

// Edge is one (subject, object) pair of a predicate's zero-or-more-step
// reachability relation: O is reachable from S by following pred edges.
type Edge struct{ S, O vocab.TermID }

// pathClosure is the reachability index of a single predicate.
type pathClosure struct {
	// fwd[s] lists everything reachable from s (including s itself),
	// sorted by ID. Nodes without an outgoing pred edge are absent: their
	// closure is exactly {self}.
	fwd map[vocab.TermID][]vocab.TermID
	// bwd[o] lists everything that reaches o (including o itself), sorted.
	bwd map[vocab.TermID][]vocab.TermID
	// pairs is the full relation over mentioned nodes: every (s, t) with t
	// in fwd(s), plus the zero-length (o, o) pairs of pure objects. Sorted
	// by (S, O) and duplicate-free.
	pairs []Edge
	// nodes counts the distinct terms mentioned by the predicate's facts.
	nodes int
}

// closureOf returns the memoized closure index for pred, building it on
// first use. The fact-set is immutable once frozen, so the memo can never
// go stale; an unfrozen store reads as empty and memoizes nothing.
func (s *Store) closureOf(pred vocab.TermID) *pathClosure {
	if !s.frozen {
		return &pathClosure{}
	}
	s.closeMu.RLock()
	c := s.closures[pred]
	s.closeMu.RUnlock()
	if c != nil {
		s.closureWarm.Add(1)
		return c
	}
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if c = s.closures[pred]; c != nil {
		s.closureWarm.Add(1)
		return c
	}
	s.closureCold.Add(1)
	c = s.buildClosure(pred)
	s.closures[pred] = c
	return c
}

// buildClosure computes the reachability index of one predicate, walking
// its edges through the (S, P, O) and (O, P, S) runs. Cycles are tolerated
// (the walk is a seen-set BFS).
func (s *Store) buildClosure(pred vocab.TermID) *pathClosure {
	next := func(x vocab.TermID) []vocab.TermID { return s.Objects(x, pred) }
	prev := func(x vocab.TermID) []vocab.TermID { return s.Subjects(pred, x) }
	c := &pathClosure{
		fwd: make(map[vocab.TermID][]vocab.TermID),
		bwd: make(map[vocab.TermID][]vocab.TermID),
	}
	facts := s.FactsWithPredicate(pred) // sorted by subject
	for i, f := range facts {
		if i == 0 || f.S != facts[i-1].S {
			l := reachSet(f.S, next)
			c.fwd[f.S] = l
			for _, t := range l {
				c.pairs = append(c.pairs, Edge{S: f.S, O: t})
			}
		}
		if _, ok := c.bwd[f.O]; !ok {
			c.bwd[f.O] = reachSet(f.O, prev)
		}
	}
	c.nodes = len(c.fwd)
	for obj := range c.bwd {
		if _, isSubj := c.fwd[obj]; !isSubj {
			c.pairs = append(c.pairs, Edge{S: obj, O: obj})
			c.nodes++
		}
	}
	sort.Slice(c.pairs, func(i, j int) bool {
		if c.pairs[i].S != c.pairs[j].S {
			return c.pairs[i].S < c.pairs[j].S
		}
		return c.pairs[i].O < c.pairs[j].O
	})
	return c
}

// reachSet returns start plus everything reachable from it over next, sorted.
func reachSet(start vocab.TermID, next func(vocab.TermID) []vocab.TermID) []vocab.TermID {
	seen := map[vocab.TermID]bool{start: true}
	stack := []vocab.TermID{start}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range next(x) {
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	out := make([]vocab.TermID, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// ForwardClosure returns subj plus everything reachable from it by zero or
// more pred edges, sorted by ID — or nil when subj has no outgoing pred edge
// (the closure is then exactly {subj}). The result is a shared index slice;
// callers must not modify it.
func (s *Store) ForwardClosure(subj, pred vocab.TermID) []vocab.TermID {
	return s.closureOf(pred).fwd[subj]
}

// BackwardClosure returns obj plus everything that reaches it by zero or
// more pred edges, sorted by ID — or nil when obj has no incoming pred edge.
// The result is a shared index slice; do not modify.
func (s *Store) BackwardClosure(obj, pred vocab.TermID) []vocab.TermID {
	return s.closureOf(pred).bwd[obj]
}

// Reaches reports a path of zero or more pred edges from subj to obj. When
// the predicate's closure index is already built this is a binary search;
// otherwise it runs an early-exit BFS over the (S, P, O) runs that stops the
// moment obj is found, without materializing (or memoizing) the full
// closure.
func (s *Store) Reaches(subj, pred, obj vocab.TermID) bool {
	if subj == obj {
		return true // zero-length path
	}
	s.closeMu.RLock()
	c := s.closures[pred]
	s.closeMu.RUnlock()
	if c != nil {
		s.closureWarm.Add(1)
		_, ok := slices.BinarySearch(c.fwd[subj], obj)
		return ok
	}
	seen := map[vocab.TermID]bool{subj: true}
	stack := []vocab.TermID{subj}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, n := range s.Objects(x, pred) {
			if n == obj {
				return true
			}
			if !seen[n] {
				seen[n] = true
				stack = append(stack, n)
			}
		}
	}
	return false
}

// ClosurePairs returns every (s, o) pair with o reachable from s by zero or
// more pred edges, over the nodes the predicate's facts mention: pure
// objects contribute their zero-length pair, subjects their full forward
// closure. Sorted by (S, O), duplicate-free. The result is a shared index
// slice; do not modify.
func (s *Store) ClosurePairs(pred vocab.TermID) []Edge {
	return s.closureOf(pred).pairs
}

// StarStats returns the size of the predicate's reachability relation and
// the number of nodes its facts mention — the selectivity statistics the
// query planner uses to order `p*` patterns.
func (s *Store) StarStats(pred vocab.TermID) (pairs, nodes int) {
	c := s.closureOf(pred)
	return len(c.pairs), c.nodes
}
