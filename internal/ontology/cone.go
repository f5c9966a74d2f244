package ontology

import (
	"sort"

	"oassis/internal/vocab"
)

// This file implements the candidate-cone memo behind semantic triple
// matching (Definition 2.5). A pattern with a bound subject s can only be
// witnessed by stored facts g with s ≤ℰ g.S, i.e. facts whose subject lies
// in s's descendant cone (likewise for a bound object). Star queries bind
// the same few anchors over and over, so a frozen store collects each small
// cone once — through the (S, P, O) and (O, P, S) runs, sorted into
// (P, S, O) order — and hands the shared slice to every later caller.

// ConeCacheStats is a snapshot of the candidate-cone memo.
type ConeCacheStats struct {
	Cold  int64 // cones built and kept
	Facts int64 // facts held across the kept cones
}

// ConeStats snapshots the candidate-cone memo. Both counters move only when
// a cone is built, never on a memo hit.
func (s *Store) ConeStats() ConeCacheStats {
	return ConeCacheStats{Cold: s.coneCold.Load(), Facts: s.coneFacts.Load()}
}

// coneKey packs (predicate, side, term) into one map key. Term IDs are
// non-negative int32s, so each fits in 31 bits.
func coneKey(pred, term vocab.TermID, object bool) uint64 {
	k := uint64(uint32(pred))<<32 | uint64(uint32(term))<<1
	if object {
		k |= 1
	}
	return k
}

// SemCone returns the stored facts under pred whose subject (object, when
// object is true) has term as a generalization — exactly the g with
// term ≤ℰ g.S (g.O) — in FactsWithPredicate order (Fact.Less), as a shared
// slice callers must not modify. ok is false when term's descendant cone
// holds more than an eighth as many terms as pred has facts: collecting it
// through the point lookups would not beat scanning FactsWithPredicate, so
// the caller should scan. That verdict costs two length reads and is not stored; only
// cones that pass it are built, once, and kept for the store's lifetime.
// Callers must only invoke SemCone on a frozen store.
func (s *Store) SemCone(pred, term vocab.TermID, object bool) (cone []Fact, ok bool) {
	desc := s.v.ElementDescendants(term)
	if len(desc)*8 > len(s.FactsWithPredicate(pred)) {
		return nil, false
	}
	k := coneKey(pred, term, object)
	s.coneMu.RLock()
	cone, ok = s.cones[k]
	s.coneMu.RUnlock()
	if ok {
		return cone, true
	}
	// Build outside the lock; a concurrent builder produces an identical
	// slice, and whichever stores first wins.
	built := s.buildCone(pred, desc, object)
	s.coneMu.Lock()
	defer s.coneMu.Unlock()
	if cone, ok = s.cones[k]; ok {
		return cone, true
	}
	s.cones[k] = built
	s.coneCold.Add(1)
	s.coneFacts.Add(int64(len(built)))
	return built, true
}

// buildCone collects the facts under pred whose subject (or object) is in
// desc, sorted by Fact.Less and capacity-capped.
func (s *Store) buildCone(pred vocab.TermID, desc []vocab.TermID, object bool) []Fact {
	var out []Fact
	for _, d := range desc {
		if object {
			for _, sb := range s.Subjects(pred, d) {
				out = append(out, Fact{S: sb, P: pred, O: d})
			}
		} else {
			for _, ob := range s.Objects(d, pred) {
				out = append(out, Fact{S: d, P: pred, O: ob})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out[:len(out):len(out)]
}
