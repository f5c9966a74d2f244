// Package ontology implements facts, fact-sets and the ontology store of
// Section 2 of the OASSIS paper: a fact is a triple ⟨e1, r, e2⟩ over the
// vocabulary, a fact-set is a set of facts, and both carry the semantic
// partial order of Definition 2.5. The ontology itself is a fact-set holding
// "universal truth". A frozen Store keeps it as three sorted permutations
// of its facts, (S, P, O), (O, P, S) and (P, S, O), each with a dense
// offset table indexed by TermID, so the SPARQL substrate can match triple
// patterns with a bound subject, object or predicate through one offset
// read and a short search.
package ontology

import (
	"sort"
	"strings"

	"oassis/internal/vocab"
)

// Any is a pseudo-term standing for the OASSIS-QL wildcard `[]`: the most
// general value, below every term in the order. It may appear in the fact
// positions of meta-fact-sets (e.g. `[] eatAt $z`), making the implied fact
// existential: a transaction implies ⟨Any, eatAt, Maoz⟩ if it contains any
// eatAt-Maoz fact at all.
const Any vocab.TermID = -2

// Fact is a triple ⟨Subject, Predicate, Object⟩ ∈ ℰ × ℛ × ℰ (Definition 2.2).
// Positions may hold Any (see above) when the fact comes from a meta-fact-set
// with wildcards.
type Fact struct {
	S vocab.TermID // subject element
	P vocab.TermID // predicate relation
	O vocab.TermID // object element
}

// Less orders facts lexicographically; it is the canonical fact-set order.
func (f Fact) Less(g Fact) bool {
	if f.S != g.S {
		return f.S < g.S
	}
	if f.P != g.P {
		return f.P < g.P
	}
	return f.O < g.O
}

// String renders a fact using the vocabulary's names in RDF-ish notation.
func (f Fact) String(v *vocab.Vocabulary) string {
	return termName(v, vocab.Element, f.S) + " " +
		termName(v, vocab.Relation, f.P) + " " +
		termName(v, vocab.Element, f.O)
}

func termName(v *vocab.Vocabulary, k vocab.Kind, id vocab.TermID) string {
	if id == Any {
		return "[]"
	}
	if k == vocab.Element {
		return v.ElementName(id)
	}
	return v.RelationName(id)
}

// leqTerm is term order extended with the Any wildcard (Any is below
// everything).
func leqTerm(v *vocab.Vocabulary, k vocab.Kind, a, b vocab.TermID) bool {
	if a == Any {
		return true
	}
	if b == Any {
		return false
	}
	return v.Leq(k, a, b)
}

// LeqFact reports f ≤ f′ under Definition 2.5: subject, predicate and object
// are each more general than (or equal to) their counterpart. The Any
// wildcard is treated as the bottom (most general) term.
func LeqFact(v *vocab.Vocabulary, f, g Fact) bool {
	return leqTerm(v, vocab.Element, f.S, g.S) &&
		leqTerm(v, vocab.Relation, f.P, g.P) &&
		leqTerm(v, vocab.Element, f.O, g.O)
}

// FactSet is a canonical (sorted, deduplicated) set of facts.
type FactSet []Fact

// NewFactSet returns the canonical fact-set holding the given facts.
func NewFactSet(facts ...Fact) FactSet {
	fs := make(FactSet, len(facts))
	copy(fs, facts)
	sort.Slice(fs, func(i, j int) bool { return fs[i].Less(fs[j]) })
	out := fs[:0]
	for i, f := range fs {
		if i == 0 || f != fs[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Contains reports exact membership of f in the set.
func (fs FactSet) Contains(f Fact) bool {
	i := sort.Search(len(fs), func(i int) bool { return !fs[i].Less(f) })
	return i < len(fs) && fs[i] == f
}

// Equal reports exact set equality.
func (fs FactSet) Equal(other FactSet) bool {
	if len(fs) != len(other) {
		return false
	}
	for i := range fs {
		if fs[i] != other[i] {
			return false
		}
	}
	return true
}

// String renders the fact-set with facts joined by ". " as in the paper's
// Table 3.
func (fs FactSet) String(v *vocab.Vocabulary) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.String(v)
	}
	return strings.Join(parts, ". ")
}

// LeqFactSet reports A ≤ B under Definition 2.5: every fact of A is
// generalized-matched by some fact of B.
func LeqFactSet(v *vocab.Vocabulary, a, b FactSet) bool {
	for _, f := range a {
		found := false
		for _, g := range b {
			if LeqFact(v, f, g) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Implies reports whether transaction t (viewed as a fact-set) implies the
// fact-set a, i.e. a ≤ t.
func Implies(v *vocab.Vocabulary, t, a FactSet) bool {
	return LeqFactSet(v, a, t)
}

// Support computes supp(A) = |{T ∈ db | A ≤ T}| / |db| over a personal
// database of transactions (Section 2). It returns 0 for an empty database.
func Support(v *vocab.Vocabulary, db []FactSet, a FactSet) float64 {
	if len(db) == 0 {
		return 0
	}
	n := 0
	for _, t := range db {
		if Implies(v, t, a) {
			n++
		}
	}
	return float64(n) / float64(len(db))
}
