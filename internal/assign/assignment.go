// Package assign implements variable assignments and the semantic partial
// order over them (Definition 4.1 of the OASSIS paper), the lazy generation
// of the assignment DAG (Section 5) — including assignments with
// multiplicities (Proposition 5.1), the generalization expansion of 𝒜valid
// (Algorithm 1, line 1) and MORE-fact extensions — and the border-based
// classification scheme that realizes the inference of Observation 4.4.
package assign

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// Assignment maps the SATISFYING variables to sets of vocabulary terms
// (multiplicities make the sets non-singleton) and optionally carries MORE
// facts. Assignments are immutable once built; all derivation goes through
// the Space.
//
// Values are kept in canonical antichain form: a value that is a
// generalization of another value of the same variable is dropped, because
// the two assignments are equivalent under the order of Definition 4.1 (and
// yield fact-sets with identical support). Internally the variable sets are
// parallel slices sorted by name, which keeps the hot Leq comparison free of
// map iteration.
type Assignment struct {
	names []string
	kinds []vocab.Kind
	vals  [][]vocab.TermID
	more  ontology.FactSet
	// id is the dense per-space identity assigned by the interner
	// (noID until interned). Hot paths key on it instead of the string.
	id NodeID
	// key caches the canonical display string, built lazily on first
	// Key() call. atomic so concurrent readers may race to compute it:
	// the computation is deterministic, so any winner is correct.
	key atomic.Pointer[string]
}

// New builds a canonical assignment. vals maps variable names to term sets;
// the map and slices are copied. kinds gives each variable's namespace (for
// antichain reduction); more is the optional MORE fact-set.
func New(v *vocab.Vocabulary, kinds map[string]vocab.Kind, vals map[string][]vocab.TermID, more ontology.FactSet) *Assignment {
	a := &Assignment{}
	a.names = make([]string, 0, len(vals))
	for name := range vals {
		a.names = append(a.names, name)
	}
	sort.Strings(a.names)
	a.kinds = make([]vocab.Kind, len(a.names))
	a.vals = make([][]vocab.TermID, len(a.names))
	for i, name := range a.names {
		a.kinds[i] = kinds[name]
		a.vals[i] = canonicalSet(v, kinds[name], vals[name])
	}
	a.more = canonicalMore(v, more)
	a.id = noID
	return a
}

// canonicalSet sorts, dedupes and reduces a value set to its maximal
// (most specific) elements.
func canonicalSet(v *vocab.Vocabulary, k vocab.Kind, set []vocab.TermID) []vocab.TermID {
	if len(set) == 0 {
		return nil
	}
	s := make([]vocab.TermID, len(set))
	copy(s, set)
	slices.Sort(s)
	// dedupe
	uniq := s[:0]
	for i, x := range s {
		if i == 0 || x != s[i-1] {
			uniq = append(uniq, x)
		}
	}
	s = uniq
	// keep only maximal elements: drop x if x ≤ y for some other y
	out := s[:0]
	for i, x := range s {
		dominated := false
		for j, y := range s {
			if i != j && v.Leq(k, x, y) && x != y {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, x)
		}
	}
	res := make([]vocab.TermID, len(out))
	copy(res, out)
	return res
}

// canonicalMore reduces a MORE fact-set to its maximal facts.
func canonicalMore(v *vocab.Vocabulary, more ontology.FactSet) ontology.FactSet {
	if len(more) == 0 {
		return nil
	}
	fs := ontology.NewFactSet(more...)
	var out []ontology.Fact
	for i, f := range fs {
		dominated := false
		for j, g := range fs {
			if i != j && f != g && ontology.LeqFact(v, f, g) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, f)
		}
	}
	return ontology.NewFactSet(out...)
}

func computeKey(a *Assignment) string {
	var sb strings.Builder
	for i, n := range a.names {
		sb.WriteString(n)
		sb.WriteByte('=')
		for j, id := range a.vals[i] {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(id)))
		}
		sb.WriteByte(';')
	}
	if len(a.more) > 0 {
		sb.WriteString("m:")
		for i, f := range a.more {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(int(f.S)))
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(int(f.P)))
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(int(f.O)))
		}
	}
	return sb.String()
}

// Key is a canonical identity string: two assignments are equivalent under
// the order iff their keys are equal. It is computed lazily — hot paths
// compare interned pointers or NodeIDs and never materialize the string.
func (a *Assignment) Key() string {
	if p := a.key.Load(); p != nil {
		return *p
	}
	k := computeKey(a)
	a.key.Store(&k)
	return k
}

// index returns the position of a variable name, or -1.
func (a *Assignment) index(name string) int {
	lo, hi := 0, len(a.names)
	for lo < hi {
		mid := (lo + hi) / 2
		if a.names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.names) && a.names[lo] == name {
		return lo
	}
	return -1
}

// Values returns the value set of a variable (shared slice; do not modify).
func (a *Assignment) Values(name string) []vocab.TermID {
	if i := a.index(name); i >= 0 {
		return a.vals[i]
	}
	return nil
}

// More returns the MORE fact-set (shared; do not modify).
func (a *Assignment) More() ontology.FactSet { return a.more }

// Vars returns the variable names with a non-empty value set, sorted.
func (a *Assignment) Vars() []string {
	names := make([]string, 0, len(a.names))
	for i, n := range a.names {
		if len(a.vals[i]) > 0 {
			names = append(names, n)
		}
	}
	return names
}

// Size returns the total number of values across variables plus MORE facts;
// it is a convenient coarse progress measure.
func (a *Assignment) Size() int {
	n := len(a.more)
	for _, s := range a.vals {
		n += len(s)
	}
	return n
}

// Leq reports a ≤ b under Definition 4.1, extended to MORE facts: for every
// variable x and value v ∈ a(x) there must be v′ ∈ b(x) with v ≤ v′, and for
// every MORE fact f ∈ a there must be f′ ∈ b with f ≤ f′. Each variable's
// namespace is read from the assignments themselves.
func Leq(v *vocab.Vocabulary, a, b *Assignment) bool {
	bi := 0
	for ai, name := range a.names {
		avals := a.vals[ai]
		if len(avals) == 0 {
			continue
		}
		// Advance b's cursor to the same variable (both sorted).
		for bi < len(b.names) && b.names[bi] < name {
			bi++
		}
		// The sorted-cursor advance above either landed on the variable
		// or proved b does not bind it (bvals stays nil, so any value of
		// a's non-empty set fails the cover check below).
		var bvals []vocab.TermID
		if bi < len(b.names) && b.names[bi] == name {
			bvals = b.vals[bi]
		}
		k := a.kinds[ai]
		for _, av := range avals {
			ok := false
			for _, bv := range bvals {
				if v.Leq(k, av, bv) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	for _, f := range a.more {
		ok := false
		for _, g := range b.more {
			if ontology.LeqFact(v, f, g) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// String renders the assignment with vocabulary names, e.g.
// "x→{Central Park}, y→{Biking, Ball Game}".
func (a *Assignment) String(v *vocab.Vocabulary, kinds map[string]vocab.Kind) string {
	var sb strings.Builder
	first := true
	for i, n := range a.names {
		if len(a.vals[i]) == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		sb.WriteString(n)
		sb.WriteString("→{")
		for j, id := range a.vals[i] {
			if j > 0 {
				sb.WriteString(", ")
			}
			if a.kinds[i] == vocab.Relation {
				sb.WriteString(v.RelationName(id))
			} else {
				sb.WriteString(v.ElementName(id))
			}
		}
		sb.WriteString("}")
	}
	if len(a.more) > 0 {
		sb.WriteString(" +more{")
		sb.WriteString(a.more.String(v))
		sb.WriteString("}")
	}
	_ = kinds
	return sb.String()
}
