// Package sparql implements the SPARQL subset that OASSIS-QL's WHERE clause
// is built on (Section 3 of the paper): basic graph pattern matching over
// the ontology store with variables, the `[]` wildcard, string-literal
// objects (label filters) and zero-or-more property paths such as
// `subClassOf*`.
//
// The evaluator has two modes. In the default Exact mode a pattern fact must
// match a stored triple exactly, which is what the paper's prototype (built
// on RDFLIB) does and what Figure 3 reflects — generalizations of valid
// assignments are *not* themselves valid. In Semantic mode a pattern fact
// matches whenever the ontology semantically implies it per Definition 2.5
// (𝜙(A_WHERE) ≤ 𝒪, the paper's formal validity definition).
package sparql

import (
	"fmt"
	"strings"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// TermKind says how a pattern position is specified.
type TermKind uint8

const (
	// Const is a fixed vocabulary term.
	Const TermKind = iota
	// Var is a named variable ($x).
	Var
	// Wildcard is the `[]` anything-marker: it must match something, but
	// the matched value is not recorded.
	Wildcard
	// Literal is a quoted string (only valid in object position).
	Literal
)

// Term is one position of a triple pattern.
type Term struct {
	Kind TermKind
	ID   vocab.TermID // Const
	Name string       // Var: variable name without the $ sign
	Lit  string       // Literal
}

// ConstTerm builds a constant term.
func ConstTerm(id vocab.TermID) Term { return Term{Kind: Const, ID: id} }

// VarTerm builds a variable term.
func VarTerm(name string) Term { return Term{Kind: Var, Name: name} }

// WildcardTerm builds the `[]` term.
func WildcardTerm() Term { return Term{Kind: Wildcard} }

// LiteralTerm builds a string-literal term.
func LiteralTerm(s string) Term { return Term{Kind: Literal, Lit: s} }

// Pattern is one triple pattern of a basic graph pattern. Star marks a
// zero-or-more property path on a constant predicate (`subClassOf*`).
type Pattern struct {
	S    Term
	P    Term
	O    Term
	Star bool
}

// String renders the pattern for error messages and query printing.
func (p Pattern) String(v *vocab.Vocabulary) string {
	star := ""
	if p.Star {
		star = "*"
	}
	return termString(v, vocab.Element, p.S) + " " +
		termString(v, vocab.Relation, p.P) + star + " " +
		termString(v, vocab.Element, p.O)
}

func termString(v *vocab.Vocabulary, k vocab.Kind, t Term) string {
	switch t.Kind {
	case Const:
		var n string
		if k == vocab.Element {
			n = v.ElementName(t.ID)
		} else {
			n = v.RelationName(t.ID)
		}
		if strings.ContainsAny(n, " \t") {
			return `"` + n + `"`
		}
		return n
	case Var:
		return "$" + t.Name
	case Wildcard:
		return "[]"
	case Literal:
		return `"` + t.Lit + `"`
	}
	return "?"
}

// BGP is a basic graph pattern: a conjunction of triple patterns.
type BGP []Pattern

// Evaluator matches BGPs against an ontology store.
type Evaluator struct {
	store *ontology.Store
	v     *vocab.Vocabulary
	// Semantic switches validity from exact triple matching to the
	// implication semantics of Definition 2.5.
	Semantic bool
	// Metrics, when set, times Compile calls and enables per-operator
	// cardinality accounting on every plan this evaluator compiles
	// (see Plan.Observe). Nil costs nothing.
	Metrics *obs.PlanMetrics
	// Cache, when set, memoizes compiled plans by normalized query shape:
	// Compile consults it first and a hit skips compilation entirely.
	// Wire the store-shared instance with UseSharedCache. Nil disables
	// caching.
	Cache *PlanCache
}

// NewEvaluator returns an evaluator over the store.
func NewEvaluator(s *ontology.Store) *Evaluator {
	return &Evaluator{store: s, v: s.Vocabulary()}
}

// CheckVarKinds returns an error if a variable is used in both element and
// relation position: it compares each variable use with the variable's
// first use.
func CheckVarKinds(bgp BGP) error {
	for _, p := range bgp {
		for i := 0; i < 3; i++ {
			name, k, ok := p.varAt(i)
			if !ok {
				continue
			}
			if first, _ := VarKind(bgp, name); first != k {
				return fmt.Errorf("sparql: variable $%s used as both element and relation", name)
			}
		}
	}
	return nil
}

// VarKind returns the namespace of the variable's first use in the BGP, and
// whether the BGP uses it at all.
func VarKind(bgp BGP, name string) (vocab.Kind, bool) {
	for _, p := range bgp {
		for i := 0; i < 3; i++ {
			if n, k, ok := p.varAt(i); ok && n == name {
				return k, true
			}
		}
	}
	return 0, false
}

// varAt returns the variable at position i (0 subject, 1 predicate, 2
// object) and the namespace the position implies; ok is false when the
// position holds no variable.
func (p Pattern) varAt(i int) (name string, k vocab.Kind, ok bool) {
	t, k := p.S, vocab.Element
	switch i {
	case 1:
		t, k = p.P, vocab.Relation
	case 2:
		t = p.O
	}
	return t.Name, k, t.Kind == Var
}

// validate rejects BGPs outside the supported subset.
func (e *Evaluator) validate(bgp BGP) error {
	if err := CheckVarKinds(bgp); err != nil {
		return err
	}
	for _, p := range bgp {
		if p.S.Kind == Literal || p.P.Kind == Literal {
			return fmt.Errorf("sparql: literal only allowed in object position: %s", p.String(e.v))
		}
		if p.P.Kind == Wildcard {
			return fmt.Errorf("sparql: wildcard predicate not supported in WHERE: %s", p.String(e.v))
		}
		if p.Star && p.P.Kind != Const {
			return fmt.Errorf("sparql: path star requires a constant predicate: %s", p.String(e.v))
		}
		if p.O.Kind == Literal && !p.Star && p.P.Kind == Const &&
			e.v.RelationName(p.P.ID) != ontology.RelHasLabel {
			return fmt.Errorf("sparql: literal object requires %s: %s", ontology.RelHasLabel, p.String(e.v))
		}
	}
	return nil
}
