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
	"sort"
	"strings"
	"sync/atomic"

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

// Binding maps variable names to vocabulary terms. Variables bound in
// predicate position hold relation IDs; all others hold element IDs.
type Binding map[string]vocab.TermID

// clone copies a binding.
func (b Binding) clone() Binding {
	c := make(Binding, len(b))
	for k, v := range b {
		c[k] = v
	}
	return c
}

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
	// lastHit backs LastCompileCacheHit. It is atomic because concurrent
	// Eval calls on one evaluator each record their compile's outcome.
	lastHit atomic.Bool
}

// LastCompileCacheHit reports whether the most recent Compile through a
// Cache was served from it (false after a miss or when no cache is wired).
// Per-evaluator, so fleet workers — one evaluator each — can attribute
// per-execution cache behaviour without a metrics registry. With several
// goroutines compiling through one evaluator, "most recent" is whichever
// Compile stored last.
func (e *Evaluator) LastCompileCacheHit() bool { return e.lastHit.Load() }

// NewEvaluator returns an evaluator over the store.
func NewEvaluator(s *ontology.Store) *Evaluator {
	return &Evaluator{store: s, v: s.Vocabulary()}
}

// VarKinds returns the namespace of each variable in the BGP, or an error if
// a variable is used in both element and relation position.
func VarKinds(bgp BGP) (map[string]vocab.Kind, error) {
	kinds := make(map[string]vocab.Kind)
	for _, p := range bgp {
		for i := 0; i < 3; i++ {
			name, k, ok := p.varAt(i)
			if !ok {
				continue
			}
			if prev, seen := kinds[name]; seen && prev != k {
				return nil, fmt.Errorf("sparql: variable $%s used as both element and relation", name)
			}
			kinds[name] = k
		}
	}
	return kinds, nil
}

// CheckVarKinds returns the error VarKinds would, for callers that need no
// map: it compares each variable use with the variable's first use.
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

// Eval returns every binding of the BGP's variables that matches the store,
// in a deterministic order. Wildcard positions must match something but do
// not bind. An empty BGP yields one empty binding.
//
// Eval is a thin wrapper over the compiled plan pipeline (Compile + Plan.Eval,
// see plan.go); callers that evaluate the same BGP repeatedly or want
// row-oriented results should compile once and hold the Plan.
func (e *Evaluator) Eval(bgp BGP) ([]Binding, error) {
	pl, err := e.Compile(bgp)
	if err != nil {
		return nil, err
	}
	return pl.Eval().Bindings(), nil
}

// evalInterpreted is the seed's recursive map-based matcher, kept as a
// reference implementation: the differential tests and BenchmarkWhereEval
// pin the compiled plan against it.
func (e *Evaluator) evalInterpreted(bgp BGP) ([]Binding, error) {
	if err := e.validate(bgp); err != nil {
		return nil, err
	}
	var out []Binding
	e.match(orderPatterns(bgp), Binding{}, &out)
	sortBindings(out)
	return dedupeBindings(out), nil
}

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

// orderPatterns sorts patterns most-selective-first: constants and literals
// score higher than variables. A simple static heuristic is enough because
// the recursive matcher re-binds as it goes.
func orderPatterns(bgp BGP) BGP {
	scored := make(BGP, len(bgp))
	copy(scored, bgp)
	score := func(p Pattern) int {
		s := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.Kind == Const || t.Kind == Literal {
				s++
			}
		}
		return s
	}
	sort.SliceStable(scored, func(i, j int) bool { return score(scored[i]) > score(scored[j]) })
	return scored
}

func (e *Evaluator) match(patterns BGP, b Binding, out *[]Binding) {
	if len(patterns) == 0 {
		*out = append(*out, b.clone())
		return
	}
	// Pick the pattern with the most positions bound under the current
	// binding; this keeps intermediate result sets small.
	best, bestScore := 0, -1
	for i, p := range patterns {
		s := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			switch t.Kind {
			case Const, Literal:
				s += 2
			case Var:
				if _, ok := b[t.Name]; ok {
					s += 2
				}
			}
		}
		if s > bestScore {
			best, bestScore = i, s
		}
	}
	p := patterns[best]
	rest := make(BGP, 0, len(patterns)-1)
	rest = append(rest, patterns[:best]...)
	rest = append(rest, patterns[best+1:]...)

	e.matchPattern(p, b, func(nb Binding) {
		e.match(rest, nb, out)
	})
}

// resolve returns the concrete term a pattern position denotes under the
// binding, or ok=false if it is still free.
func resolve(t Term, b Binding) (vocab.TermID, bool) {
	switch t.Kind {
	case Const:
		return t.ID, true
	case Var:
		id, ok := b[t.Name]
		return id, ok
	}
	return 0, false
}

// bind extends the binding for a var term; wildcard and resolved terms pass
// through. It reports false when the term is a var already bound to a
// different value.
func bind(t Term, id vocab.TermID, b Binding) (Binding, bool) {
	if t.Kind != Var {
		return b, true
	}
	if prev, ok := b[t.Name]; ok {
		return b, prev == id
	}
	nb := b.clone()
	nb[t.Name] = id
	return nb, true
}

// matchPattern enumerates all extensions of b that satisfy p, invoking k for
// each.
func (e *Evaluator) matchPattern(p Pattern, b Binding, k func(Binding)) {
	if p.O.Kind == Literal {
		e.matchLabel(p, b, k)
		return
	}
	if p.Star {
		e.matchStar(p, b, k)
		return
	}
	e.matchTriple(p, b, k)
}

func (e *Evaluator) matchLabel(p Pattern, b Binding, k func(Binding)) {
	if s, ok := resolve(p.S, b); ok {
		if e.store.HasLabel(s, p.O.Lit) {
			k(b)
		}
		return
	}
	for _, s := range e.store.LabeledElements(p.O.Lit) {
		if nb, ok := bind(p.S, s, b); ok {
			k(nb)
		}
	}
}

// matchStar matches `S p* O`: O is reachable from S by zero or more p-edges
// over the stored triples.
func (e *Evaluator) matchStar(p Pattern, b Binding, k func(Binding)) {
	pred := p.P.ID
	s, sOK := resolve(p.S, b)
	o, oOK := resolve(p.O, b)
	switch {
	case sOK && oOK:
		if e.reaches(s, pred, o) {
			k(b)
		}
	case sOK:
		for _, t := range e.forwardClosure(s, pred) {
			if nb, ok := bind(p.O, t, b); ok {
				k(nb)
			}
		}
	case oOK:
		for _, t := range e.backwardClosure(o, pred) {
			if nb, ok := bind(p.S, t, b); ok {
				k(nb)
			}
		}
	default:
		// Both free: the store's precomputed reachability relation already
		// holds every (subject-closure ∪ zero-length) pair, sorted and
		// duplicate-free — no per-call dedup map needed.
		for _, edge := range e.store.ClosurePairs(pred) {
			if nb, ok := bind(p.S, edge.S, b); ok {
				if nb2, ok := bind(p.O, edge.O, nb); ok {
					k(nb2)
				}
			}
		}
	}
}

// reaches reports a path of zero or more pred-edges from s to o. The store
// either answers from its closure index or runs an early-exit BFS; the full
// closure is never materialized just to probe one target.
func (e *Evaluator) reaches(s, pred, o vocab.TermID) bool {
	return e.store.Reaches(s, pred, o)
}

// forwardClosure returns s plus everything reachable from s via pred edges,
// sorted, backed by the store's memoized closure index.
func (e *Evaluator) forwardClosure(s, pred vocab.TermID) []vocab.TermID {
	if l := e.store.ForwardClosure(s, pred); l != nil {
		return l
	}
	return []vocab.TermID{s}
}

// backwardClosure returns o plus everything that reaches o via pred edges.
func (e *Evaluator) backwardClosure(o, pred vocab.TermID) []vocab.TermID {
	if l := e.store.BackwardClosure(o, pred); l != nil {
		return l
	}
	return []vocab.TermID{o}
}

// matchTriple matches a plain triple pattern.
func (e *Evaluator) matchTriple(p Pattern, b Binding, k func(Binding)) {
	preds := e.candidatePredicates(p, b)
	for _, pred := range preds {
		e.matchTripleWithPred(p, pred, b, k)
	}
}

func (e *Evaluator) candidatePredicates(p Pattern, b Binding) []vocab.TermID {
	if id, ok := resolve(p.P, b); ok {
		if e.Semantic {
			// A pattern predicate q matches any stored predicate
			// q' with q ≤ q'.
			var out []vocab.TermID
			for _, sp := range e.store.Predicates() {
				if e.v.LeqR(id, sp) {
					out = append(out, sp)
				}
			}
			return out
		}
		return []vocab.TermID{id}
	}
	return e.store.Predicates()
}

// matchTripleWithPred matches the pattern against facts stored under a
// concrete predicate. In semantic mode the subject/object of a matching
// stored fact may be specializations of the pattern's terms, so free
// variables additionally range over generalizations of the stored values.
func (e *Evaluator) matchTripleWithPred(p Pattern, pred vocab.TermID, b Binding, k func(Binding)) {
	// Bind the predicate variable if present. In semantic mode the
	// variable binds to the pattern-side value, which is the stored
	// predicate itself here (enumerated by candidatePredicates).
	b, ok := bind(p.P, pred, b)
	if !ok {
		return
	}
	s, sOK := resolve(p.S, b)
	o, oOK := resolve(p.O, b)
	if !e.Semantic {
		switch {
		case sOK && oOK:
			if e.store.Has(ontology.Fact{S: s, P: pred, O: o}) {
				k(b)
			}
		case sOK:
			for _, obj := range e.store.Objects(s, pred) {
				if nb, ok := bind(p.O, obj, b); ok {
					k(nb)
				}
			}
		case oOK:
			for _, subj := range e.store.Subjects(pred, o) {
				if nb, ok := bind(p.S, subj, b); ok {
					k(nb)
				}
			}
		default:
			for _, f := range e.store.FactsWithPredicate(pred) {
				if nb, ok := bind(p.S, f.S, b); ok {
					if nb2, ok := bind(p.O, f.O, nb); ok {
						k(nb2)
					}
				}
			}
		}
		return
	}
	// Semantic mode: a stored fact g witnesses pattern fact f when f ≤ g.
	for _, g := range e.store.FactsWithPredicate(pred) {
		if sOK && !e.v.LeqE(s, g.S) {
			continue
		}
		if oOK && !e.v.LeqE(o, g.O) {
			continue
		}
		subjects := []vocab.TermID{g.S}
		if !sOK && p.S.Kind == Var {
			subjects = append(e.v.ElementAncestors(g.S), g.S)
		}
		objects := []vocab.TermID{g.O}
		if !oOK && p.O.Kind == Var {
			objects = append(e.v.ElementAncestors(g.O), g.O)
		}
		for _, sv := range subjects {
			nb, ok := bind(p.S, sv, b)
			if !ok {
				continue
			}
			for _, ov := range objects {
				if nb2, ok := bind(p.O, ov, nb); ok {
					k(nb2)
				}
			}
		}
	}
}

// sortBindings orders bindings deterministically by their sorted
// (name, value) pairs.
func sortBindings(bs []Binding) {
	sort.Slice(bs, func(i, j int) bool {
		return bindingKey(bs[i]) < bindingKey(bs[j])
	})
}

func dedupeBindings(bs []Binding) []Binding {
	out := bs[:0]
	prev := ""
	for i, b := range bs {
		k := bindingKey(b)
		if i == 0 || k != prev {
			out = append(out, b)
		}
		prev = k
	}
	return out
}

func bindingKey(b Binding) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sb, "%s=%d;", n, b[n])
	}
	return sb.String()
}
