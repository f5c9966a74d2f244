package sparql_test

// Differential test for the compiled WHERE stage: a naive reference
// evaluator — pattern-by-pattern filtering over Store.AllFacts, no indexes,
// no planning — is pinned equal to the distinct rows of the plan's full
// Stream, on randomized stores and BGPs in both Exact and Semantic modes.
// Same precedent as vocab's leq_ref_test.go.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// Binding maps variable names to vocabulary terms: the map form refEvaluator
// and the hand-written cases read solutions in. Variables bound in
// predicate position hold relation IDs; all others hold element IDs.
type Binding map[string]vocab.TermID

// refEvaluator is the executable specification of the WHERE semantics.
type refEvaluator struct {
	v        *vocab.Vocabulary
	store    *ontology.Store
	facts    ontology.FactSet
	semantic bool
}

func newRefEvaluator(s *ontology.Store, semantic bool) *refEvaluator {
	return &refEvaluator{v: s.Vocabulary(), store: s, facts: s.AllFacts(), semantic: semantic}
}

func cloneBinding(b Binding) Binding {
	c := make(Binding, len(b)+1)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// bindVal extends b so that term t denotes val: constants and wildcards pass
// through unchanged, a bound variable requires equality, a free variable
// binds (in a fresh copy).
func bindVal(t sparql.Term, val vocab.TermID, b Binding) (Binding, bool) {
	if t.Kind != sparql.Var {
		return b, true
	}
	if prev, ok := b[t.Name]; ok {
		return b, prev == val
	}
	nb := cloneBinding(b)
	nb[t.Name] = val
	return nb, true
}

func (r *refEvaluator) eval(bgp sparql.BGP) []Binding {
	sols := []Binding{{}}
	// The WHERE semantics are order-sensitive for unanchored stars and
	// semantic triples, so the reference defines the order the same way the
	// seed evaluator did: statically most-constants-first (stable), then
	// dynamically most-bound-positions-first.
	for _, pi := range refOrder(bgp) {
		p := bgp[pi]
		var next []Binding
		for _, b := range sols {
			next = append(next, r.matchOne(p, b)...)
		}
		sols = next
	}
	sort.Slice(sols, func(i, j int) bool { return refKey(sols[i]) < refKey(sols[j]) })
	out := sols[:0]
	prev := ""
	for i, b := range sols {
		if k := refKey(b); i == 0 || k != prev {
			out = append(out, b)
			prev = k
		} else {
			prev = k
		}
	}
	return out
}

// refOrder replays the seed evaluator's pattern selection order.
func refOrder(bgp sparql.BGP) []int {
	static := func(p sparql.Pattern) int {
		s := 0
		for _, t := range []sparql.Term{p.S, p.P, p.O} {
			if t.Kind == sparql.Const || t.Kind == sparql.Literal {
				s++
			}
		}
		return s
	}
	idx := make([]int, len(bgp))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return static(bgp[idx[i]]) > static(bgp[idx[j]]) })
	bound := map[string]bool{}
	order := make([]int, 0, len(idx))
	for len(idx) > 0 {
		best, bestScore := 0, -1
		for i, pi := range idx {
			s := 0
			for _, t := range []sparql.Term{bgp[pi].S, bgp[pi].P, bgp[pi].O} {
				switch t.Kind {
				case sparql.Const, sparql.Literal:
					s += 2
				case sparql.Var:
					if bound[t.Name] {
						s += 2
					}
				}
			}
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		pi := idx[best]
		idx = append(idx[:best], idx[best+1:]...)
		order = append(order, pi)
		for _, t := range []sparql.Term{bgp[pi].S, bgp[pi].P, bgp[pi].O} {
			if t.Kind == sparql.Var {
				bound[t.Name] = true
			}
		}
	}
	return order
}

// refKey mirrors the legacy binding key layout ("name=id;"...).
func refKey(b Binding) string {
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

func (r *refEvaluator) matchOne(p sparql.Pattern, b Binding) []Binding {
	switch {
	case p.O.Kind == sparql.Literal:
		return r.matchLabel(p, b)
	case p.Star:
		return r.matchStar(p, b)
	case r.semantic:
		return r.matchSemantic(p, b)
	}
	return r.matchExact(p, b)
}

func (r *refEvaluator) matchLabel(p sparql.Pattern, b Binding) []Binding {
	if p.S.Kind == sparql.Const {
		if r.store.HasLabel(p.S.ID, p.O.Lit) {
			return []Binding{b}
		}
		return nil
	}
	if p.S.Kind == sparql.Var {
		if sv, ok := b[p.S.Name]; ok {
			if r.store.HasLabel(sv, p.O.Lit) {
				return []Binding{b}
			}
			return nil
		}
	}
	var out []Binding
	for _, e := range r.store.LabeledElements(p.O.Lit) {
		if nb, ok := bindVal(p.S, e, b); ok {
			out = append(out, nb)
		}
	}
	return out
}

func (r *refEvaluator) matchExact(p sparql.Pattern, b Binding) []Binding {
	var out []Binding
	for _, f := range r.facts {
		bp, ok := bindVal(p.P, f.P, b)
		if !ok || (p.P.Kind == sparql.Const && p.P.ID != f.P) {
			continue
		}
		bs, ok := bindVal(p.S, f.S, bp)
		if !ok || (p.S.Kind == sparql.Const && p.S.ID != f.S) {
			continue
		}
		bo, ok := bindVal(p.O, f.O, bs)
		if !ok || (p.O.Kind == sparql.Const && p.O.ID != f.O) {
			continue
		}
		out = append(out, bo)
	}
	return out
}

// matchSemantic: a stored fact g witnesses the pattern fact f when f ≤ g
// (Definition 2.5); free variables additionally range over generalizations
// of the stored values. Bound variables require exact equality with the
// stored value — the behaviour the interpreted evaluator has always had.
func (r *refEvaluator) matchSemantic(p sparql.Pattern, b Binding) []Binding {
	var out []Binding
	for _, g := range r.facts {
		if p.P.Kind == sparql.Const && !r.v.LeqR(p.P.ID, g.P) {
			continue
		}
		bp, ok := bindVal(p.P, g.P, b)
		if !ok {
			continue
		}
		if p.S.Kind == sparql.Const && !r.v.LeqE(p.S.ID, g.S) {
			continue
		}
		if p.O.Kind == sparql.Const && !r.v.LeqE(p.O.ID, g.O) {
			continue
		}
		_, sBound := b[p.S.Name]
		subjects := []vocab.TermID{g.S}
		if p.S.Kind == sparql.Var && !sBound {
			subjects = append(r.v.ElementAncestors(g.S), g.S)
		}
		_, oBound := b[p.O.Name]
		objects := []vocab.TermID{g.O}
		if p.O.Kind == sparql.Var && !oBound {
			objects = append(r.v.ElementAncestors(g.O), g.O)
		}
		for _, sv := range subjects {
			bs, ok := bindVal(p.S, sv, bp)
			if !ok {
				continue
			}
			for _, ov := range objects {
				if bo, ok := bindVal(p.O, ov, bs); ok {
					out = append(out, bo)
				}
			}
		}
	}
	return out
}

func (r *refEvaluator) matchStar(p sparql.Pattern, b Binding) []Binding {
	pred := p.P.ID
	resolveRef := func(t sparql.Term) (vocab.TermID, bool) {
		if t.Kind == sparql.Const {
			return t.ID, true
		}
		if t.Kind == sparql.Var {
			id, ok := b[t.Name]
			return id, ok
		}
		return 0, false
	}
	s, sOK := resolveRef(p.S)
	o, oOK := resolveRef(p.O)
	// Candidate endpoints: resolved sides contribute themselves, free sides
	// range over every node the predicate's facts mention.
	mentioned := map[vocab.TermID]bool{}
	for _, f := range r.facts {
		if f.P == pred {
			mentioned[f.S] = true
			mentioned[f.O] = true
		}
	}
	candidates := func(val vocab.TermID, resolved bool) []vocab.TermID {
		if resolved {
			return []vocab.TermID{val}
		}
		out := make([]vocab.TermID, 0, len(mentioned))
		for n := range mentioned {
			out = append(out, n)
		}
		return out
	}
	// A resolved endpoint that the facts never mention still matches itself
	// on the other side via the zero-length path, so widen the free side.
	sCands := candidates(s, sOK)
	oCands := candidates(o, oOK)
	if sOK && !oOK && !mentioned[s] {
		oCands = append(oCands, s)
	}
	if oOK && !sOK && !mentioned[o] {
		sCands = append(sCands, o)
	}
	var out []Binding
	for _, sv := range sCands {
		for _, ov := range oCands {
			if !r.reach(pred, sv, ov, map[vocab.TermID]bool{}) {
				continue
			}
			if bs, ok := bindVal(p.S, sv, b); ok {
				if bo, ok := bindVal(p.O, ov, bs); ok {
					out = append(out, bo)
				}
			}
		}
	}
	return out
}

// reach: zero or more pred-edges from a to z, walking the raw fact list.
func (r *refEvaluator) reach(pred, a, z vocab.TermID, seen map[vocab.TermID]bool) bool {
	if a == z {
		return true
	}
	seen[a] = true
	for _, f := range r.facts {
		if f.P == pred && f.S == a && !seen[f.O] {
			if r.reach(pred, f.O, z, seen) {
				return true
			}
		}
	}
	return false
}

// caseStore bundles a random store with the element/relation handles the
// BGP generator draws from, so tests can produce several BGPs over one
// store (the plan-cache tests need that).
type caseStore struct {
	s        *ontology.Store
	elems    []vocab.TermID
	rels     []vocab.TermID
	hasLabel vocab.TermID
}

// randomCase builds a random vocabulary hierarchy, store and BGP.
func randomCase(rng *rand.Rand) (*ontology.Store, sparql.BGP) {
	cs := randomStore(rng)
	return cs.s, randomBGP(rng, cs)
}

// randomStore builds the random vocabulary hierarchy and fact store.
func randomStore(rng *rand.Rand) *caseStore {
	v := vocab.New()
	nElem := 4 + rng.Intn(9)
	elems := make([]vocab.TermID, nElem)
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("e%d", i))
		if i > 0 && rng.Float64() < 0.6 {
			if err := v.OrderElements(elems[rng.Intn(i)], elems[i]); err != nil {
				panic(err)
			}
		}
	}
	hasLabel := v.MustRelation(ontology.RelHasLabel)
	nRel := 2 + rng.Intn(3)
	rels := make([]vocab.TermID, nRel)
	for i := range rels {
		rels[i] = v.MustRelation(fmt.Sprintf("r%d", i))
		if i > 0 && rng.Float64() < 0.4 {
			if err := v.OrderRelations(rels[rng.Intn(i)], rels[i]); err != nil {
				panic(err)
			}
		}
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	nFacts := rng.Intn(2*nElem + 1)
	for i := 0; i < nFacts; i++ {
		s.MustAdd(ontology.Fact{
			S: elems[rng.Intn(nElem)],
			P: rels[rng.Intn(nRel)],
			O: elems[rng.Intn(nElem)],
		})
	}
	labels := []string{"red", "blue"}
	for i := 0; i < rng.Intn(4); i++ {
		if err := s.AddLabel(elems[rng.Intn(nElem)], labels[rng.Intn(len(labels))]); err != nil {
			panic(err)
		}
	}
	// A store answers reads only once frozen. The draw that used to leave
	// a tenth of the stores unfrozen stays, so each seed builds the same
	// case as before.
	_ = rng.Float64()
	s.Freeze()
	return &caseStore{s: s, elems: elems, rels: rels, hasLabel: hasLabel}
}

// randomBGP builds a random BGP over the store's terms.
func randomBGP(rng *rand.Rand, cs *caseStore) sparql.BGP {
	elemVars := []string{"x", "y", "z"}
	relVars := []string{"p", "q"}
	elemTerm := func() sparql.Term {
		switch r := rng.Float64(); {
		case r < 0.40:
			return sparql.VarTerm(elemVars[rng.Intn(len(elemVars))])
		case r < 0.85:
			return sparql.ConstTerm(cs.elems[rng.Intn(len(cs.elems))])
		default:
			return sparql.WildcardTerm()
		}
	}
	var bgp sparql.BGP
	nPat := 1 + rng.Intn(3)
	for i := 0; i < nPat; i++ {
		switch r := rng.Float64(); {
		case r < 0.15: // label filter
			bgp = append(bgp, sparql.Pattern{
				S: elemTerm(),
				P: sparql.ConstTerm(cs.hasLabel),
				O: sparql.LiteralTerm([]string{"red", "blue", "green"}[rng.Intn(3)]),
			})
		case r < 0.40: // star path
			bgp = append(bgp, sparql.Pattern{
				S:    elemTerm(),
				P:    sparql.ConstTerm(cs.rels[rng.Intn(len(cs.rels))]),
				O:    elemTerm(),
				Star: true,
			})
		default: // plain triple, sometimes with a predicate variable
			p := sparql.ConstTerm(cs.rels[rng.Intn(len(cs.rels))])
			if rng.Float64() < 0.25 {
				p = sparql.VarTerm(relVars[rng.Intn(len(relVars))])
			}
			bgp = append(bgp, sparql.Pattern{S: elemTerm(), P: p, O: elemTerm()})
		}
	}
	return bgp
}

func bindingsEqual(a, b []Binding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if refKey(a[i]) != refKey(b[i]) {
			return false
		}
	}
	return true
}

func describeCase(s *ontology.Store, bgp sparql.BGP) string {
	v := s.Vocabulary()
	var sb strings.Builder
	sb.WriteString("facts:\n")
	for _, f := range s.AllFacts() {
		fmt.Fprintf(&sb, "  %s\n", f.String(v))
	}
	sb.WriteString("bgp:\n")
	for _, p := range bgp {
		fmt.Fprintf(&sb, "  %s (star=%v)\n", p.String(v), p.Star)
	}
	return sb.String()
}

// TestDifferentialWhere pins the compiled plan against the naive reference
// evaluator on randomized inputs.
func TestDifferentialWhere(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, bgp := randomCase(rng)
		for _, semantic := range []bool{false, true} {
			e := sparql.NewEvaluator(s)
			e.Semantic = semantic
			got, err := evalBindings(e, bgp)
			if err != nil {
				t.Fatalf("seed %d semantic=%v: unexpected validation error: %v\n%s",
					seed, semantic, err, describeCase(s, bgp))
			}
			want := newRefEvaluator(s, semantic).eval(bgp)
			if !bindingsEqual(got, want) {
				t.Fatalf("seed %d semantic=%v: planned evaluator diverges from reference\nplanned: %v\nreference: %v\n%s",
					seed, semantic, got, want, describeCase(s, bgp))
			}
		}
	}
}
