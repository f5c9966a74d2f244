package sparql_test

// Large-store differential for semantic mode: the randomized stores of
// ref_test.go stay under semScanFloor, so the index-driven candidate path
// of runSemTriple never engages there. These cases use hundreds of facts
// per predicate and a deep element taxonomy, making bound-side patterns
// take the point-lookup route, and pin the planned evaluator to
// the naive reference on exactly those shapes.

import (
	"fmt"
	"math/rand"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

func largeSemStore(rng *rand.Rand) (*ontology.Store, []vocab.TermID, []vocab.TermID) {
	v := vocab.New()
	nElem := 50 + rng.Intn(30)
	elems := make([]vocab.TermID, nElem)
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("E%d", i))
		if i > 0 {
			if err := v.OrderElements(elems[rng.Intn(i)], elems[i]); err != nil {
				panic(err)
			}
		}
	}
	rels := []vocab.TermID{v.MustRelation("ra"), v.MustRelation("rb")}
	if err := v.OrderRelations(rels[0], rels[1]); err != nil {
		panic(err)
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	for i := 0; i < 400+rng.Intn(300); i++ {
		s.MustAdd(ontology.Fact{
			S: elems[rng.Intn(nElem)],
			P: rels[rng.Intn(len(rels))],
			O: elems[rng.Intn(nElem)],
		})
	}
	s.Freeze()
	return s, elems, rels
}

func TestDifferentialSemanticLargeStore(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		s, elems, rels := largeSemStore(rng)
		constE := func() sparql.Term { return sparql.ConstTerm(elems[rng.Intn(len(elems))]) }
		cases := []sparql.BGP{
			// Bound subject: index path over the subject's descendants.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: sparql.VarTerm("x")}},
			// Bound object.
			{{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: constE()}},
			// Both bound.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: constE()}},
			// Join: the second pattern runs with $x bound per candidate.
			{
				{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[0]), O: constE()},
				{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: sparql.VarTerm("y")},
			},
			// Predicate hierarchy: ra ≤ rb, pattern on ra reaches rb facts.
			{{S: constE(), P: sparql.ConstTerm(rels[0]), O: sparql.VarTerm("y")}},
		}
		for ci, bgp := range cases {
			e := sparql.NewEvaluator(s)
			e.Semantic = true
			got, err := evalBindings(e, bgp)
			if err != nil {
				t.Fatalf("seed %d case %d: %v", seed, ci, err)
			}
			want := newRefEvaluator(s, true).eval(bgp)
			if !bindingsEqual(got, want) {
				t.Fatalf("seed %d case %d: planned evaluator diverges from reference on large store\nplanned %d rows, reference %d rows\n%s",
					seed, ci, len(got), len(want), describeCase(s, bgp))
			}
		}
	}
}
