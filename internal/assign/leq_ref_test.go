package assign_test

import (
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/ontology"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// leqNaive is a from-the-definition reference for the order of Definition
// 4.1: rebuild both assignments as plain maps and check, per variable, that
// every value of a is generalized by some value of b (and likewise for MORE
// facts). It shares no code with the sorted-cursor production Leq.
func leqNaive(v *vocab.Vocabulary, kinds map[string]vocab.Kind, a, b *assign.Assignment) bool {
	toMap := func(x *assign.Assignment) map[string][]vocab.TermID {
		m := make(map[string][]vocab.TermID)
		for _, name := range x.Vars() {
			m[name] = x.Values(name)
		}
		return m
	}
	am, bm := toMap(a), toMap(b)
	for name, avals := range am {
		bvals := bm[name] // nil when b does not bind the variable
		for _, av := range avals {
			ok := false
			for _, bv := range bvals {
				if v.Leq(kinds[name], av, bv) {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
	}
	for _, f := range a.More() {
		ok := false
		for _, g := range b.More() {
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

// TestLeqAgreesWithNaiveReference pins the production Leq — sorted-cursor
// advance only, no per-variable binary-search fallback — against the naive
// map-based reference on random assignment pairs, including pairs with
// multiplicities and disjoint variable sets.
func TestLeqAgreesWithNaiveReference(t *testing.T) {
	for _, seed := range []int64{61, 67, 71} {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: 40, Depth: 4, MSPPercent: 0.05,
			MultiMSPPercent: 0.05, MultiMSPSize: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 3))
		var pool []*assign.Assignment
		for i := 0; i < 60; i++ {
			pool = append(pool, randomWalk(d, rng, rng.Intn(7)))
		}
		// Include assignments that drop the multiplicity-0 place
		// variable entirely, exercising the unbound-variable path.
		for i := 0; i < 10 && i < len(pool); i++ {
			a := pool[i]
			vals := map[string][]vocab.TermID{}
			for _, vs := range d.Space.Vars() {
				if vs.Mult.Min > 0 {
					if set := a.Values(vs.Name); len(set) > 0 {
						vals[vs.Name] = set
					}
				}
			}
			pool = append(pool, assign.New(d.Vocab, d.Space.Kinds(), vals, nil))
		}
		kinds := d.Space.Kinds()
		checked := 0
		for _, a := range pool {
			for _, b := range pool {
				got := assign.Leq(d.Vocab, a, b)
				want := leqNaive(d.Vocab, kinds, a, b)
				if got != want {
					t.Fatalf("seed %d: Leq(%s, %s) = %v, reference says %v",
						seed, a.Key(), b.Key(), got, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no pairs checked")
		}
	}
}
