package assign_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oassis/internal/assign"
	"oassis/internal/ontology"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// randomSpace builds a synthetic two-variable space (the Section 6.4 DAG
// generator) for property testing.
func randomSpace(t *testing.T, seed int64) *synth.DAG {
	t.Helper()
	d, err := synth.NewDAG(synth.DAGConfig{
		Width: 40, Depth: 4, MSPPercent: 0.05,
		MultiMSPPercent: 0.03, MultiMSPSize: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomWalk picks a random assignment by walking down from a root.
func randomWalk(d *synth.DAG, rng *rand.Rand, steps int) *assign.Assignment {
	return walkSpace(d.Space, rng, steps)
}

// walkSpace picks a random assignment by walking down from a root of sp.
func walkSpace(sp *assign.Space, rng *rand.Rand, steps int) *assign.Assignment {
	roots := sp.Roots()
	cur := roots[rng.Intn(len(roots))]
	for i := 0; i < steps; i++ {
		succs := sp.Successors(cur)
		if len(succs) == 0 {
			break
		}
		cur = succs[rng.Intn(len(succs))]
	}
	return cur
}

// TestPropertyLeqPartialOrder checks reflexivity, antisymmetry (via keys)
// and transitivity on randomly walked assignments.
func TestPropertyLeqPartialOrder(t *testing.T) {
	d := randomSpace(t, 3)
	rng := rand.New(rand.NewSource(17))
	var pool []*assign.Assignment
	for i := 0; i < 40; i++ {
		pool = append(pool, randomWalk(d, rng, rng.Intn(6)))
	}
	f := func(ai, bi, ci uint8) bool {
		a := pool[int(ai)%len(pool)]
		b := pool[int(bi)%len(pool)]
		c := pool[int(ci)%len(pool)]
		if !d.Space.Leq(a, a) {
			return false
		}
		if d.Space.Leq(a, b) && d.Space.Leq(b, a) && a.Key() != b.Key() {
			return false // antisymmetry up to canonical equivalence
		}
		if d.Space.Leq(a, b) && d.Space.Leq(b, c) && !d.Space.Leq(a, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyClosureDownwardClosed: predecessors of closure members stay in
// the closure.
func TestPropertyClosureDownwardClosed(t *testing.T) {
	d := randomSpace(t, 5)
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 60; i++ {
		a := randomWalk(d, rng, rng.Intn(6))
		if !d.Space.InClosure(a) {
			t.Fatalf("walked assignment escaped the closure: %s", a.Key())
		}
		for _, p := range d.Space.Predecessors(a) {
			if !d.Space.InClosure(p) {
				t.Fatalf("predecessor %s of closure member %s not in closure",
					p.Key(), a.Key())
			}
		}
	}
}

// TestPropertyInstantiateMonotone: the fact-set instantiation respects the
// assignment order (a ≤ b ⇒ inst(a) ≤ inst(b) as fact-sets).
func TestPropertyInstantiateMonotone(t *testing.T) {
	d := randomSpace(t, 7)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 60; i++ {
		a := randomWalk(d, rng, rng.Intn(5))
		for _, s := range d.Space.Successors(a) {
			fa := d.Space.Instantiate(a)
			fs := d.Space.Instantiate(s)
			if !ontology.LeqFactSet(d.Vocab, fa, fs) {
				t.Fatalf("instantiation not monotone: %s -> %s", a.Key(), s.Key())
			}
		}
	}
}

// TestPropertyClassifierSoundWithMonotoneOracle: feed the classifier random
// marks from a monotone ground truth and check every verdict matches it.
func TestPropertyClassifierSoundWithMonotoneOracle(t *testing.T) {
	d := randomSpace(t, 11)
	rng := rand.New(rand.NewSource(31))
	truth := func(a *assign.Assignment) bool {
		for _, p := range d.Planted {
			if d.Space.Leq(a, p) {
				return true
			}
		}
		return false
	}
	cls := assign.NewClassifier(d.Space)
	var pool []*assign.Assignment
	for i := 0; i < 120; i++ {
		pool = append(pool, randomWalk(d, rng, rng.Intn(6)))
	}
	for _, a := range pool {
		// Interleave queries and marks.
		switch cls.Status(a) {
		case assign.Significant:
			if !truth(a) {
				t.Fatalf("classifier claims significant against ground truth: %s", a.Key())
			}
		case assign.Insignificant:
			if truth(a) {
				t.Fatalf("classifier claims insignificant against ground truth: %s", a.Key())
			}
		case assign.Unknown:
			if truth(a) {
				cls.MarkSignificant(a)
			} else {
				cls.MarkInsignificant(a)
			}
		}
	}
	// Borders stay antichains.
	for _, border := range [][]*assign.Assignment{cls.SignificantBorder(), cls.InsignificantBorder()} {
		for i, a := range border {
			for j, b := range border {
				if i != j && d.Space.Leq(a, b) {
					t.Fatal("border is not an antichain")
				}
			}
		}
	}
}

// TestPropertyCanonicalIdempotent: rebuilding an assignment from its own
// values yields the same key.
func TestPropertyCanonicalIdempotent(t *testing.T) {
	d := randomSpace(t, 13)
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 80; i++ {
		a := randomWalk(d, rng, rng.Intn(6))
		vals := map[string][]vocab.TermID{}
		for _, vs := range d.Space.Vars() {
			if set := a.Values(vs.Name); len(set) > 0 {
				vals[vs.Name] = append([]vocab.TermID{}, set...)
			}
		}
		b := assign.New(d.Vocab, d.Space.Kinds(), vals, a.More())
		if a.Key() != b.Key() {
			t.Fatalf("canonicalization not idempotent: %s vs %s", a.Key(), b.Key())
		}
	}
}
