package assign_test

import (
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// rebuild copies a into a fresh assignment no space has interned.
func rebuild(d *synth.DAG, a *assign.Assignment) *assign.Assignment {
	vals := map[string][]vocab.TermID{}
	for _, name := range a.Vars() {
		vals[name] = a.Values(name)
	}
	return assign.New(d.Vocab, d.Space.Kinds(), vals, a.More())
}

// TestClassifierAgreesWithBruteForce feeds the classifier random marks
// drawn from a random monotone ground truth, interleaved with queries, and
// checks every Status and StatusRO verdict against a brute-force scan of
// every mark so far with Space.Leq. Besides the space's own nodes, the
// queries include assignments that must not take the classifier's
// lock-free path: copies built outside the space (no NodeID), and nodes of
// a second space over the same query whose NodeID is also used in the
// first space, by a structurally different node.
func TestClassifierAgreesWithBruteForce(t *testing.T) {
	for _, seed := range []int64{5, 19, 43} {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: 40, Depth: 4, MSPPercent: 0.05,
			MultiMSPPercent: 0.03, MultiMSPSize: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed*7 + 1))
		var pool []*assign.Assignment
		byID := map[assign.NodeID]*assign.Assignment{}
		for i := 0; i < 80; i++ {
			a := walkSpace(d.Space, rng, rng.Intn(7))
			pool = append(pool, a)
			byID[a.ID()] = a
		}

		// The second space is explored in a different order, so its
		// lazily generated nodes get NodeIDs that the first space gave
		// to other nodes.
		other, _, err := assign.NewSpaceFromPlan(d.Query, d.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		var foreign []*assign.Assignment
		for i := 0; i < 400 && len(foreign) < 20; i++ {
			b := walkSpace(other, rng, 1+rng.Intn(6))
			if a, ok := byID[b.ID()]; ok && a.Key() != b.Key() {
				foreign = append(foreign, b)
			}
		}
		if len(foreign) == 0 {
			t.Fatalf("seed %d: no NodeID shared by different nodes of the two spaces", seed)
		}
		var outside []*assign.Assignment
		for i := 0; i < 20; i++ {
			outside = append(outside, rebuild(d, pool[rng.Intn(len(pool))]))
		}
		cands := append(append(append([]*assign.Assignment{}, pool...), foreign...), outside...)

		var planted []*assign.Assignment
		for i := 0; i < 6; i++ {
			planted = append(planted, pool[rng.Intn(len(pool))])
		}
		truth := func(a *assign.Assignment) bool {
			for _, p := range planted {
				if d.Space.Leq(a, p) {
					return true
				}
			}
			return false
		}
		var sigMarks, insigMarks []*assign.Assignment
		want := func(a *assign.Assignment) assign.Status {
			for _, m := range insigMarks {
				if d.Space.Leq(m, a) {
					return assign.Insignificant
				}
			}
			for _, m := range sigMarks {
				if d.Space.Leq(a, m) {
					return assign.Significant
				}
			}
			return assign.Unknown
		}

		cls := assign.NewClassifier(d.Space)
		seen := map[assign.Status]int{}
		for step := 0; step < 1500; step++ {
			a := cands[rng.Intn(len(cands))]
			if rng.Intn(5) == 0 {
				if truth(a) {
					cls.MarkSignificant(a)
					sigMarks = append(sigMarks, a)
				} else {
					cls.MarkInsignificant(a)
					insigMarks = append(insigMarks, a)
				}
				continue
			}
			w := want(a)
			if got := cls.StatusRO(a); got != w {
				t.Fatalf("seed %d step %d: StatusRO(%s) = %v, brute force says %v", seed, step, a.Key(), got, w)
			}
			if got := cls.Status(a); got != w {
				t.Fatalf("seed %d step %d: Status(%s) = %v, brute force says %v", seed, step, a.Key(), got, w)
			}
			seen[w]++
		}
		if seen[assign.Unknown] == 0 || seen[assign.Significant] == 0 || seen[assign.Insignificant] == 0 {
			t.Fatalf("seed %d: verdicts not all exercised: %v", seed, seen)
		}
		for _, a := range cands {
			if got, w := cls.Status(a), want(a); got != w {
				t.Fatalf("seed %d: final Status(%s) = %v, brute force says %v", seed, a.Key(), got, w)
			}
		}
	}
}
