package assign_test

import (
	"testing"

	"oassis/internal/assign"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

// TestSpaceBuildAllocsFlat pins that building a space costs no allocation
// per valid node: the nodes share one slab, their value sets one flat
// array, and neither keys nor the interner's hash index are built. A
// ~500-valid space may allocate only a small constant more than a
// ~10-valid one (the slab's append growth and the sort's scratch).
func TestSpaceBuildAllocsFlat(t *testing.T) {
	measure := func(cfg synth.DAGConfig) (valid int, allocs float64) {
		d, err := synth.NewDAG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
		if err != nil {
			t.Fatal(err)
		}
		allocs = testing.AllocsPerRun(20, func() {
			sp, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			valid = len(sp.Valid())
		})
		return valid, allocs
	}
	smallValid, small := measure(synth.DAGConfig{Width: 2, Depth: 2, Places: 1, MSPPercent: 0.05, Seed: 1})
	largeValid, large := measure(synth.DAGConfig{Width: 100, Depth: 2, Places: 3, MSPPercent: 0.05, Seed: 1})
	if smallValid > 20 || largeValid < 400 {
		t.Fatalf("fixtures drifted: %d and %d valid assignments, want ~10 and ~500", smallValid, largeValid)
	}
	t.Logf("%d valid: %.0f allocs; %d valid: %.0f allocs", smallValid, small, largeValid, large)
	if large-small > 32 {
		t.Fatalf("building %d valid nodes allocates %.0f times, %d valid nodes %.0f: more than 32 extra allocations means a per-node cost crept back",
			largeValid, large, smallValid, small)
	}
}
