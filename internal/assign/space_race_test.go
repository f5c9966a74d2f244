package assign_test

// Determinism and race tests for space construction on the width-100 DAG:
// spaces built from many goroutines at once, each compiling its own plan or
// sharing the store's plan cache, must all match a serially built space
// whose Valid() keys and NodeIDs are checked against the plan's full
// Stream. Run with -race.

import (
	"fmt"
	"sync"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

// dagFixture returns the width-100 DAG workload.
func dagFixture(t testing.TB) *synth.DAG {
	t.Helper()
	d, err := synth.NewDAG(synth.DAGConfig{Width: 100, Depth: 5, MSPPercent: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// spaceDiff describes the first difference between got's and want's
// Valid() lists, keys and NodeIDs, or returns "" if there is none.
func spaceDiff(got, want *assign.Space) string {
	gv, wv := got.Valid(), want.Valid()
	if len(gv) != len(wv) {
		return fmt.Sprintf("valid count %d, want %d", len(gv), len(wv))
	}
	for i := range gv {
		if gv[i].Key() != wv[i].Key() {
			return fmt.Sprintf("Valid()[%d] key %q, want %q", i, gv[i].Key(), wv[i].Key())
		}
		if gv[i].ID() != wv[i].ID() {
			return fmt.Sprintf("Valid()[%d] NodeID %d, want %d", i, gv[i].ID(), wv[i].ID())
		}
	}
	return ""
}

// buildInParallel builds the DAG query's space from 8 goroutines at once,
// each compiling its plan through compile, and reports every space that
// differs from ref.
func buildInParallel(t *testing.T, d *synth.DAG, ref *assign.Space, compile func() (*sparql.Plan, error)) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plan, err := compile()
			if err != nil {
				t.Error(err)
				return
			}
			sp, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if diff := spaceDiff(sp, ref); diff != "" {
				t.Errorf("diverged under concurrency: %s", diff)
			}
		}()
	}
	wg.Wait()
}

// TestParallelSpaceMatchesSerial checks the serially built space against
// the plan's full Stream, then builds it from 8 goroutines at once, each
// with its own evaluator and plan; every one must match the serial space.
func TestParallelSpaceMatchesSerial(t *testing.T) {
	d := dagFixture(t)
	serial := requireMatchesStream(t, "width-100 dag", d.Query, d.Store, false)
	if len(serial.Valid()) < 2 {
		t.Fatalf("fixture too small to be meaningful: %d valid assignments", len(serial.Valid()))
	}
	buildInParallel(t, d, serial, func() (*sparql.Plan, error) {
		return sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
	})
}

// TestConcurrentSpaceConstruction builds many spaces at once, each from a
// plan compiled (or served from the shared cache) in its own goroutine;
// every one must match a serially built reference.
func TestConcurrentSpaceConstruction(t *testing.T) {
	d := dagFixture(t)
	plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	buildInParallel(t, d, ref, func() (*sparql.Plan, error) {
		return sparql.NewEvaluator(d.Store).UseSharedCache().Compile(d.Query.Where)
	})
}
