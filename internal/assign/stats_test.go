package assign_test

import (
	"math/rand"
	"sync"
	"testing"
)

// TestSpaceStatsCounters pins the Stats() accounting: construction dedups
// via the interner, edge-cache misses happen once per node per direction,
// and repeated lookups land on the read-locked hit path.
func TestSpaceStatsCounters(t *testing.T) {
	d := randomSpace(t, 61)
	st := d.Space.Stats()
	if st.Nodes == 0 || st.Valid == 0 {
		t.Fatalf("empty stats after construction: %+v", st)
	}
	if st.InternMisses < int64(st.Nodes) {
		t.Fatalf("intern misses %d < nodes %d", st.InternMisses, st.Nodes)
	}
	if st.EdgeHits != 0 || st.EdgeMisses != 0 {
		t.Fatalf("edge counters nonzero before any traversal: %+v", st)
	}

	roots := d.Space.Roots()
	a := roots[0]
	d.Space.Successors(a)
	after := d.Space.Stats()
	if after.EdgeMisses != 1 {
		t.Fatalf("first Successors: misses = %d, want 1", after.EdgeMisses)
	}
	for i := 0; i < 5; i++ {
		d.Space.Successors(a)
	}
	after = d.Space.Stats()
	if after.EdgeMisses != 1 || after.EdgeHits != 5 {
		t.Fatalf("after 5 repeats: hits=%d misses=%d, want 5/1", after.EdgeHits, after.EdgeMisses)
	}
	d.Space.Predecessors(a)
	d.Space.Predecessors(a)
	after = d.Space.Stats()
	if after.EdgeMisses != 2 || after.EdgeHits != 6 {
		t.Fatalf("after preds: hits=%d misses=%d, want 6/2", after.EdgeHits, after.EdgeMisses)
	}
}

// TestSpaceStatsConcurrent drives the read-locked hit paths and Stats()
// snapshots from many goroutines under the race detector, then checks the
// counters add up: every lookup is either a hit or a miss.
func TestSpaceStatsConcurrent(t *testing.T) {
	d := randomSpace(t, 67)
	const workers = 8
	const lookups = 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < lookups; i++ {
				a := randomWalk(d, rng, rng.Intn(4))
				d.Space.Successors(a)
				d.Space.Predecessors(a)
				_ = d.Space.Stats()
				_ = d.Space.NumNodes()
			}
		}(int64(w + 101))
	}
	wg.Wait()
	st := d.Space.Stats()
	// randomWalk itself calls Successors once per step, so the exact total
	// is seed-dependent; the invariant is hits+misses ≥ the direct calls
	// and misses ≤ 2 per node (one per direction).
	total := st.EdgeHits + st.EdgeMisses
	if total < workers*lookups*2 {
		t.Fatalf("hits+misses = %d, want ≥ %d", total, workers*lookups*2)
	}
	if st.EdgeMisses > 2*int64(st.Nodes) {
		t.Fatalf("misses %d exceed 2× nodes %d", st.EdgeMisses, st.Nodes)
	}
}
