package assign_test

// Tests for the bulk registration of 𝒜valid (internTuples registers the
// valid nodes in one pass and leaves the interner's hash index to be built
// on the first later intern call): structural lookups must still find the
// bulk nodes, the hit/miss accounting must not move, and the first index
// build must be safe when it happens under contention. Run with -race.

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// twin rebuilds a from scratch, outside the space.
func twin(sp *assign.Space, v *vocab.Vocabulary, a *assign.Assignment) *assign.Assignment {
	vals := map[string][]vocab.TermID{}
	for _, vs := range sp.Vars() {
		if set := a.Values(vs.Name); len(set) > 0 {
			vals[vs.Name] = append([]vocab.TermID{}, set...)
		}
	}
	return assign.New(v, sp.Kinds(), vals, a.More())
}

// TestBulkInternCanon checks that a structurally equal assignment built
// outside the space interns onto the bulk-registered valid node, and that
// the lookups count as hits without registering anything.
func TestBulkInternCanon(t *testing.T) {
	for _, text := range []string{paperdata.SimpleQueryText, paperdata.QueryText, multQuery} {
		sp, v := buildSpace(t, text, nil)
		valid := sp.Valid()
		st := sp.Stats()
		if st.Nodes != len(valid) || st.InternMisses != int64(len(valid)) || st.InternHits != 0 {
			t.Fatalf("after construction: %+v, want %d nodes, as many misses and no hits", st, len(valid))
		}
		for _, a := range valid {
			tw := twin(sp, v, a)
			if tw.ID() != assign.NoID {
				t.Fatalf("rebuilt %s already carries ID %d", a.Key(), tw.ID())
			}
			if c := sp.Canon(tw); c != a || c.ID() != a.ID() {
				t.Fatalf("rebuilt %s does not intern onto the bulk node", a.Key())
			}
		}
		after := sp.Stats()
		if after.Nodes != st.Nodes || after.InternMisses != st.InternMisses || after.InternHits != int64(len(valid)) {
			t.Fatalf("after %d Canon lookups: %+v, want %d hits and nothing registered", len(valid), after, len(valid))
		}
	}
}

// exploreStats walks the space breadth-first from its roots through
// Successors and Predecessors (at most limit nodes), interns a rebuilt
// twin of every valid node, and returns the stats snapshot.
func exploreStats(t *testing.T, sp *assign.Space, v *vocab.Vocabulary, limit int) assign.SpaceStats {
	t.Helper()
	seen := map[*assign.Assignment]bool{}
	queue := append([]*assign.Assignment{}, sp.Roots()...)
	for len(queue) > 0 && len(seen) < limit {
		a := queue[0]
		queue = queue[1:]
		if seen[a] {
			continue
		}
		seen[a] = true
		sp.Predecessors(a)
		queue = append(queue, sp.Successors(a)...)
	}
	for _, a := range sp.Valid() {
		sp.Canon(twin(sp, v, a))
	}
	return sp.Stats()
}

// TestBulkInternValidUnmoved interns thousands of lattice nodes after the
// bulk registration, which adopted 𝒜valid's slice as the interner's node
// table: Valid() must keep its nodes, in NodeID order, and its capacity
// must end at its length so no later append can share its array.
func TestBulkInternValidUnmoved(t *testing.T) {
	sp, v := buildSpace(t, paperdata.QueryText, nil)
	before := slices.Clone(sp.Valid())
	if st := exploreStats(t, sp, v, 3000); st.Nodes <= len(before) {
		t.Fatalf("exploration registered no node beyond 𝒜valid: %+v", st)
	}
	after := sp.Valid()
	if !slices.Equal(after, before) || cap(after) != len(after) {
		t.Fatalf("Valid() moved after interning: len %d cap %d, was len %d", len(after), cap(after), len(before))
	}
	for k, a := range after {
		if a.ID() != assign.NodeID(k) {
			t.Fatalf("Valid()[%d] has NodeID %d", k, a.ID())
		}
	}
}

// TestBulkInternStatsUnchanged pins the interner accounting on the paper's
// queries and one mined DAG run to the figures interning the valid nodes
// one by one produced: bulk registration counts one miss per node and
// every later lookup lands exactly as before.
func TestBulkInternStatsUnchanged(t *testing.T) {
	paper := []struct {
		name, text string
		want       string
	}{
		{"simple", paperdata.SimpleQueryText, "nodes=112 valid=42 hits=337 misses=112"},
		{"figure2", paperdata.QueryText, "nodes=7059 valid=42 hits=37330 misses=7059"},
		{"mult", multQuery, "nodes=5115 valid=42 hits=37485 misses=5115"},
	}
	format := func(st assign.SpaceStats) string {
		return fmt.Sprintf("nodes=%d valid=%d hits=%d misses=%d", st.Nodes, st.Valid, st.InternHits, st.InternMisses)
	}
	for _, c := range paper {
		sp, v := buildSpace(t, c.text, nil)
		if got := format(exploreStats(t, sp, v, 3000)); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}

	d, err := synth.NewDAG(synth.DAGConfig{Width: 30, Depth: 4, MSPPercent: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	core.NewEngine(d.Space, []crowd.Member{d.Oracle(0, 3)}, core.EngineConfig{Theta: 0.5, Seed: 3}).Run()
	if got, want := format(d.Space.Stats()), "nodes=248 valid=248 hits=292 misses=248"; got != want {
		t.Errorf("mined DAG: %s, want %s", got, want)
	}
}

// TestLazyIndexConcurrent builds a fresh space and lets eight goroutines
// race into Canon and Successors at once, so the first hash-index build
// happens under contention. Every Canon must land on the bulk node and
// every goroutine must see the same memoized successor lists.
func TestLazyIndexConcurrent(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 100, Depth: 3, MSPPercent: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		plan, err := sparql.NewEvaluator(d.Store).Compile(d.Query.Where)
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := assign.NewSpaceFromPlan(d.Query, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		valid := sp.Valid()
		// Even workers look up the bulk nodes and intern rebuilt twins,
		// odd ones fill successor lists; each starts at a different
		// point of Valid().
		const workers = 8
		succs := make([]map[*assign.Assignment][]*assign.Assignment, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			succs[w] = map[*assign.Assignment][]*assign.Assignment{}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for j := range valid {
					a := valid[(j+w*len(valid)/workers)%len(valid)]
					if w%2 == 1 {
						succs[w][a] = sp.Successors(a)
					} else if sp.Canon(a) != a || sp.Canon(twin(sp, d.Vocab, a)) != a {
						t.Errorf("worker %d: %s does not intern onto its bulk node", w, a.Key())
						return
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
		for w, m := range succs {
			for a, out := range m {
				if want := sp.Successors(a); len(out) != len(want) || (len(out) > 0 && &out[0] != &want[0]) {
					t.Fatalf("worker %d saw a different successor list for %s", w, a.Key())
				}
			}
		}
		for i, a := range valid {
			if sp.Canon(twin(sp, d.Vocab, a)) != a {
				t.Fatalf("after the race, valid[%d] %s no longer interns onto itself", i, a.Key())
			}
		}
	}
}

// TestValidKeyOrder checks that Valid(), sorted on the values without
// building keys, is in canonical key order, on the paper's queries and on
// DAGs whose term IDs span one to four decimal digits.
func TestValidKeyOrder(t *testing.T) {
	check := func(tag string, sp *assign.Space) {
		t.Helper()
		valid := sp.Valid()
		for i := 1; i < len(valid); i++ {
			if valid[i-1].Key() >= valid[i].Key() {
				t.Fatalf("%s: Valid()[%d] %q does not sort before Valid()[%d] %q",
					tag, i-1, valid[i-1].Key(), i, valid[i].Key())
			}
		}
	}
	for _, text := range []string{paperdata.SimpleQueryText, paperdata.QueryText, multQuery} {
		sp, _ := buildSpace(t, text, nil)
		check("paper", sp)
	}
	for _, width := range []int{3, 40, 400} {
		d, err := synth.NewDAG(synth.DAGConfig{Width: width, Depth: 3, Places: 12, MSPPercent: 0.02, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("width %d", width), d.Space)
	}
}
