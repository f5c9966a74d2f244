package ontology

import (
	"sync"
	"testing"

	"oassis/internal/vocab"
)

// chainStore builds a frozen store of a -sub-> b -sub-> c -sub-> d plus
// x -other-> a.
func chainStore(t *testing.T) (*Store, *vocab.Vocabulary, map[string]vocab.TermID) {
	t.Helper()
	v := vocab.New()
	ids := map[string]vocab.TermID{}
	for _, n := range []string{"a", "b", "c", "d", "x", "lone"} {
		ids[n] = v.MustElement(n)
	}
	sub := v.MustRelation("sub")
	other := v.MustRelation("other")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := NewStore(v)
	s.MustAdd(Fact{S: ids["a"], P: sub, O: ids["b"]})
	s.MustAdd(Fact{S: ids["b"], P: sub, O: ids["c"]})
	s.MustAdd(Fact{S: ids["c"], P: sub, O: ids["d"]})
	s.MustAdd(Fact{S: ids["x"], P: other, O: ids["a"]})
	ids["sub"], ids["other"] = sub, other
	s.Freeze()
	return s, v, ids
}

func TestClosureIndexes(t *testing.T) {
	// The subtest keeps the name it had when unfrozen stores were also
	// checked; a store now answers closure reads only once frozen.
	t.Run("frozen=true", func(t *testing.T) {
		s, _, ids := chainStore(t)
		sub := ids["sub"]

		fwd := s.ForwardClosure(ids["a"], sub)
		if len(fwd) != 4 { // a, b, c, d
			t.Fatalf("forward closure of a = %v, want 4 nodes", fwd)
		}
		for i := 1; i < len(fwd); i++ {
			if fwd[i-1] >= fwd[i] {
				t.Fatalf("forward closure not sorted: %v", fwd)
			}
		}
		if got := s.ForwardClosure(ids["d"], sub); got != nil {
			t.Fatalf("d has no outgoing sub edge, closure should be nil, got %v", got)
		}
		if got := s.ForwardClosure(ids["lone"], sub); got != nil {
			t.Fatalf("lone node closure should be nil, got %v", got)
		}

		bwd := s.BackwardClosure(ids["d"], sub)
		if len(bwd) != 4 {
			t.Fatalf("backward closure of d = %v, want 4 nodes", bwd)
		}
		if got := s.BackwardClosure(ids["a"], sub); got != nil {
			t.Fatalf("a has no incoming sub edge, closure should be nil, got %v", got)
		}

		if !s.Reaches(ids["a"], sub, ids["d"]) {
			t.Fatal("a should reach d")
		}
		if !s.Reaches(ids["a"], sub, ids["a"]) {
			t.Fatal("zero-length path a->a should hold")
		}
		if s.Reaches(ids["d"], sub, ids["a"]) {
			t.Fatal("d must not reach a")
		}
		if s.Reaches(ids["a"], ids["other"], ids["d"]) {
			t.Fatal("a must not reach d over the other predicate")
		}

		// pairs: a->{a,b,c,d}, b->{b,c,d}, c->{c,d}, d->d = 10.
		pairs := s.ClosurePairs(sub)
		if len(pairs) != 10 {
			t.Fatalf("closure pairs = %d, want 10: %v", len(pairs), pairs)
		}
		for i := 1; i < len(pairs); i++ {
			a, b := pairs[i-1], pairs[i]
			if a.S > b.S || (a.S == b.S && a.O >= b.O) {
				t.Fatalf("pairs not sorted/deduped at %d: %v", i, pairs)
			}
		}
		np, nn := s.StarStats(sub)
		if np != 10 || nn != 4 {
			t.Fatalf("StarStats = (%d, %d), want (10, 4)", np, nn)
		}
		f, subj, obj := s.PredStats(sub)
		if f != 3 || subj != 3 || obj != 3 {
			t.Fatalf("PredStats = (%d, %d, %d), want (3, 3, 3)", f, subj, obj)
		}
	})
}

// TestClosureEarlyExitBeforeIndex pins that Reaches works before any closure
// has been memoized (the early-exit BFS path) and agrees with the indexed
// answer afterwards.
func TestClosureEarlyExitBeforeIndex(t *testing.T) {
	s, _, ids := chainStore(t)
	sub := ids["sub"]
	// No ForwardClosure/ClosurePairs call yet: the index is cold.
	if !s.Reaches(ids["b"], sub, ids["d"]) {
		t.Fatal("early-exit BFS: b should reach d")
	}
	if s.Reaches(ids["b"], sub, ids["x"]) {
		t.Fatal("early-exit BFS: b must not reach x")
	}
	_ = s.ForwardClosure(ids["b"], sub) // warm the index
	if !s.Reaches(ids["b"], sub, ids["d"]) || s.Reaches(ids["b"], sub, ids["x"]) {
		t.Fatal("indexed Reaches disagrees with BFS answers")
	}
}

// TestClosureCycle: the walk terminates and is correct on cyclic predicates.
func TestClosureCycle(t *testing.T) {
	v := vocab.New()
	a, b, c := v.MustElement("a"), v.MustElement("b"), v.MustElement("c")
	p := v.MustRelation("p")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := NewStore(v)
	s.MustAdd(Fact{S: a, P: p, O: b})
	s.MustAdd(Fact{S: b, P: p, O: a}) // cycle
	s.MustAdd(Fact{S: b, P: p, O: c})
	s.Freeze()
	if got := s.ForwardClosure(a, p); len(got) != 3 {
		t.Fatalf("cyclic closure of a = %v, want {a,b,c}", got)
	}
	if !s.Reaches(b, p, b) || !s.Reaches(a, p, c) || s.Reaches(c, p, a) {
		t.Fatal("cyclic reachability wrong")
	}
}

// TestClosureConcurrentBuild races many goroutines into the lazy memo.
func TestClosureConcurrentBuild(t *testing.T) {
	s, _, ids := chainStore(t)
	sub := ids["sub"]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if len(s.ForwardClosure(ids["a"], sub)) != 4 {
				t.Error("concurrent forward closure wrong")
			}
			if len(s.ClosurePairs(sub)) != 10 {
				t.Error("concurrent pairs wrong")
			}
			if !s.Reaches(ids["a"], sub, ids["d"]) {
				t.Error("concurrent reaches wrong")
			}
		}()
	}
	wg.Wait()
}

// TestClosureStats pins the cold/warm accounting: the first lookup of a
// predicate builds its index (cold), every later one is served memoized
// (warm), and Reaches on an already-built index counts warm too.
func TestClosureStats(t *testing.T) {
	s, _, ids := chainStore(t)
	if st := s.ClosureStats(); st.Cold != 0 || st.Warm != 0 {
		t.Fatalf("fresh store stats: %+v", st)
	}
	s.ForwardClosure(ids["a"], ids["sub"])
	st := s.ClosureStats()
	if st.Cold != 1 || st.Warm != 0 {
		t.Fatalf("after first lookup: %+v", st)
	}
	s.ForwardClosure(ids["b"], ids["sub"])
	s.BackwardClosure(ids["d"], ids["sub"])
	if st = s.ClosureStats(); st.Cold != 1 || st.Warm != 2 {
		t.Fatalf("after warm lookups: %+v", st)
	}
	// Reaches with a built index is a warm binary search.
	if !s.Reaches(ids["a"], ids["sub"], ids["d"]) {
		t.Fatal("a should reach d")
	}
	if st = s.ClosureStats(); st.Warm != 3 {
		t.Fatalf("Reaches not counted warm: %+v", st)
	}
	// A different predicate builds its own index.
	s.ClosurePairs(ids["other"])
	if st = s.ClosureStats(); st.Cold != 2 {
		t.Fatalf("second predicate not counted cold: %+v", st)
	}
}
