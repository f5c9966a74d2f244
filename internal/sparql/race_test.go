package sparql_test

// Concurrency tests for the WHERE stage: one Evaluator (and one compiled
// Plan) shared across goroutines must be safe and return identical
// results. Run with -race.

import (
	"math/rand"
	"sync"
	"testing"

	"oassis/internal/paperdata"
	"oassis/internal/sparql"
)

func TestConcurrentEval(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bgp := figure2WhereBGP(t, v)
	want, err := evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := e.Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := evalBindings(e, bgp) // shared Evaluator, fresh plan per call
			if err != nil {
				errs <- err.Error()
				return
			}
			if !bindingsEqual(got, want) {
				errs <- "concurrent evaluation diverged from serial result"
				return
			}
			rows := solutions(pl) // shared compiled plan
			if len(rows) != len(want) {
				errs <- "concurrent Plan.Stream row count diverged"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestConcurrentEvalSemantic exercises the lazy closure/stat memos under
// parallel semantic-mode evaluation on a freshly built (cold) store.
func TestConcurrentEvalSemantic(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	e.Semantic = true
	bgp := figure2WhereBGP(t, v)
	want, err := evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := evalBindings(e, bgp)
			if err != nil {
				t.Error(err)
				return
			}
			if !bindingsEqual(got, want) {
				t.Error("concurrent semantic evaluation diverged")
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentEvalSemanticLargeStore fills the store's candidate-cone
// memo from parallel semantic evaluations: the stores are sized past the
// semantic scan floor, so bound-side patterns go through
// ontology.Store.SemCone. Each seed builds the same store twice; the serial
// answers come from the first, and the goroutines start on the second while
// its memo is cold. Both stores must end with the same memo contents.
func TestConcurrentEvalSemanticLargeStore(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		serial, elems, rels := largeSemStore(rand.New(rand.NewSource(4000 + seed)))
		cold, _, _ := largeSemStore(rand.New(rand.NewSource(4000 + seed)))
		rng := rand.New(rand.NewSource(seed))
		constE := func() sparql.Term { return sparql.ConstTerm(elems[rng.Intn(len(elems))]) }
		var bgps []sparql.BGP
		for i := 0; i < 8; i++ {
			bgps = append(bgps,
				sparql.BGP{{S: constE(), P: sparql.ConstTerm(rels[0]), O: sparql.VarTerm("x")}},
				sparql.BGP{{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: constE()}},
				sparql.BGP{
					{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[0]), O: constE()},
					{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rels[1]), O: sparql.VarTerm("y")},
				})
		}
		want := make([][]Binding, len(bgps))
		es := sparql.NewEvaluator(serial)
		es.Semantic = true
		for i, bgp := range bgps {
			var err error
			if want[i], err = evalBindings(es, bgp); err != nil {
				t.Fatal(err)
			}
		}
		ec := sparql.NewEvaluator(cold)
		ec.Semantic = true
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range bgps {
					i := (k + g) % len(bgps)
					got, err := evalBindings(ec, bgps[i])
					if err != nil {
						t.Error(err)
						return
					}
					if !bindingsEqual(got, want[i]) {
						t.Errorf("seed %d query %d: concurrent semantic evaluation diverged", seed, i)
					}
				}
			}(g)
		}
		wg.Wait()
		if st := serial.ConeStats(); st.Cold == 0 {
			t.Fatalf("seed %d: no candidate cone was built; the store is too small to test the memo", seed)
		} else if cold.ConeStats() != st {
			t.Fatalf("seed %d: concurrent memo fill %+v, serial %+v", seed, cold.ConeStats(), st)
		}
	}
}
