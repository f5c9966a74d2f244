package assign_test

import (
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// everyProductNaive reports whether every singleton product of a's value
// sets over the bound variables it binds is matched by some valid
// assignment: one whose value set for each product variable is exactly one
// value w with match(kind, pick, w). It reads the valid assignments through
// Values only and shares no code with the space's column index.
func everyProductNaive(sp *assign.Space, a *assign.Assignment, match func(vocab.Kind, vocab.TermID, vocab.TermID) bool) bool {
	var vars []assign.VarSpec
	for _, vs := range sp.Vars() {
		if vs.Bound && len(a.Values(vs.Name)) > 0 {
			vars = append(vars, vs)
		}
	}
	products := [][]vocab.TermID{nil}
	for _, vs := range vars {
		var next [][]vocab.TermID
		for _, p := range products {
			for _, v := range a.Values(vs.Name) {
				next = append(next, append(append([]vocab.TermID{}, p...), v))
			}
		}
		products = next
	}
	for _, p := range products {
		found := false
		for _, psi := range sp.Valid() {
			ok := true
			for i, vs := range vars {
				pv := psi.Values(vs.Name)
				if len(pv) != 1 || !match(vs.Kind, p[i], pv[0]) {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// inClosureNaive is the reference for Space.InClosure.
func inClosureNaive(sp *assign.Space, a *assign.Assignment) bool {
	v := sp.Vocabulary()
	if !everyProductNaive(sp, a, v.Leq) {
		return false
	}
	for _, f := range a.More() {
		ok := false
		for _, g := range sp.MorePool() {
			if ontology.LeqFact(v, f, g) {
				ok = true
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// isValidNaive is the reference for Space.IsValid.
func isValidNaive(sp *assign.Space, a *assign.Assignment) bool {
	for _, vs := range sp.Vars() {
		n := len(a.Values(vs.Name))
		if !vs.Mult.Allows(n) || (vs.Bound && n == 0 && vs.Mult.Min > 0) {
			return false
		}
	}
	return everyProductNaive(sp, a, func(_ vocab.Kind, x, w vocab.TermID) bool { return x == w })
}

// randomAssignment draws 0–3 values per variable from terms.
func randomAssignment(sp *assign.Space, rng *rand.Rand, terms map[string][]vocab.TermID) *assign.Assignment {
	vals := map[string][]vocab.TermID{}
	for _, vs := range sp.Vars() {
		pool := terms[vs.Name]
		if len(pool) == 0 {
			continue
		}
		for n := rng.Intn(4); n > 0; n-- {
			vals[vs.Name] = append(vals[vs.Name], pool[rng.Intn(len(pool))])
		}
	}
	return assign.New(sp.Vocabulary(), sp.Kinds(), vals, nil)
}

// checkClosureAgainstNaive compares InClosure and IsValid with the naive
// oracles on random walks through sp and on random value combinations,
// tallying the (in closure, valid) verdict pairs in count.
func checkClosureAgainstNaive(t *testing.T, tag string, sp *assign.Space, rng *rand.Rand, count map[[2]bool]int) {
	t.Helper()
	var pool []*assign.Assignment
	for i := 0; i < 60; i++ {
		pool = append(pool, walkSpace(sp, rng, rng.Intn(7)))
	}
	// Values from the walks and valid rows, plus arbitrary elements that
	// may lie outside the closure altogether.
	terms := map[string][]vocab.TermID{}
	for _, a := range append(append([]*assign.Assignment{}, pool...), sp.Valid()...) {
		for _, name := range a.Vars() {
			terms[name] = append(terms[name], a.Values(name)...)
		}
	}
	elems := sp.Vocabulary().ElementsTopo()
	for _, vs := range sp.Vars() {
		for i := 0; vs.Kind == vocab.Element && i < 5; i++ {
			terms[vs.Name] = append(terms[vs.Name], elems[rng.Intn(len(elems))])
		}
	}
	for i := 0; i < 200; i++ {
		pool = append(pool, randomAssignment(sp, rng, terms))
	}
	pool = append(pool, sp.Valid()...)
	for _, a := range pool {
		// Twice: the second call is answered from the memo tables.
		for rep := 0; rep < 2; rep++ {
			in, wantIn := sp.InClosure(a), inClosureNaive(sp, a)
			if in != wantIn {
				t.Fatalf("%s: InClosure(%s) = %v, reference says %v", tag, a.Key(), in, wantIn)
			}
			ok, wantOK := sp.IsValid(a), isValidNaive(sp, a)
			if ok != wantOK {
				t.Fatalf("%s: IsValid(%s) = %v, reference says %v", tag, a.Key(), ok, wantOK)
			}
			count[[2]bool{in, ok}]++
		}
	}
}

// TestClosureAgreesWithNaiveReference pins the column-indexed closure and
// validity checks against a Values-scan oracle, on synthetic multiplicity
// DAGs and the Figure 1 queries.
func TestClosureAgreesWithNaiveReference(t *testing.T) {
	count := map[[2]bool]int{}
	for _, seed := range []int64{3, 29} {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: 40, Depth: 4, MSPPercent: 0.05,
			MultiMSPPercent: 0.05, MultiMSPSize: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		checkClosureAgainstNaive(t, "dag", d.Space, rng, count)
	}
	for _, q := range []struct{ tag, text string }{
		{"mult", multQuery}, {"star", starQuery}, {"figure2", paperdata.QueryText},
	} {
		rng := rand.New(rand.NewSource(7))
		sp, _ := buildSpace(t, q.text, nil)
		checkClosureAgainstNaive(t, q.tag, sp, rng, count)
	}
	if count[[2]bool{true, true}] == 0 || count[[2]bool{true, false}] == 0 || count[[2]bool{false, false}] == 0 {
		t.Fatalf("verdicts not all exercised: %v", count)
	}
	t.Logf("(in closure, valid) verdicts: %v", count)
}
