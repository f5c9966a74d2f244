package sparql

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// multiParentStore builds a random store past semScanFloor over a
// multi-parent element DAG: every element after the first gets 1–3 parents
// among the earlier ones (fewer when a draw repeats), so descendant cones
// overlap and a fact sits in the cones of several unrelated anchors.
func multiParentStore(rng *rand.Rand) (*ontology.Store, []vocab.TermID, []vocab.TermID) {
	v := vocab.New()
	nElem := 40 + rng.Intn(40)
	elems := make([]vocab.TermID, nElem)
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("e%d", i))
		for k := 0; i > 0 && k < 1+rng.Intn(3); k++ {
			if err := v.OrderElements(elems[rng.Intn(i)], elems[i]); err != nil {
				panic(err)
			}
		}
	}
	rels := []vocab.TermID{v.MustRelation("r0"), v.MustRelation("r1")}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	for i := 0; i < 300+rng.Intn(400); i++ {
		s.MustAdd(ontology.Fact{
			S: elems[rng.Intn(nElem)],
			P: rels[rng.Intn(len(rels))],
			O: elems[rng.Intn(nElem)],
		})
	}
	s.Freeze()
	return s, elems, rels
}

// TestSemCandidatesMatchesScan pins the index-driven candidate collection
// of semantic triple matching to its specification: for any bound sides,
// semCandidates must return exactly the subsequence of FactsWithPredicate
// that survives the bound-side ≤ filters — same facts, same order — since
// runSemTriple's emission order (and therefore downstream row order and
// space interning order) depends on it. A subject bound by a variable
// (sVar) must in addition equal the stored subject, since trySet requires
// it. Every candidate on a side reported exact must pass that side's ≤
// test, because runSemTriple skips it. Every (predicate, side, term) is
// asked twice: the first call builds the store's cone memo, the second
// must be served from it with an identical answer and without moving
// ConeStats. Stores are sized well past semScanFloor
// over multi-parent vocabularies so the cone path actually engages.
func TestSemCandidatesMatchesScan(t *testing.T) {
	kept := 0
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, elems, rels := multiParentStore(rng)
		v := s.Vocabulary()
		pl := &Plan{store: s, v: v}
		check := func(pred, sub vocab.TermID, sOK, sVar bool, obj vocab.TermID, oOK bool) {
			t.Helper()
			cold, coldSide := pl.semCandidates(pred, sub, sOK, sVar, obj, oOK)
			before := s.ConeStats()
			warm, warmSide := pl.semCandidates(pred, sub, sOK, sVar, obj, oOK)
			if s.ConeStats() != before {
				t.Fatalf("seed %d: warm call moved ConeStats %+v -> %+v", seed, before, s.ConeStats())
			}
			if warmSide != coldSide || !slices.Equal(warm, cold) {
				t.Fatalf("seed %d pred %d s=%d/%v o=%d/%v: warm call (side %d, %d facts) differs from cold (side %d, %d facts)",
					seed, pred, sub, sOK, obj, oOK, warmSide, len(warm), coldSide, len(cold))
			}
			if coldSide != semNone && !sVar {
				kept++
			}
			var want []ontology.Fact
			for _, g := range s.FactsWithPredicate(pred) {
				if sOK && !v.LeqE(sub, g.S) || sVar && g.S != sub {
					continue
				}
				if oOK && !v.LeqE(obj, g.O) {
					continue
				}
				want = append(want, g)
			}
			// semCandidates may return a superset when it falls back to the
			// full scan or only one side is index-filtered; the invariant is
			// that the survivors of the caller's filters, in order, are
			// exactly `want`. Apply the caller's filters to `got`, except on
			// the exact side, where every candidate must already pass.
			var filtered []ontology.Fact
			for _, g := range cold {
				if coldSide == semSubject && !v.LeqE(sub, g.S) {
					t.Fatalf("seed %d: subject-exact candidate %+v fails %d ≤ S", seed, g, sub)
				}
				if coldSide == semObject && !v.LeqE(obj, g.O) {
					t.Fatalf("seed %d: object-exact candidate %+v fails %d ≤ O", seed, g, obj)
				}
				if sOK && !v.LeqE(sub, g.S) || sVar && g.S != sub {
					continue
				}
				if oOK && !v.LeqE(obj, g.O) {
					continue
				}
				filtered = append(filtered, g)
			}
			if !slices.Equal(filtered, want) {
				t.Fatalf("seed %d pred %d s=%d/%v o=%d/%v: %d candidates survive, want %d",
					seed, pred, sub, sOK, obj, oOK, len(filtered), len(want))
			}
		}
		for _, pred := range rels {
			for _, e := range elems {
				check(pred, e, true, false, vocab.NoTerm, false)
				check(pred, vocab.NoTerm, false, false, e, true)
				check(pred, e, true, true, vocab.NoTerm, false)
			}
		}
		for trial := 0; trial < 40; trial++ {
			pred := rels[rng.Intn(len(rels))]
			sub, obj := elems[rng.Intn(len(elems))], elems[rng.Intn(len(elems))]
			check(pred, sub, true, false, obj, true)
			check(pred, sub, true, true, obj, true)
			check(pred, vocab.NoTerm, false, false, vocab.NoTerm, false)
		}
	}
	if kept == 0 {
		t.Fatal("no call took the cone path; the stores are too small to test it")
	}
}
