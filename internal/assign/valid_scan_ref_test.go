package assign_test

import (
	"math/rand"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
)

// unboundQuery leaves $y out of the WHERE clause: it ranges over the whole
// element namespace, and no valid row binds it.
const unboundQuery = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.4`

// scanMark is one mark fed to a ValidScan.
type scanMark struct {
	a   *assign.Assignment
	sig bool
}

// classifiedNaive is the reference for ValidScan.Classified: the number of
// valid rows some mark classifies — ψ ≤ m for a significant mark m, m ≤ ψ
// for an insignificant one — by a Space.Leq scan of every row against
// every mark.
func classifiedNaive(sp *assign.Space, marks []scanMark) int {
	n := 0
	for _, psi := range sp.Valid() {
		for _, m := range marks {
			if m.sig && sp.Leq(psi, m.a) || !m.sig && sp.Leq(m.a, psi) {
				n++
				break
			}
		}
	}
	return n
}

// scanTally counts what the reference test exercised.
type scanTally struct {
	sigHits, insigHits int // marks that newly classified some row
	moreMarks          int // marks carrying MORE facts
}

// checkValidScan feeds fresh scans random sequences of significant and
// insignificant marks — lattice nodes reached by random walks, valid rows
// and their generalizations — and after every mark compares Classified
// with the brute-force count over all marks so far.
func checkValidScan(t *testing.T, tag string, sp *assign.Space, rng *rand.Rand, tally *scanTally) {
	t.Helper()
	var pool []*assign.Assignment
	for i := 0; i < 80; i++ {
		pool = append(pool, walkSpace(sp, rng, rng.Intn(8)))
	}
	for i := 0; i < 20; i++ {
		psi := sp.Valid()[rng.Intn(len(sp.Valid()))]
		pool = append(pool, sp.Canon(psi))
		if preds := sp.Predecessors(psi); len(preds) > 0 {
			pool = append(pool, preds[rng.Intn(len(preds))])
		}
	}
	for seq := 0; seq < 12; seq++ {
		scan := sp.NewValidScan()
		var marks []scanMark
		prev := 0
		for i := 0; i < 15; i++ {
			m := scanMark{a: pool[rng.Intn(len(pool))], sig: rng.Intn(2) == 0}
			marks = append(marks, m)
			scan.Mark(m.a, m.sig)
			got, want := scan.Classified(), classifiedNaive(sp, marks)
			if got != want {
				t.Fatalf("%s: after %d marks (last %s, sig=%v) Classified = %d, reference says %d",
					tag, len(marks), m.a.Key(), m.sig, got, want)
			}
			if got > prev {
				if m.sig {
					tally.sigHits++
				} else {
					tally.insigHits++
				}
			}
			if len(m.a.More()) > 0 {
				tally.moreMarks++
			}
			prev = got
		}
	}
}

// TestValidScanAgreesWithLeq pins ValidScan's per-value counting against a
// brute-force Space.Leq scan on synthetic DAGs (with and without
// multiplicities), on the Figure 1 queries with multiplicities, a Min-0
// variable, a variable the WHERE clause leaves unbound and MORE facts.
func TestValidScanAgreesWithLeq(t *testing.T) {
	var tally scanTally
	for _, seed := range []int64{3, 11, 29} {
		cfg := synth.DAGConfig{Width: 40, Depth: 4, MSPPercent: 0.05, Seed: seed}
		if seed != 11 {
			cfg.MultiMSPPercent, cfg.MultiMSPSize = 0.05, 2
		}
		d, err := synth.NewDAG(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		checkValidScan(t, "dag", d.Space, rng, &tally)
	}
	v, _ := paperdata.Build()
	morePool := ontology.NewFactSet(
		paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse"),
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
	)
	for _, q := range []struct {
		tag, text string
		pool      ontology.FactSet
	}{
		{"mult", multQuery, nil},
		{"star", starQuery, nil},
		{"unbound", unboundQuery, nil},
		{"figure2+more", paperdata.QueryText, morePool},
	} {
		rng := rand.New(rand.NewSource(7))
		sp, _ := buildSpace(t, q.text, q.pool)
		checkValidScan(t, q.tag, sp, rng, &tally)
	}
	if tally.sigHits == 0 || tally.insigHits == 0 || tally.moreMarks == 0 {
		t.Fatalf("cases not all exercised: %+v", tally)
	}
	t.Logf("exercised: %+v", tally)
}
