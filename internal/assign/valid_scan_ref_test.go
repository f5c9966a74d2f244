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

// addScanRows appends valid rows no WHERE clause produces, cycling through
// three shapes: a row leaving one bound variable out, a row binding two
// values to one variable, and (when pool is non-empty) a row carrying a
// MORE fact. It must run before the space's first closure check.
func addScanRows(sp *assign.Space, rng *rand.Rand, pool ontology.FactSet) {
	var bound []string
	for _, vs := range sp.Vars() {
		if vs.Bound {
			bound = append(bound, vs.Name)
		}
	}
	valid := sp.Valid()
	for i := 0; i < 24; i++ {
		r1, r2 := valid[rng.Intn(len(valid))], valid[rng.Intn(len(valid))]
		vals := map[string][]vocab.TermID{}
		for _, name := range bound {
			vals[name] = r1.Values(name)
		}
		var more ontology.FactSet
		name := bound[rng.Intn(len(bound))]
		switch i % 3 {
		case 0:
			delete(vals, name)
		case 1:
			vals[name] = append(append([]vocab.TermID{}, vals[name]...), r2.Values(name)...)
		case 2:
			if len(pool) == 0 {
				continue
			}
			more = ontology.NewFactSet(pool[rng.Intn(len(pool))])
		}
		sp.AddValidRow(assign.New(sp.Vocabulary(), sp.Kinds(), vals, more))
	}
}

// scanTally counts what the reference test exercised.
type scanTally struct {
	sigHits, insigHits  int // marks that newly classified some row
	moreMarks           int // marks carrying MORE facts
	multiRows, moreRows int // valid rows binding several values / MORE facts
	noneRows            int // valid rows leaving a bound variable out
}

// checkValidScan feeds fresh scans random sequences of significant and
// insignificant marks — lattice nodes reached by random walks, valid rows
// and their generalizations — and after every mark compares Classified
// with the brute-force count over all marks so far.
func checkValidScan(t *testing.T, tag string, sp *assign.Space, rng *rand.Rand, tally *scanTally) {
	t.Helper()
	for _, psi := range sp.Valid() {
		if len(psi.More()) > 0 {
			tally.moreRows++
		}
		for _, vs := range sp.Vars() {
			switch n := len(psi.Values(vs.Name)); {
			case n > 1:
				tally.multiRows++
			case n == 0 && vs.Bound:
				tally.noneRows++
			}
		}
	}
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
// variable, a variable the WHERE clause leaves unbound and MORE facts, and
// on spaces whose valid rows bind several values, no value, or MORE facts.
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

		sp, _, err := assign.NewSpaceFromPlan(d.Query, d.Plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		addScanRows(sp, rng, nil)
		checkValidScan(t, "dag+odd rows", sp, rng, &tally)
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
		sp, _ = buildSpace(t, q.text, q.pool)
		addScanRows(sp, rng, q.pool)
		checkValidScan(t, q.tag+"+odd rows", sp, rng, &tally)
	}
	if tally.sigHits == 0 || tally.insigHits == 0 || tally.moreMarks == 0 ||
		tally.multiRows == 0 || tally.moreRows == 0 || tally.noneRows == 0 {
		t.Fatalf("cases not all exercised: %+v", tally)
	}
	t.Logf("exercised: %+v", tally)
}
