package rules_test

import (
	"math"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/rules"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// run mines the simple paper query against u1's personal DB at theta and
// returns the session pieces the rule miner needs.
func run(t *testing.T, theta float64) (*assign.Space, *core.Result, *vocab.Vocabulary) {
	t.Helper()
	v, store := paperdata.Build()
	q, err := oassisql.Parse(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(store).Compile(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := assign.NewSpaceFromPlan(q, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	du1, _ := paperdata.Table3(v)
	m := crowd.NewSimMember("u1", v, du1, 1)
	m.Scale = nil // exact answers, so confidences match hand calculation
	res := (&core.SingleUser{Space: sp, Member: m, Theta: theta, Seed: 1}).Run()
	return sp, res, v
}

func TestMineRulesFromPaperData(t *testing.T) {
	sp, res, v := run(t, 1.0/6.0)
	got := rules.Mine(sp, res, 1.0/6.0, 0.5)
	if len(got) == 0 {
		t.Fatal("no rules mined")
	}
	// Every rule's arithmetic must agree with the ground-truth supports
	// recomputed directly over u1's personal database.
	du1, _ := paperdata.Table3(v)
	nontrivial := false
	for _, r := range got {
		ante := sp.Instantiate(r.From)
		full := sp.Instantiate(r.To)
		sa := ontology.Support(v, du1, ante)
		sf := ontology.Support(v, du1, full)
		if sa == 0 {
			t.Fatalf("rule with unsupported antecedent: %s", ante.String(v))
		}
		wantConf := sf / sa
		if wantConf > 1 {
			wantConf = 1
		}
		if math.Abs(r.Confidence-wantConf) > 1e-9 {
			t.Errorf("confidence = %v, want %v for %s => %s",
				r.Confidence, wantConf, ante.String(v), r.Consequent.String(v))
		}
		if math.Abs(r.Support-sf) > 1e-9 {
			t.Errorf("support = %v, want %v", r.Support, sf)
		}
		if r.Confidence < 1 {
			nontrivial = true
		}
	}
	if !nontrivial {
		t.Error("expected at least one rule with confidence below 1")
	}
	// Rules are sorted most-confident first.
	for i := 1; i < len(got); i++ {
		if got[i].Confidence > got[i-1].Confidence {
			t.Fatal("rules not sorted by confidence")
		}
	}
}

func TestMineRulesConfidenceFilter(t *testing.T) {
	sp, res, _ := run(t, 1.0/6.0)
	all := rules.Mine(sp, res, 1.0/6.0, 0)
	strict := rules.Mine(sp, res, 1.0/6.0, 0.9)
	if len(strict) > len(all) {
		t.Fatal("stricter confidence grew the rule set")
	}
	for _, r := range strict {
		if r.Confidence < 0.9 {
			t.Errorf("rule below confidence threshold: %v", r.Confidence)
		}
	}
	// Every rule's full pattern must meet the support threshold.
	for _, r := range all {
		if r.Support < 1.0/6.0 {
			t.Errorf("rule below support threshold: %v", r.Support)
		}
		if r.Confidence < 0 || r.Confidence > 1 {
			t.Errorf("confidence out of range: %v", r.Confidence)
		}
	}
}

func TestMineRulesEmptyResult(t *testing.T) {
	// A member with an empty history finds nothing significant, hence no
	// rules.
	v, store := paperdata.Build()
	q, err := oassisql.Parse(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(store).Compile(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := assign.NewSpaceFromPlan(q, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := crowd.NewSimMember("empty", v, nil, 1)
	res := (&core.SingleUser{Space: sp, Member: m, Theta: 0.4, Seed: 1}).Run()
	if got := rules.Mine(sp, res, 0.4, 0); len(got) != 0 {
		t.Fatalf("rules from empty result: %d", len(got))
	}
}
