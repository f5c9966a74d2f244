package oassis_test

import (
	"strings"
	"testing"
	"time"

	"oassis"
)

// limitQuery asks for the top-k activity patterns; the base query has three
// MSPs at Θ=0.4 for the Table 3 crowd.
func limitQuery(limit string) string {
	return `
SELECT FACT-SETS ` + limit + `
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y doAt $x
WITH SUPPORT = 0.4`
}

func TestParseLimitAndDiverse(t *testing.T) {
	v, _ := fixture(t)
	q, err := oassis.ParseQuery(limitQuery("LIMIT 2"), v)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 2 || q.Diverse {
		t.Fatalf("Limit=%d Diverse=%v", q.Limit, q.Diverse)
	}
	q, err = oassis.ParseQuery(limitQuery("LIMIT 2 DIVERSE"), v)
	if err != nil {
		t.Fatal(err)
	}
	if q.Limit != 2 || !q.Diverse {
		t.Fatalf("Limit=%d Diverse=%v", q.Limit, q.Diverse)
	}
	// Round trip through the printer.
	q2, err := oassis.ParseQuery(q.String(), v)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, q.String())
	}
	if q2.Limit != 2 || !q2.Diverse {
		t.Fatal("LIMIT DIVERSE lost in round trip")
	}
	// Errors.
	for _, bad := range []string{"LIMIT", "LIMIT 0", "LIMIT x"} {
		if _, err := oassis.ParseQuery(limitQuery(bad), v); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseConfidence(t *testing.T) {
	v, _ := fixture(t)
	q, err := oassis.ParseQuery(strings.Replace(limitQuery(""),
		"WITH SUPPORT = 0.4", "WITH SUPPORT = 0.4 CONFIDENCE = 0.7", 1), v)
	if err != nil {
		t.Fatal(err)
	}
	if q.Satisfying.Confidence != 0.7 {
		t.Fatalf("Confidence = %v", q.Satisfying.Confidence)
	}
	// Out of range.
	if _, err := oassis.ParseQuery(strings.Replace(limitQuery(""),
		"WITH SUPPORT = 0.4", "WITH SUPPORT = 0.4 CONFIDENCE = 1.5", 1), v); err == nil {
		t.Fatal("accepted confidence > 1")
	}
}

func TestTopKStopsEarly(t *testing.T) {
	v, store := fixture(t)
	full, err := oassis.ParseQuery(limitQuery(""), v)
	if err != nil {
		t.Fatal(err)
	}
	limited, err := oassis.ParseQuery(limitQuery("LIMIT 1"), v)
	if err != nil {
		t.Fatal(err)
	}
	runQ := func(q *oassis.Query) *oassis.Result {
		session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
			oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := session.Run(table3Members(t, v))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fullRes := runQ(full)
	topRes := runQ(limited)
	if len(topRes.MSPs) != 1 {
		t.Fatalf("LIMIT 1 returned %d MSPs", len(topRes.MSPs))
	}
	if topRes.Stats.Questions >= fullRes.Stats.Questions {
		t.Errorf("top-1 run asked %d questions, full run %d — early stop saved nothing",
			topRes.Stats.Questions, fullRes.Stats.Questions)
	}
}

func TestDiverseSelection(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(limitQuery("LIMIT 2 DIVERSE"), v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValidMSPs) != 2 {
		t.Fatalf("DIVERSE LIMIT 2 returned %d MSPs", len(res.ValidMSPs))
	}
	// The full result has (CP, Biking), (CP, Ball Game), (BZ, Feed a
	// monkey). The two Central Park answers are semantically close; a
	// diverse pick must keep the Bronx Zoo answer.
	foundZoo := false
	for _, m := range res.ValidMSPs {
		if m.Values("x")[0] == v.Element("Bronx Zoo") {
			foundZoo = true
		}
	}
	if !foundZoo {
		for _, m := range res.ValidMSPs {
			t.Logf("picked: %s", session.DescribeAssignment(m))
		}
		t.Error("diverse selection dropped the semantically distant answer")
	}
}

func TestOnMSPStreaming(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(limitQuery(""), v)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []string
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)),
		oassis.WithOnMSP(func(a *oassis.Assignment) {
			streamed = append(streamed, a.Key())
		}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.MSPs) {
		t.Fatalf("streamed %d MSPs, result has %d", len(streamed), len(res.MSPs))
	}
	want := map[string]bool{}
	for _, m := range res.MSPs {
		want[m.Key()] = true
	}
	for _, k := range streamed {
		if !want[k] {
			t.Errorf("streamed non-result MSP %s", k)
		}
	}
}

// TestMineRulesFacade exercises the CONFIDENCE-driven rule mining through
// the public API.
func TestMineRulesFacade(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(strings.Replace(limitQuery(""),
		"WITH SUPPORT = 0.4", "WITH SUPPORT = 0.2 CONFIDENCE = 0.5", 1), v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.2)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	rulesOut := session.MineRules(res, 0)
	if len(rulesOut) == 0 {
		t.Fatal("no rules mined via facade")
	}
	for _, r := range rulesOut {
		if r.Confidence < 0.5 {
			t.Errorf("rule below the query's CONFIDENCE: %v", r.Confidence)
		}
		if s := session.DescribeRule(r); !strings.Contains(s, "usually also") {
			t.Errorf("rule rendering broken: %q", s)
		}
	}
}

// TestParallelSessionOption serves a session's members concurrently
// through RunBroker: the answer set must not depend on the order the
// replies arrive in.
func TestParallelSessionOption(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(limitQuery(""), v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := runSessionConcurrent(session, table3Members(t, v), time.Now, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValidMSPs) != 3 {
		t.Fatalf("parallel session found %d valid MSPs, want 3", len(res.ValidMSPs))
	}
}
