package oassis_test

import (
	"bytes"
	"strings"
	"testing"

	"oassis"
	"oassis/internal/paperdata"
)

// fixture loads the paper's Figure 1 ontology through the public API.
func fixture(t *testing.T) (*oassis.Vocabulary, *oassis.Ontology) {
	t.Helper()
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		t.Fatal(err)
	}
	return v, store
}

func table3Members(t *testing.T, v *oassis.Vocabulary) []oassis.Member {
	t.Helper()
	du1, du2 := paperdata.Table3(v)
	m1 := oassis.NewSimMember("u1", v, du1, 1)
	m1.Scale = nil
	m2 := oassis.NewSimMember("u2", v, du2, 2)
	m2.Scale = nil
	return []oassis.Member{m1, m2}
}

// TestEndToEndPaperExample runs the whole pipeline on the paper's running
// example through the public API only.
func TestEndToEndPaperExample(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if session.ValidAssignments() != 42 {
		t.Fatalf("valid assignments = %d, want 42", session.ValidAssignments())
	}
	if session.Theta() != 0.4 {
		t.Fatalf("theta = %v", session.Theta())
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ValidMSPs) != 3 {
		for _, m := range res.MSPs {
			t.Logf("MSP: %s", session.DescribeAssignment(m))
		}
		t.Fatalf("valid MSPs = %d, want 3", len(res.ValidMSPs))
	}
	// Answers render to natural language.
	descs := map[string]bool{}
	for _, fs := range session.FactSets(res.ValidMSPs) {
		descs[session.Describe(fs)] = true
	}
	found := false
	for d := range descs {
		if strings.Contains(d, "Biking") && strings.Contains(d, "Central Park") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a biking-in-Central-Park answer, got %v", descs)
	}
}

func TestRunSingleStrategies(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	du1, _ := paperdata.Table3(v)
	m := oassis.NewSimMember("u1", v, du1, 1)
	m.Scale = nil
	for _, st := range []oassis.Strategy{oassis.Vertical, oassis.Horizontal, oassis.Naive} {
		session, err := oassis.NewSession(store, q, oassis.WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := session.RunSingle(m, st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Questions == 0 {
			t.Errorf("%v: no questions", st)
		}
	}
}

func TestSessionOptions(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.QueryText, v) // uses MORE
	if err != nil {
		t.Fatal(err)
	}
	pool := oassis.FactSet{paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse")}
	session, err := oassis.NewSession(store, q,
		oassis.WithSeed(3),
		oassis.WithMorePool(pool),
		oassis.WithSpecializationRatio(0.5),
		oassis.WithMaxQuestionsPerMember(200),
		oassis.WithConsistencyFilter(),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MSPs) == 0 {
		t.Fatal("no MSPs")
	}
}

func TestSemanticWhereOption(t *testing.T) {
	v, store := fixture(t)
	// In exact mode $g instanceOf Park matches the two park instances;
	// in semantic mode ⟨Park, instanceOf, Park⟩ is also implied
	// (Definition 2.5), adding a third assignment.
	q, err := oassis.ParseQuery(`
SELECT FACT-SETS
WHERE $g instanceOf Park
SATISFYING [] doAt $g
WITH SUPPORT = 0.4`, v)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := oassis.NewSession(store, q)
	if err != nil {
		t.Fatal(err)
	}
	semantic, err := oassis.NewSession(store, q, oassis.WithSemanticWhere())
	if err != nil {
		t.Fatal(err)
	}
	if semantic.ValidAssignments() <= exact.ValidAssignments() {
		t.Errorf("semantic mode should accept more assignments: %d vs %d",
			semantic.ValidAssignments(), exact.ValidAssignments())
	}
}

func TestRunWithoutMembers(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	session, err := oassis.NewSession(store, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(nil); err == nil {
		t.Fatal("empty crowd accepted")
	}
}

// TestPlatformPublicAPI fills a platform through a session, persists it
// with Save and LoadPlatform, and re-runs the query on the restored
// platform: every answer replays without a live question.
func TestPlatformPublicAPI(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	run := func(answers *oassis.Platform) *oassis.Result {
		session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
			oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)),
			oassis.WithPlatform(answers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := session.Run(table3Members(t, v))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	answers := oassis.NewPlatform(oassis.PlatformConfig{})
	res1 := run(answers)
	if answers.Len() == 0 {
		t.Fatal("platform not populated")
	}
	var buf bytes.Buffer
	if err := answers.Save(&buf, v); err != nil {
		t.Fatal(err)
	}
	restored, err := oassis.LoadPlatform(&buf, v, oassis.PlatformConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res2 := run(restored)
	if st := restored.Stats(); st.Misses != 0 || st.Hits != res2.Stats.Questions {
		t.Errorf("re-run on the restored platform: %+v, want %d hits and no misses", st, res2.Stats.Questions)
	}
	if len(res2.ValidMSPs) != len(res1.ValidMSPs) {
		t.Errorf("restored run found %d valid MSPs, want %d", len(res2.ValidMSPs), len(res1.ValidMSPs))
	}
}

func TestWriteOntologyRoundTrip(t *testing.T) {
	_, store := fixture(t)
	var buf bytes.Buffer
	if err := oassis.WriteOntology(&buf, store); err != nil {
		t.Fatal(err)
	}
	v2, store2, err := oassis.LoadOntology(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if store2.Size() != store.Size() {
		t.Fatalf("round trip size %d != %d", store2.Size(), store.Size())
	}
	if v2.Element("Central Park") == -1 {
		t.Fatal("names lost")
	}
}
