package oassis_test

import (
	"strings"
	"testing"

	"oassis"
	"oassis/internal/paperdata"
)

// TestEvolveOntologyWithPlatformReplay exercises the Section 8 evolution
// flow: run a query on a platform, grow the ontology with a new activity,
// rekey the platform, and re-run — the old region replays free, only the
// new region costs fresh questions, and a pattern over the new term can
// surface.
func TestEvolveOntologyWithPlatformReplay(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	answers := oassis.NewPlatform(oassis.PlatformConfig{})

	// First run: the Table 3 crowd, through the platform.
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)),
		oassis.WithPlatform(answers))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := session.Run(table3Members(t, v))
	if err != nil {
		t.Fatal(err)
	}
	first := answers.Stats()
	firstMisses := first.Misses
	if firstMisses == 0 {
		t.Fatal("first run asked nothing")
	}

	// The crowd's answers reveal a new activity: grow the ontology.
	v2, store2, err := oassis.EvolveOntology(store, `
Rollerblading subClassOf Sport
`)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Element("Rollerblading") == -1 {
		t.Fatal("new term missing after evolution")
	}
	// Old facts and orders survive.
	if !v2.LeqE(v2.Element("Sport"), v2.Element("Biking")) {
		t.Fatal("old order lost")
	}

	// Rekey the platform and re-run against the evolved ontology. The
	// crowd must be rebuilt over the new vocabulary (same histories).
	if err := answers.Rekey(v, v2); err != nil {
		t.Fatal(err)
	}
	du1, du2 := rebuildTable3(t, v2)
	m1 := oassis.NewSimMember("u1", v2, du1, 1)
	m1.Scale = nil
	m2 := oassis.NewSimMember("u2", v2, du2, 2)
	m2.Scale = nil

	q2, err := oassis.ParseQuery(paperdata.SimpleQueryText, v2)
	if err != nil {
		t.Fatal(err)
	}
	session2, err := oassis.NewSession(store2, q2, oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)),
		oassis.WithPlatform(answers))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := session2.Run([]oassis.Member{m1, m2})
	if err != nil {
		t.Fatal(err)
	}
	// The second run must be mostly replay: fresh questions only for the
	// new region (Rollerblading under Sport at each attraction).
	second := answers.Stats()
	fresh := second.Misses - firstMisses
	if fresh >= firstMisses/2 {
		t.Errorf("evolution re-run asked %d fresh questions (first run: %d) — platform rekey failed",
			fresh, firstMisses)
	}
	if second.Hits == first.Hits {
		t.Error("no replayed answers after rekey")
	}
	// The same MSPs survive (nobody rollerblades in the histories).
	if len(res2.ValidMSPs) != len(res1.ValidMSPs) {
		t.Errorf("MSPs changed across evolution: %d vs %d",
			len(res2.ValidMSPs), len(res1.ValidMSPs))
	}
}

// rebuildTable3 rebuilds the Table 3 databases over an evolved vocabulary.
func rebuildTable3(t *testing.T, v2 *oassis.Vocabulary) (du1, du2 []oassis.FactSet) {
	t.Helper()
	return paperdata.Table3(v2)
}

func TestEvolveOntologyRejectsBadAdditions(t *testing.T) {
	_, store := fixture(t)
	if _, _, err := oassis.EvolveOntology(store, "Sport subClassOf Biking"); err == nil {
		t.Fatal("cycle-introducing evolution accepted")
	}
	if _, _, err := oassis.EvolveOntology(store, "a subClassOf"); err == nil {
		t.Fatal("malformed addition accepted")
	}
}

func TestPlatformRekeyDropsRemovedTerms(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	answers := oassis.NewPlatform(oassis.PlatformConfig{})
	session, err := oassis.NewSession(store, q, oassis.WithSeed(1), oassis.WithPlatform(answers))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := session.Run(table3Members(t, v)); err != nil {
		t.Fatal(err)
	}
	if answers.Len() == 0 {
		t.Fatal("first run stored nothing")
	}

	// A fresh, unrelated vocabulary lacks the terms entirely.
	v2, _, err := oassis.LoadOntology(strings.NewReader("a subClassOf b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if err := answers.Rekey(v, v2); err != nil {
		t.Fatal(err)
	}
	if n := answers.Len(); n != 0 {
		t.Fatalf("rekeyed platform kept %d answers for missing terms", n)
	}
}
