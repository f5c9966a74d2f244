package ontology_test

import (
	"bytes"
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/vocab"
)

func TestStoreIndexes(t *testing.T) {
	v, s := paperdata.Build()
	inside := v.Relation("inside")
	nyc := v.Element("NYC")
	cp := v.Element("Central Park")

	subs := s.Subjects(inside, nyc)
	if len(subs) != 3 {
		t.Fatalf("Subjects(inside, NYC) = %d, want 3 (CP, Bronx Zoo, Madison Sq)", len(subs))
	}
	objs := s.Objects(cp, inside)
	if len(objs) != 1 || objs[0] != nyc {
		t.Fatalf("Objects(CP, inside) = %v, want [NYC]", objs)
	}
	if !s.Has(ontology.Fact{S: cp, P: inside, O: nyc}) {
		t.Error("Has(CP inside NYC) = false")
	}
	if s.Has(ontology.Fact{S: nyc, P: inside, O: cp}) {
		t.Error("Has(NYC inside CP) = true")
	}
	facts := s.FactsWithPredicate(inside)
	if len(facts) != 4 {
		t.Fatalf("FactsWithPredicate(inside) = %d, want 4", len(facts))
	}
}

func TestStoreLabels(t *testing.T) {
	v, s := paperdata.Build()
	cp := v.Element("Central Park")
	if !s.HasLabel(cp, "child-friendly") {
		t.Error("Central Park should be child-friendly")
	}
	if s.HasLabel(v.Element("NYC"), "child-friendly") {
		t.Error("NYC should not be child-friendly")
	}
	labeled := s.LabeledElements("child-friendly")
	if len(labeled) != 3 {
		t.Fatalf("LabeledElements = %d, want 3", len(labeled))
	}
	if len(s.LabeledElements("no-such-label")) != 0 {
		t.Error("unknown label should match nothing")
	}
}

func TestStoreMutationAfterFreeze(t *testing.T) {
	v, s := paperdata.Build() // Build freezes
	f := paperdata.Fact(v, "Pine", "inside", "NYC")
	if err := s.Add(f); err == nil {
		t.Error("Add after Freeze succeeded")
	}
	if err := s.AddLabel(v.Element("Pine"), "x"); err == nil {
		t.Error("AddLabel after Freeze succeeded")
	}
}

func TestStoreDuplicateAdd(t *testing.T) {
	v := vocab.New()
	a := v.MustElement("a")
	b := v.MustElement("b")
	r := v.MustRelation("r")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := ontology.NewStore(v)
	f := ontology.Fact{S: a, P: r, O: b}
	s.MustAdd(f)
	s.MustAdd(f)
	s.Freeze()
	if s.Size() != 1 {
		t.Fatalf("Size = %d, want 1", s.Size())
	}
	if got := s.Objects(a, r); len(got) != 1 {
		t.Fatalf("duplicate add polluted index: %v", got)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"two tokens":              "a subClassOf\n",
		"four tokens":             "a b c d\n",
		"bare @element":           "@element\n",
		"unterminated literal":    `a hasLabel "oops` + "\n",
		"subclass cycle detected": "a subClassOf b\nb subClassOf a\n",
	}
	for name, text := range cases {
		if _, _, err := ontology.Load(strings.NewReader(text)); err == nil {
			t.Errorf("%s: Load accepted %q", name, text)
		}
	}
}

func TestLoadCommentsAndBlanks(t *testing.T) {
	text := "# header\n\n  \na subClassOf b\n# trailing\n"
	v, s, err := ontology.Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 1 {
		t.Fatalf("Size = %d, want 1", s.Size())
	}
	if !v.LeqE(v.Element("b"), v.Element("a")) {
		t.Error("subClassOf should order b ≤ a")
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	_, s := paperdata.Build()
	var buf bytes.Buffer
	if err := ontology.Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	v2, s2, err := ontology.Load(&buf)
	if err != nil {
		t.Fatalf("reloading written ontology: %v", err)
	}
	if s2.Size() != s.Size() {
		t.Fatalf("round trip fact count %d != %d", s2.Size(), s.Size())
	}
	// Orders survive.
	if !v2.LeqE(v2.Element("Sport"), v2.Element("Biking")) {
		t.Error("element order lost in round trip")
	}
	if !v2.LeqR(v2.Relation("nearBy"), v2.Relation("inside")) {
		t.Error("relation order lost in round trip")
	}
	// Labels survive.
	if !s2.HasLabel(v2.Element("Central Park"), "child-friendly") {
		t.Error("labels lost in round trip")
	}
}

func TestAllFacts(t *testing.T) {
	_, s := paperdata.Build()
	all := s.AllFacts()
	if len(all) != s.Size() {
		t.Fatalf("AllFacts = %d facts, Size = %d", len(all), s.Size())
	}
	// Canonical: sorted and unique.
	for i := 1; i < len(all); i++ {
		if !all[i-1].Less(all[i]) {
			t.Fatal("AllFacts not strictly sorted")
		}
	}
}

func TestParseFormatFactRoundTrip(t *testing.T) {
	v, _ := paperdata.Build()
	for _, line := range []string{
		`Biking doAt "Central Park"`,
		`"Maoz Veg." nearBy "Central Park"`,
		`Falafel eatAt Pine`,
	} {
		f, err := ontology.ParseFact(line, v)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		printed := ontology.FormatFact(f, v)
		f2, err := ontology.ParseFact(printed, v)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if f != f2 {
			t.Errorf("round trip changed fact: %q -> %q", line, printed)
		}
	}
	for _, bad := range []string{
		"Biking doAt",                    // two tokens
		"Nothing doAt \"Central Park\"",  // unknown subject
		"Biking flysTo \"Central Park\"", // unknown relation
		"Biking doAt \"Atlantis\"",       // unknown object
	} {
		if _, err := ontology.ParseFact(bad, v); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
