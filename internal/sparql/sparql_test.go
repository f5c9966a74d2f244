package sparql_test

import (
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

func figure2WhereBGP(t *testing.T, v *vocab.Vocabulary) sparql.BGP {
	t.Helper()
	rel := func(name string) vocab.TermID {
		id := v.Relation(name)
		if id == vocab.NoTerm {
			t.Fatalf("relation %q missing", name)
		}
		return id
	}
	el := func(name string) vocab.TermID {
		id := v.Element(name)
		if id == vocab.NoTerm {
			t.Fatalf("element %q missing", name)
		}
		return id
	}
	return sparql.BGP{
		{S: sparql.VarTerm("w"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Attraction")), Star: true},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.VarTerm("w")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("inside")), O: sparql.ConstTerm(el("NYC"))},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("hasLabel")), O: sparql.LiteralTerm("child-friendly")},
		{S: sparql.VarTerm("y"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Activity")), Star: true},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.ConstTerm(el("Restaurant"))},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(rel("nearBy")), O: sparql.VarTerm("x")},
	}
}

// TestFigure2Where evaluates the full WHERE clause of the paper's sample
// query against the Figure 1 ontology.
func TestFigure2Where(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bindings, err := evalBindings(e, figure2WhereBGP(t, v))
	if err != nil {
		t.Fatal(err)
	}
	// 3 (x,z,w) combos × 14 activity values for y.
	if len(bindings) != 42 {
		t.Fatalf("got %d bindings, want 42", len(bindings))
	}
	// Spot checks: φ16 of Example 3.1 must be present.
	found16, foundWrong := false, false
	for _, b := range bindings {
		if b["x"] == v.Element("Central Park") && b["w"] == v.Element("Park") &&
			b["y"] == v.Element("Biking") && b["z"] == v.Element("Maoz Veg.") {
			found16 = true
		}
		// Pine is near the Bronx Zoo, not Central Park.
		if b["x"] == v.Element("Central Park") && b["z"] == v.Element("Pine") {
			foundWrong = true
		}
	}
	if !found16 {
		t.Error("assignment φ16 (CP, Park, Biking, Maoz) not found")
	}
	if foundWrong {
		t.Error("Pine bound to Central Park despite no nearBy edge")
	}
}

func TestStarPathClosures(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	sub := v.Relation("subClassOf")
	// Forward: Basketball subClassOf* $c climbs to Thing.
	bs, err := evalBindings(e, sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Basketball")), P: sparql.ConstTerm(sub),
		O: sparql.VarTerm("c"), Star: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[vocab.TermID]bool{
		v.Element("Basketball"): true, v.Element("Ball Game"): true,
		v.Element("Sport"): true, v.Element("Activity"): true, v.Element("Thing"): true,
	}
	if len(bs) != len(want) {
		t.Fatalf("forward closure size %d, want %d", len(bs), len(want))
	}
	for _, b := range bs {
		if !want[b["c"]] {
			t.Errorf("unexpected closure member %s", v.ElementName(b["c"]))
		}
	}
	// Zero-length: Basketball subClassOf* Basketball matches.
	bs, err = evalBindings(e, sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Basketball")), P: sparql.ConstTerm(sub),
		O: sparql.ConstTerm(v.Element("Basketball")), Star: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatalf("zero-length path should match, got %d bindings", len(bs))
	}
	// Instances are not subclasses: Central Park subClassOf* Attraction fails.
	bs, err = evalBindings(e, sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Central Park")), P: sparql.ConstTerm(sub),
		O: sparql.ConstTerm(v.Element("Attraction")), Star: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 0 {
		t.Fatal("instanceOf edge must not satisfy a subClassOf* path")
	}
}

func TestStarPathBothFree(t *testing.T) {
	text := "b subClassOf a\nc subClassOf b\n"
	v, s, err := ontology.Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	e := sparql.NewEvaluator(s)
	bs, err := evalBindings(e, sparql.BGP{{
		S: sparql.VarTerm("s"), P: sparql.ConstTerm(v.Relation("subClassOf")),
		O: sparql.VarTerm("o"), Star: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// pairs: (b,a) (b,b) (c,a) (c,b) (c,c) (a,a) = 6
	if len(bs) != 6 {
		t.Fatalf("got %d pairs, want 6: %v", len(bs), bs)
	}
}

func TestWildcardMatchesWithoutBinding(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	// [] nearBy $x: x ranges over elements with an incoming nearBy edge.
	bs, err := evalBindings(e, sparql.BGP{{
		S: sparql.WildcardTerm(), P: sparql.ConstTerm(v.Relation("nearBy")),
		O: sparql.VarTerm("x"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 3 {
		t.Fatalf("got %d bindings, want 3 (CP, Madison Sq, Bronx Zoo)", len(bs))
	}
	for _, b := range bs {
		if len(b) != 1 {
			t.Fatalf("wildcard should not bind: %v", b)
		}
	}
}

func TestSharedVariableJoin(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	// $z instanceOf Restaurant . $z nearBy "Central Park"
	bs, err := evalBindings(e, sparql.BGP{
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(v.Relation("instanceOf")), O: sparql.ConstTerm(v.Element("Restaurant"))},
		{S: sparql.VarTerm("z"), P: sparql.ConstTerm(v.Relation("nearBy")), O: sparql.ConstTerm(v.Element("Central Park"))},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0]["z"] != v.Element("Maoz Veg.") {
		t.Fatalf("join = %v, want only Maoz Veg.", bs)
	}
}

func TestEmptyBGP(t *testing.T) {
	_, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bs, err := evalBindings(e, sparql.BGP{})
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || len(bs[0]) != 0 {
		t.Fatalf("empty BGP should yield one empty binding, got %v", bs)
	}
}

func TestPredicateVariable(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	// "Maoz Veg." $p $o
	bs, err := evalBindings(e, sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Maoz Veg.")), P: sparql.VarTerm("p"), O: sparql.VarTerm("o"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Maoz: instanceOf Restaurant, nearBy CP, nearBy Madison Square.
	if len(bs) != 3 {
		t.Fatalf("got %d bindings, want 3: %v", len(bs), bs)
	}
}

func TestValidationErrors(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	cases := map[string]sparql.BGP{
		"literal subject": {{
			S: sparql.LiteralTerm("x"), P: sparql.ConstTerm(v.Relation("inside")), O: sparql.VarTerm("o"),
		}},
		"wildcard predicate": {{
			S: sparql.VarTerm("s"), P: sparql.WildcardTerm(), O: sparql.VarTerm("o"),
		}},
		"star on variable predicate": {{
			S: sparql.VarTerm("s"), P: sparql.VarTerm("p"), O: sparql.VarTerm("o"), Star: true,
		}},
		"literal object without hasLabel": {{
			S: sparql.VarTerm("s"), P: sparql.ConstTerm(v.Relation("inside")), O: sparql.LiteralTerm("x"),
		}},
		"variable in two namespaces": {
			{S: sparql.VarTerm("a"), P: sparql.ConstTerm(v.Relation("inside")), O: sparql.VarTerm("o")},
			{S: sparql.VarTerm("s"), P: sparql.VarTerm("a"), O: sparql.VarTerm("o")},
		},
	}
	for name, bgp := range cases {
		if _, err := evalBindings(e, bgp); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestSemanticMode checks the implication semantics of Definition 2.5: in
// semantic mode ⟨$z, nearBy, $x⟩ also matches through the more specific
// stored fact ⟨Boathouse, inside, Central Park⟩, and variables may bind to
// generalizations of stored values.
func TestSemanticMode(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bgp := sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Boathouse")), P: sparql.ConstTerm(v.Relation("nearBy")),
		O: sparql.ConstTerm(v.Element("Central Park")),
	}}
	bs, err := evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 0 {
		t.Fatal("exact mode must not match nearBy through an inside fact")
	}
	e.Semantic = true
	bs, err = evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 {
		t.Fatal("semantic mode should match nearBy via inside (nearBy ≤ inside)")
	}
	// Generalized subject binding: ⟨Park, instanceOf, Park⟩ is implied
	// (via Central Park / Madison Square), so $g instanceOf Park includes
	// Park itself in semantic mode.
	bs, err = evalBindings(e, sparql.BGP{{
		S: sparql.VarTerm("g"), P: sparql.ConstTerm(v.Relation("instanceOf")),
		O: sparql.ConstTerm(v.Element("Park")),
	}})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range bs {
		got[v.ElementName(b["g"])] = true
	}
	if !got["Central Park"] || !got["Madison Square"] {
		t.Errorf("semantic instanceOf lost exact matches: %v", got)
	}
	if !got["Park"] {
		t.Errorf("semantic instanceOf should include generalized subject Park: %v", got)
	}
}

func TestDeterministicOrder(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bgp := figure2WhereBGP(t, v)
	first, err := evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := evalBindings(e, bgp)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatal("nondeterministic result size")
		}
		for j := range again {
			for k, val := range again[j] {
				if first[j][k] != val {
					t.Fatal("nondeterministic result order")
				}
			}
		}
	}
}

func TestPatternString(t *testing.T) {
	v, _ := paperdata.Build()
	p := sparql.Pattern{
		S: sparql.VarTerm("w"), P: sparql.ConstTerm(v.Relation("subClassOf")),
		O: sparql.ConstTerm(v.Element("Attraction")), Star: true,
	}
	if got := p.String(v); got != "$w subClassOf* Attraction" {
		t.Errorf("String = %q", got)
	}
	p2 := sparql.Pattern{
		S: sparql.WildcardTerm(), P: sparql.ConstTerm(v.Relation("eatAt")),
		O: sparql.LiteralTerm("lit"),
	}
	if got := p2.String(v); got != `[] eatAt "lit"` {
		t.Errorf("String = %q", got)
	}
}

// TestSemanticModePredicateVariable: in semantic mode a predicate variable
// still enumerates the stored predicates, and subject/object variables may
// bind to generalizations of the stored values.
func TestSemanticModePredicateVariable(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	e.Semantic = true
	bs, err := evalBindings(e, sparql.BGP{{
		S: sparql.ConstTerm(v.Element("Maoz Veg.")), P: sparql.VarTerm("p"), O: sparql.VarTerm("o"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Exact mode gives 3 bindings; semantic mode adds generalized
	// objects (e.g. o = Park for the nearBy Central Park fact).
	if len(bs) <= 3 {
		t.Fatalf("semantic predicate-var got %d bindings, want more than exact's 3", len(bs))
	}
	foundGeneral := false
	for _, b := range bs {
		if b["o"] == v.Element("Park") {
			foundGeneral = true
		}
	}
	if !foundGeneral {
		t.Error("semantic mode should bind o to generalized Park")
	}
}

// TestSemanticBoundObject: a bound object that generalizes the stored value
// matches in semantic mode only.
func TestSemanticBoundObject(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bgp := sparql.BGP{{
		S: sparql.VarTerm("z"), P: sparql.ConstTerm(v.Relation("nearBy")),
		O: sparql.ConstTerm(v.Element("Outdoor")), // generalizes Central Park
	}}
	bs, err := evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 0 {
		t.Fatal("exact mode must not match a generalized object")
	}
	e.Semantic = true
	bs, err = evalBindings(e, bgp)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) == 0 {
		t.Fatal("semantic mode should match ⟨Maoz, nearBy, Outdoor⟩ via CP")
	}
}
