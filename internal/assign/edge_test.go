package assign_test

import (
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// starQuery allows zero activities: at multiplicity 0 the doAt pattern is
// dropped entirely and only the eatAt pattern remains.
const starQuery = `
SELECT FACT-SETS
WHERE
  $y subClassOf* Activity.
  $z instanceOf Restaurant
SATISFYING
  $y* doAt "Central Park".
  [] eatAt $z
WITH SUPPORT = 0.4`

func TestMultiplicityZeroSemantics(t *testing.T) {
	sp, v := buildSpace(t, starQuery, nil)
	// Roots: $y starts empty (Min 0), $z at its cap (Restaurant).
	roots := sp.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d", len(roots))
	}
	root := roots[0]
	if len(root.Values("y")) != 0 {
		t.Fatalf("star variable should start empty, got %v", root.Values("y"))
	}
	if len(root.Values("z")) != 1 {
		t.Fatalf("root z = %v", root.Values("z"))
	}
	// Instantiating with empty $y drops the doAt pattern.
	fs := sp.Instantiate(root)
	for _, f := range fs {
		if f.P == v.Relation("doAt") {
			t.Fatalf("doAt pattern should be dropped at multiplicity 0: %s", fs.String(v))
		}
	}
	// Successors grow $y from empty to one value.
	grew := false
	for _, s := range sp.Successors(root) {
		if len(s.Values("y")) == 1 {
			grew = true
			fs := sp.Instantiate(s)
			found := false
			for _, f := range fs {
				if f.P == v.Relation("doAt") {
					found = true
				}
			}
			if !found {
				t.Fatal("pattern should reappear once the variable has a value")
			}
		}
	}
	if !grew {
		t.Fatal("no successor grew the star variable")
	}
	// An assignment with zero activities is valid under * (the root
	// itself is not: its $z sits at the class cap, not an instance).
	empty := assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
		"z": {v.Element("Maoz Veg.")},
	}, nil)
	if !sp.IsValid(empty) {
		t.Error("empty star variable with a valid $z should be valid")
	}
	if sp.IsValid(root) {
		t.Error("the root's class-level $z must not be valid")
	}
}

func TestOptionalMultiplicityBounds(t *testing.T) {
	sp, v := buildSpace(t, strings.Replace(starQuery, "$y*", "$y?", 1), nil)
	root := sp.Roots()[0]
	// ? allows 0 or 1 — never 2.
	two := assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
		"y": {v.Element("Biking"), v.Element("Falafel")},
		"z": {v.Element("Maoz Veg.")},
	}, nil)
	if sp.IsValid(two) {
		t.Error("two values under ? must be invalid")
	}
	for _, s := range sp.Successors(root) {
		for _, s2 := range sp.Successors(s) {
			if len(s2.Values("y")) > 1 {
				t.Fatalf("? grew past one value: %s", s2.String(v, sp.Kinds()))
			}
		}
	}
}

// TestIncomparableCaps builds a diamond vocabulary where a variable has two
// incomparable caps; the roots must be the minimal common specializations.
func TestIncomparableCaps(t *testing.T) {
	text := `
Left subClassOf Top
Right subClassOf Top
MidA subClassOf Left
MidA subClassOf Right
MidB subClassOf Left
MidB subClassOf Right
LeafA subClassOf MidA
@element Ctx
@relation rel
`
	v, store, err := ontology.Load(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	q, err := oassisql.Parse(`
SELECT FACT-SETS
WHERE
  $x subClassOf* Left.
  $x subClassOf* Right
SATISFYING
  $x rel Ctx
WITH SUPPORT = 0.5`, v)
	if err != nil {
		t.Fatal(err)
	}
	plan, rows := solutions(t, sparql.NewEvaluator(store), q.Where)
	// Exact SPARQL: x must reach both Left and Right → MidA, MidB, LeafA.
	if len(rows) != 3 {
		t.Fatalf("bindings = %d, want 3", len(rows))
	}
	sp, _, err := assign.NewSpaceFromPlan(q, plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	roots := sp.Roots()
	got := map[string]bool{}
	for _, r := range roots {
		got[v.ElementName(r.Values("x")[0])] = true
	}
	if !got["MidA"] || !got["MidB"] || len(got) != 2 {
		t.Fatalf("roots = %v, want {MidA, MidB} (minimal common specializations)", got)
	}
}

// TestItemsetModeUnboundVariable mines with an empty WHERE clause: the
// variable ranges over the whole element namespace (Section 4.1's frequent
// itemset capture) and the space still behaves.
func TestItemsetModeUnboundVariable(t *testing.T) {
	v, store := paperdata.Build()
	q, err := oassisql.Parse(`
SELECT FACT-SETS
WHERE
SATISFYING
  $i+ doAt "Central Park"
WITH SUPPORT = 0.4`, v)
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
	// Unbound variable: roots are the namespace roots.
	roots := sp.Roots()
	if len(roots) == 0 {
		t.Fatal("no roots for unbound variable")
	}
	// Everything is in the closure and valid (no WHERE constraint).
	a := assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
		"i": {v.Element("Biking")},
	}, nil)
	if !sp.InClosure(a) {
		t.Error("unbound-variable assignment should be in the closure")
	}
	if !sp.IsValid(a) {
		t.Error("unbound-variable assignment should be valid")
	}
	// Successor generation works from the roots.
	total := 0
	for _, r := range roots {
		total += len(sp.Successors(r))
	}
	if total == 0 {
		t.Fatal("no successors in itemset mode")
	}
}

// TestMorePredecessors: generalizing away MORE facts yields predecessors.
func TestMorePredecessors(t *testing.T) {
	v, _ := paperdata.Build()
	pool := ontology.NewFactSet(paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse"))
	sp, v := buildSpace(t, paperdata.QueryText, pool)
	base := assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
		"x": {v.Element("Central Park")},
		"y": {v.Element("Biking")},
		"z": {v.Element("Maoz Veg.")},
	}, pool)
	preds := sp.Predecessors(base)
	if len(preds) == 0 {
		t.Fatal("no predecessors")
	}
	droppedMore := false
	for _, p := range preds {
		if !sp.Leq(p, base) || p.Key() == base.Key() {
			t.Fatalf("predecessor not strictly below: %s", p.Key())
		}
		if len(p.More()) == 0 && len(p.Values("y")) == 1 &&
			p.Values("y")[0] == v.Element("Biking") {
			droppedMore = true
		}
	}
	if !droppedMore {
		t.Error("no predecessor drops the MORE fact")
	}
	// Generalizing a MORE fact component also yields a predecessor.
	genMore := false
	for _, p := range preds {
		if len(p.More()) == 1 && p.More()[0] != base.More()[0] {
			genMore = true
		}
	}
	if !genMore {
		t.Error("no predecessor generalizes the MORE fact")
	}
}
