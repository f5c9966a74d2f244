package assign_test

import (
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// buildSpace parses a query against the Figure 1 ontology, compiles its
// WHERE clause and streams the plan into the assignment space.
func buildSpace(t *testing.T, queryText string, morePool ontology.FactSet) (*assign.Space, *vocab.Vocabulary) {
	t.Helper()
	v, store := paperdata.Build()
	q, err := oassisql.Parse(queryText, v)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(store).Compile(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := assign.NewSpaceFromPlan(q, plan, morePool)
	if err != nil {
		t.Fatal(err)
	}
	return sp, v
}

// multQuery mines activities (with multiplicity) at child-friendly
// attractions — the grey part of Figure 2 plus the + marker, which is what
// Figure 3's DAG is drawn for.
const multQuery = `
SELECT FACT-SETS
WHERE
  $w subClassOf* Attraction.
  $x instanceOf $w.
  $x hasLabel "child-friendly".
  $y subClassOf* Activity
SATISFYING
  $y+ doAt $x
WITH SUPPORT = 0.4`

// mk builds an assignment from element names for the (x, y) query shape.
func mk(t *testing.T, sp *assign.Space, v *vocab.Vocabulary, x string, ys ...string) *assign.Assignment {
	t.Helper()
	vals := map[string][]vocab.TermID{}
	if x != "" {
		id := v.Element(x)
		if id == vocab.NoTerm {
			t.Fatalf("unknown element %q", x)
		}
		vals["x"] = []vocab.TermID{id}
	}
	var yids []vocab.TermID
	for _, y := range ys {
		id := v.Element(y)
		if id == vocab.NoTerm {
			t.Fatalf("unknown element %q", y)
		}
		yids = append(yids, id)
	}
	if len(yids) > 0 {
		vals["y"] = yids
	}
	return assign.New(v, sp.Kinds(), vals, nil)
}

func TestSpaceProjection(t *testing.T) {
	sp, _ := buildSpace(t, paperdata.SimpleQueryText, nil)
	// 3 child-friendly attractions × 14 activity classes.
	if got := len(sp.Valid()); got != 42 {
		t.Fatalf("|𝒜valid| = %d, want 42", got)
	}
	// Projection dropped $w: every valid assignment has exactly x and y.
	for _, a := range sp.Valid() {
		vars := a.Vars()
		if len(vars) != 2 || vars[0] != "x" || vars[1] != "y" {
			t.Fatalf("valid assignment has vars %v, want [x y]", vars)
		}
	}
}

func TestUpperBoundsAndRoots(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	roots := sp.Roots()
	// Figure 3's top node: (Attraction, Activity). The cap for $x flows
	// through $w's subClassOf* Attraction constraint.
	if len(roots) != 1 {
		t.Fatalf("got %d roots, want 1", len(roots))
	}
	r := roots[0]
	if got := r.Values("x"); len(got) != 1 || got[0] != v.Element("Attraction") {
		t.Errorf("root x = %v, want Attraction", got)
	}
	if got := r.Values("y"); len(got) != 1 || got[0] != v.Element("Activity") {
		t.Errorf("root y = %v, want Activity", got)
	}
}

func TestCanonicalAntichain(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	// {Biking, Sport} is equivalent to {Biking}: Sport is absorbed.
	a := mk(t, sp, v, "Central Park", "Biking", "Sport")
	if got := a.Values("y"); len(got) != 1 || got[0] != v.Element("Biking") {
		t.Fatalf("canonical y = %v, want {Biking}", got)
	}
	b := mk(t, sp, v, "Central Park", "Biking")
	if a.Key() != b.Key() {
		t.Error("equivalent assignments should share a key")
	}
	// Incomparable values are both kept.
	c := mk(t, sp, v, "Central Park", "Biking", "Ball Game")
	if got := c.Values("y"); len(got) != 2 {
		t.Fatalf("canonical y = %v, want 2 values", got)
	}
}

func TestLeqFigure3(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	phi15 := mk(t, sp, v, "Central Park", "Sport")     // node 15
	phi17 := mk(t, sp, v, "Central Park", "Ball Game") // node 17
	phi20 := mk(t, sp, v, "Central Park", "Baseball")  // node 20
	node11 := mk(t, sp, v, "Attraction", "Feed a monkey")
	if !sp.Leq(phi15, phi17) || !sp.Leq(phi17, phi20) || !sp.Leq(phi15, phi20) {
		t.Error("chain 15 ≤ 17 ≤ 20 broken")
	}
	if sp.Leq(phi20, phi17) {
		t.Error("Leq must not be symmetric")
	}
	if sp.Leq(phi17, node11) || sp.Leq(node11, phi17) {
		t.Error("incomparable nodes compared as ordered")
	}
	if !sp.Leq(phi17, phi17) {
		t.Error("Leq not reflexive")
	}
}

func TestLeqWithMultiplicities(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	phi17 := mk(t, sp, v, "Central Park", "Ball Game")
	phi18 := mk(t, sp, v, "Central Park", "Biking", "Ball Game") // node 18
	phi19 := mk(t, sp, v, "Central Park", "Biking", "Baseball")
	if !sp.Leq(phi17, phi18) {
		t.Error("17 ≤ 18: adding a value is a specialization")
	}
	if sp.Leq(phi18, phi17) {
		t.Error("18 ≤ 17 must not hold")
	}
	if !sp.Leq(phi18, phi19) {
		t.Error("18 ≤ 19: Ball Game → Baseball inside the set")
	}
}

func TestSuccessorsFromRoot(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	root := sp.Roots()[0]
	succs := sp.Successors(root)
	if len(succs) == 0 {
		t.Fatal("root has no successors")
	}
	keys := map[string]bool{}
	for _, s := range succs {
		keys[s.Key()] = true
		if !sp.Leq(root, s) || s.Key() == root.Key() {
			t.Errorf("successor %s not strictly above root", s.String(v, sp.Kinds()))
		}
	}
	// (Outdoor, Activity) — Figure 3 node 2 — must be among them.
	if !keys[mk(t, sp, v, "Outdoor", "Activity").Key()] {
		t.Error("missing successor (Outdoor, Activity)")
	}
	// (Attraction, Sport) — node 3.
	if !keys[mk(t, sp, v, "Attraction", "Sport").Key()] {
		t.Error("missing successor (Attraction, Sport)")
	}
	// Indoor leads to no valid assignment: the closure check must prune it.
	if keys[mk(t, sp, v, "Indoor", "Activity").Key()] {
		t.Error("(Indoor, Activity) should be pruned: no valid assignment below it")
	}
}

func TestSuccessorsMultiplicityExtension(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	phi17 := mk(t, sp, v, "Central Park", "Ball Game")
	succs := sp.Successors(phi17)
	keys := map[string]bool{}
	for _, s := range succs {
		keys[s.Key()] = true
	}
	// Specializations within the set.
	if !keys[mk(t, sp, v, "Central Park", "Basketball").Key()] {
		t.Error("missing specialization (CP, Basketball)")
	}
	// Extension: node 18 = (CP, {Biking, Ball Game}).
	if !keys[mk(t, sp, v, "Central Park", "Biking", "Ball Game").Key()] {
		t.Error("missing multiplicity extension (CP, {Biking, Ball Game})")
	}
	// Extensions must be genuinely larger sets, never absorbed values.
	for _, s := range succs {
		if len(s.Values("y")) > 2 {
			t.Errorf("one-step successor gained 2+ values: %s", s.String(v, sp.Kinds()))
		}
	}
}

func TestNoExtensionWithoutMultiplicity(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	phi17 := mk(t, sp, v, "Central Park", "Ball Game")
	for _, s := range sp.Successors(phi17) {
		if len(s.Values("y")) != 1 {
			t.Fatalf("multiplicity-1 query produced a set extension: %s",
				s.String(v, sp.Kinds()))
		}
	}
}

func TestPredecessors(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	phi20 := mk(t, sp, v, "Central Park", "Baseball")
	preds := sp.Predecessors(phi20)
	keys := map[string]bool{}
	for _, p := range preds {
		keys[p.Key()] = true
		if !sp.Leq(p, phi20) || p.Key() == phi20.Key() {
			t.Errorf("predecessor %s not strictly below", p.String(v, sp.Kinds()))
		}
	}
	if !keys[mk(t, sp, v, "Central Park", "Ball Game").Key()] {
		t.Error("missing predecessor (CP, Ball Game)")
	}
	if !keys[mk(t, sp, v, "Park", "Baseball").Key()] {
		t.Error("missing predecessor (Park, Baseball)")
	}
	// Value removal from a multiplicity set.
	phi18 := mk(t, sp, v, "Central Park", "Biking", "Ball Game")
	preds = sp.Predecessors(phi18)
	keys = map[string]bool{}
	for _, p := range preds {
		keys[p.Key()] = true
	}
	if !keys[mk(t, sp, v, "Central Park", "Ball Game").Key()] {
		t.Error("missing removal predecessor (CP, Ball Game)")
	}
	if !keys[mk(t, sp, v, "Central Park", "Biking").Key()] {
		t.Error("missing removal predecessor (CP, Biking)")
	}
}

func TestPredecessorsRespectUpperBound(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	root := sp.Roots()[0]
	if preds := sp.Predecessors(root); len(preds) != 0 {
		strs := make([]string, len(preds))
		for i, p := range preds {
			strs[i] = p.String(v, sp.Kinds())
		}
		t.Fatalf("the root must have no predecessors within the caps, got %v", strs)
	}
}

func TestInClosure(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	cases := []struct {
		a    *assign.Assignment
		want bool
		desc string
	}{
		{mk(t, sp, v, "Attraction", "Activity"), true, "root"},
		{mk(t, sp, v, "Park", "Sport"), true, "generalization of valid"},
		{mk(t, sp, v, "Central Park", "Biking"), true, "valid itself"},
		{mk(t, sp, v, "Indoor", "Activity"), false, "no valid below Indoor"},
		{mk(t, sp, v, "Zoo", "Swimming"), true, "covered by (Bronx Zoo, Swimming)"},
	}
	for _, c := range cases {
		if got := sp.InClosure(c.a); got != c.want {
			t.Errorf("InClosure(%s) = %v, want %v", c.desc, got, c.want)
		}
	}
}

func TestIsValid(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	if !sp.IsValid(mk(t, sp, v, "Central Park", "Biking")) {
		t.Error("(CP, Biking) should be valid")
	}
	if sp.IsValid(mk(t, sp, v, "Park", "Biking")) {
		t.Error("(Park, Biking) is a generalization, not valid (Figure 3 dashed nodes)")
	}
	if !sp.IsValid(mk(t, sp, v, "Central Park", "Biking", "Baseball")) {
		t.Error("multiplicity combination of valid assignments should be valid (Prop 5.1)")
	}
	if sp.IsValid(mk(t, sp, v, "Central Park")) {
		t.Error("missing value for y (Min 1) must be invalid")
	}
}

func TestIsValidMultiplicityBounds(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	// Multiplicity-1 query: a 2-value set violates the bound.
	two := mk(t, sp, v, "Central Park", "Biking", "Ball Game")
	if sp.IsValid(two) {
		t.Error("2 values under multiplicity 1 must be invalid")
	}
}

func TestInstantiate(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	a := mk(t, sp, v, "Central Park", "Biking", "Ball Game")
	fs := sp.Instantiate(a)
	want := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Ball Game", "doAt", "Central Park"),
	)
	if !fs.Equal(want) {
		t.Fatalf("Instantiate = %s, want %s", fs.String(v), want.String(v))
	}
}

func TestInstantiateFullQueryWithWildcard(t *testing.T) {
	sp2, v2 := buildSpace(t, paperdata.QueryText, nil)
	vals := map[string][]vocab.TermID{
		"x": {v2.Element("Central Park")},
		"y": {v2.Element("Biking")},
		"z": {v2.Element("Maoz Veg.")},
	}
	a := assign.New(v2, sp2.Kinds(), vals, nil)
	fs := sp2.Instantiate(a)
	want := ontology.NewFactSet(
		paperdata.Fact(v2, "Biking", "doAt", "Central Park"),
		ontology.Fact{S: ontology.Any, P: v2.Relation("eatAt"), O: v2.Element("Maoz Veg.")},
	)
	if !fs.Equal(want) {
		t.Fatalf("Instantiate = %s, want %s", fs.String(v2), want.String(v2))
	}
}

func TestMoreSuccessors(t *testing.T) {
	v, _ := paperdata.Build()
	pool := ontology.NewFactSet(
		paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse"),
	)
	sp, v := buildSpace(t, paperdata.QueryText, pool)
	vals := map[string][]vocab.TermID{
		"x": {v.Element("Central Park")},
		"y": {v.Element("Biking")},
		"z": {v.Element("Maoz Veg.")},
	}
	base := assign.New(v, sp.Kinds(), vals, nil)
	succs := sp.Successors(base)
	var withMore *assign.Assignment
	for _, s := range succs {
		if len(s.More()) == 1 {
			withMore = s
		}
	}
	if withMore == nil {
		t.Fatal("no MORE extension generated")
	}
	if !sp.Leq(base, withMore) {
		t.Error("MORE extension must be a successor")
	}
	// Instantiation includes the MORE fact.
	fs := sp.Instantiate(withMore)
	if !fs.Contains(paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse")) {
		t.Error("instantiation lost the MORE fact")
	}
	// MORE facts never hurt validity.
	if !sp.IsValid(withMore) {
		t.Error("assignment with MORE fact should stay valid")
	}
}

func TestClassifierInference(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	c := assign.NewClassifier(sp)
	phi15 := mk(t, sp, v, "Central Park", "Sport")
	phi17 := mk(t, sp, v, "Central Park", "Ball Game")
	phi20 := mk(t, sp, v, "Central Park", "Baseball")
	root := mk(t, sp, v, "Attraction", "Activity")
	other := mk(t, sp, v, "Bronx Zoo", "Feed a monkey")

	if c.Status(phi17) != assign.Unknown {
		t.Fatal("fresh classifier should report Unknown")
	}
	// Observation 4.4: significant at 17 classifies all predecessors.
	c.MarkSignificant(phi17)
	if c.Status(phi15) != assign.Significant {
		t.Error("predecessor of significant should be significant")
	}
	if c.Status(root) != assign.Significant {
		t.Error("root should be significant")
	}
	if c.Status(phi20) != assign.Unknown {
		t.Error("successor of significant stays unknown")
	}
	if c.Status(other) != assign.Unknown {
		t.Error("incomparable assignment stays unknown")
	}
	// Insignificant at 20 classifies all successors.
	c.MarkInsignificant(phi20)
	if c.Status(phi20) != assign.Insignificant {
		t.Error("marked assignment should be insignificant")
	}
	if c.Status(phi17) != assign.Significant {
		t.Error("predecessor keeps its significant status")
	}
}

func TestClassifierBorderAntichain(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	c := assign.NewClassifier(sp)
	phi15 := mk(t, sp, v, "Central Park", "Sport")
	phi17 := mk(t, sp, v, "Central Park", "Ball Game")
	c.MarkSignificant(phi15)
	c.MarkSignificant(phi17) // dominates phi15
	if got := len(c.SignificantBorder()); got != 1 {
		t.Fatalf("border size = %d, want 1 (antichain)", got)
	}
	if c.SignificantBorder()[0].Key() != phi17.Key() {
		t.Error("border should keep the maximal assignment")
	}
	// Re-marking something already covered is a no-op.
	c.MarkSignificant(phi15)
	if got := len(c.SignificantBorder()); got != 1 {
		t.Fatalf("border size after re-mark = %d, want 1", got)
	}
}

func TestCountClassified(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	c := assign.NewClassifier(sp)
	c.MarkInsignificant(mk(t, sp, v, "Attraction", "Activity"))
	got := 0
	for _, a := range sp.Valid() {
		if c.Status(a) != assign.Unknown {
			got++
		}
	}
	if got != len(sp.Valid()) {
		t.Fatalf("insignificant root should classify all %d valid, got %d",
			len(sp.Valid()), got)
	}
}

// TestPropertySuccessorsStrictlyGreater walks two levels of the DAG checking
// order invariants on every generated edge.
func TestPropertySuccessorsStrictlyGreater(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	frontier := sp.Roots()
	seen := 0
	for depth := 0; depth < 3; depth++ {
		var next []*assign.Assignment
		for _, a := range frontier {
			for _, s := range sp.Successors(a) {
				seen++
				if !sp.Leq(a, s) {
					t.Fatalf("successor not ≥: %s -> %s",
						a.String(v, sp.Kinds()), s.String(v, sp.Kinds()))
				}
				if sp.Leq(s, a) {
					t.Fatalf("successor equivalent to source: %s", s.Key())
				}
				if !sp.InClosure(s) {
					t.Fatalf("successor escaped the closure: %s", s.String(v, sp.Kinds()))
				}
				next = append(next, s)
			}
		}
		frontier = next
	}
	if seen == 0 {
		t.Fatal("no edges explored")
	}
}

// TestPropertyPredecessorSuccessorDuality: for every successor edge a→b,
// a must appear among b's predecessors.
func TestPropertyPredecessorSuccessorDuality(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	frontier := sp.Roots()
	checked := 0
	for depth := 0; depth < 2; depth++ {
		var next []*assign.Assignment
		for _, a := range frontier {
			for _, s := range sp.Successors(a) {
				found := false
				for _, p := range sp.Predecessors(s) {
					if p.Key() == a.Key() {
						found = true
						break
					}
				}
				if !found {
					// Extension edges may climb several levels on
					// the removal side; require at least that some
					// predecessor of s is ≥ a.
					for _, p := range sp.Predecessors(s) {
						if sp.Leq(a, p) {
							found = true
							break
						}
					}
				}
				if !found {
					t.Fatalf("edge %s -> %s has no matching predecessor",
						a.String(v, sp.Kinds()), s.String(v, sp.Kinds()))
				}
				checked++
				next = append(next, s)
			}
		}
		frontier = next
	}
	if checked == 0 {
		t.Fatal("no edges checked")
	}
}

func TestAssignmentString(t *testing.T) {
	sp, v := buildSpace(t, multQuery, nil)
	a := mk(t, sp, v, "Central Park", "Biking", "Ball Game")
	s := a.String(v, sp.Kinds())
	if s == "" {
		t.Fatal("empty String")
	}
	for _, want := range []string{"Central Park", "Biking", "Ball Game"} {
		if !contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
