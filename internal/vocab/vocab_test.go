package vocab

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildSample constructs the element hierarchy from Figure 1 of the paper
// (a representative slice) plus the nearBy ≤ inside relation order.
func buildSample(t *testing.T) (*Vocabulary, map[string]TermID) {
	t.Helper()
	v := New()
	names := []string{
		"Thing", "Activity", "Place", "Sport", "Food", "Ball Game", "Biking",
		"Basketball", "Baseball", "Attraction", "Outdoor", "Park", "Zoo",
		"Central Park", "Bronx Zoo", "Water Sport", "Swimming",
	}
	ids := make(map[string]TermID)
	for _, n := range names {
		ids[n] = v.MustElement(n)
	}
	edges := [][2]string{
		{"Thing", "Activity"}, {"Thing", "Place"},
		{"Activity", "Sport"}, {"Activity", "Food"},
		{"Sport", "Ball Game"}, {"Sport", "Biking"}, {"Sport", "Water Sport"},
		{"Ball Game", "Basketball"}, {"Ball Game", "Baseball"},
		{"Water Sport", "Swimming"},
		{"Place", "Attraction"}, {"Attraction", "Outdoor"},
		{"Outdoor", "Park"}, {"Outdoor", "Zoo"},
		{"Park", "Central Park"}, {"Zoo", "Bronx Zoo"},
	}
	for _, e := range edges {
		if err := v.OrderElements(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatalf("OrderElements(%v): %v", e, err)
		}
	}
	nearBy := v.MustRelation("nearBy")
	inside := v.MustRelation("inside")
	v.MustRelation("doAt")
	v.MustRelation("eatAt")
	if err := v.OrderRelations(nearBy, inside); err != nil {
		t.Fatalf("OrderRelations: %v", err)
	}
	if err := v.Freeze(); err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	return v, ids
}

func TestInterningIsIdempotent(t *testing.T) {
	v := New()
	a, err := v.AddElement("Sport")
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.AddElement("Sport")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("re-adding a name returned a new ID: %d vs %d", a, b)
	}
	if v.NumElements() != 1 {
		t.Fatalf("NumElements = %d, want 1", v.NumElements())
	}
}

func TestEmptyNameRejected(t *testing.T) {
	v := New()
	if _, err := v.AddElement(""); err == nil {
		t.Fatal("AddElement(\"\") succeeded, want error")
	}
	if _, err := v.AddRelation(""); err == nil {
		t.Fatal("AddRelation(\"\") succeeded, want error")
	}
}

func TestLeqReflexiveAndTransitive(t *testing.T) {
	v, ids := buildSample(t)
	if !v.LeqE(ids["Sport"], ids["Sport"]) {
		t.Error("Leq not reflexive")
	}
	// Sport ≤ Biking (paper's example).
	if !v.LeqE(ids["Sport"], ids["Biking"]) {
		t.Error("Sport ≤ Biking should hold")
	}
	// Transitive: Activity ≤ Basketball through Sport, Ball Game.
	if !v.LeqE(ids["Activity"], ids["Basketball"]) {
		t.Error("Activity ≤ Basketball should hold transitively")
	}
	// Not comparable.
	if v.LeqE(ids["Biking"], ids["Basketball"]) || v.LeqE(ids["Basketball"], ids["Biking"]) {
		t.Error("Biking and Basketball should be incomparable")
	}
	// Antisymmetry direction: specific not ≤ general.
	if v.LeqE(ids["Biking"], ids["Sport"]) {
		t.Error("Biking ≤ Sport must not hold (order is general ≤ specific)")
	}
}

func TestRelationOrder(t *testing.T) {
	v, _ := buildSample(t)
	nearBy, inside := v.Relation("nearBy"), v.Relation("inside")
	if !v.LeqR(nearBy, inside) {
		t.Error("nearBy ≤ inside should hold (paper, Example 2.6)")
	}
	if v.LeqR(inside, nearBy) {
		t.Error("inside ≤ nearBy must not hold")
	}
	if !v.LeqR(v.Relation("doAt"), v.Relation("doAt")) {
		t.Error("relation Leq not reflexive")
	}
}

func TestCycleDetection(t *testing.T) {
	v := New()
	a := v.MustElement("a")
	b := v.MustElement("b")
	c := v.MustElement("c")
	for _, e := range [][2]TermID{{a, b}, {b, c}, {c, a}} {
		if err := v.OrderElements(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Freeze(); err == nil {
		t.Fatal("Freeze accepted a cyclic order")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	v := New()
	a := v.MustElement("a")
	if err := v.OrderElements(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestMutationAfterFreezeRejected(t *testing.T) {
	v, ids := buildSample(t)
	if _, err := v.AddElement("New Thing"); err == nil {
		t.Error("AddElement after Freeze succeeded")
	}
	if err := v.OrderElements(ids["Thing"], ids["Sport"]); err == nil {
		t.Error("OrderElements after Freeze succeeded")
	}
	// Re-interning an existing name is still fine after Freeze.
	if _, err := v.AddElement("Sport"); err != nil {
		t.Errorf("re-adding existing name after Freeze failed: %v", err)
	}
}

func TestDescendantsAndAncestors(t *testing.T) {
	v, ids := buildSample(t)
	desc := v.ElementDescendants(ids["Ball Game"])
	want := map[TermID]bool{ids["Ball Game"]: true, ids["Basketball"]: true, ids["Baseball"]: true}
	if len(desc) != len(want) {
		t.Fatalf("Descendants(Ball Game) = %v, want 3 items", desc)
	}
	for _, d := range desc {
		if !want[d] {
			t.Errorf("unexpected descendant %s", v.ElementName(d))
		}
	}
	anc := v.ElementAncestors(ids["Basketball"])
	wantAnc := map[TermID]bool{ids["Ball Game"]: true, ids["Sport"]: true, ids["Activity"]: true, ids["Thing"]: true}
	if len(anc) != len(wantAnc) {
		t.Fatalf("Ancestors(Basketball) = %v, want 4 items", anc)
	}
	for _, a := range anc {
		if !wantAnc[a] {
			t.Errorf("unexpected ancestor %s", v.ElementName(a))
		}
	}
}

func TestTopoOrderGeneralFirst(t *testing.T) {
	v, _ := buildSample(t)
	pos := make(map[TermID]int)
	for i, id := range v.ElementsTopo() {
		pos[id] = i
	}
	for _, id := range v.ElementsTopo() {
		for _, c := range v.ElementChildren(id) {
			if pos[id] >= pos[c] {
				t.Fatalf("topo order violated: %s not before %s",
					v.ElementName(id), v.ElementName(c))
			}
		}
	}
}

func TestDepths(t *testing.T) {
	v, ids := buildSample(t)
	cases := map[string]int{
		"Thing": 0, "Activity": 1, "Sport": 2, "Ball Game": 3, "Basketball": 4,
		"Central Park": 5,
	}
	for name, want := range cases {
		if got := v.ElementDepth(ids[name]); got != want {
			t.Errorf("Depth(%s) = %d, want %d", name, got, want)
		}
	}
}

func TestRoots(t *testing.T) {
	v, ids := buildSample(t)
	r := v.ElementRoots()
	if len(r) != 1 || r[0] != ids["Thing"] {
		t.Fatalf("ElementRoots = %v, want [Thing]", r)
	}
	rr := v.RelationRoots()
	// nearBy, doAt, eatAt are roots; inside is not.
	if len(rr) != 3 {
		t.Fatalf("RelationRoots = %v, want 3 roots", rr)
	}
}

func TestNameLookups(t *testing.T) {
	v, ids := buildSample(t)
	if v.Element("Central Park") != ids["Central Park"] {
		t.Error("Element lookup failed")
	}
	if v.Element("No Such Element") != NoTerm {
		t.Error("missing element should return NoTerm")
	}
	if v.ElementName(NoTerm) != "" {
		t.Error("ElementName(NoTerm) should be empty")
	}
	if v.RelationName(v.Relation("inside")) != "inside" {
		t.Error("RelationName round-trip failed")
	}
}

// randomDAGVocab builds a random layered DAG for property testing.
func randomDAGVocab(rng *rand.Rand, layers, perLayer int) (*Vocabulary, []TermID) {
	v := New()
	var all []TermID
	var prev []TermID
	for l := 0; l < layers; l++ {
		var cur []TermID
		for i := 0; i < perLayer; i++ {
			id := v.MustElement(termName(l, i))
			cur = append(cur, id)
			all = append(all, id)
			if l > 0 {
				// each node gets 1-2 random parents from the previous layer
				np := 1 + rng.Intn(2)
				for p := 0; p < np; p++ {
					_ = v.OrderElements(prev[rng.Intn(len(prev))], id)
				}
			}
		}
		prev = cur
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	return v, all
}

func termName(l, i int) string {
	return "t" + string(rune('a'+l)) + "_" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

func TestPropertyLeqIsPartialOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	v, all := randomDAGVocab(rng, 5, 12)
	// Reflexivity and antisymmetry on all pairs, transitivity on samples.
	for _, a := range all {
		if !v.LeqE(a, a) {
			t.Fatalf("not reflexive at %d", a)
		}
	}
	for _, a := range all {
		for _, b := range all {
			if a != b && v.LeqE(a, b) && v.LeqE(b, a) {
				t.Fatalf("antisymmetry violated: %d, %d", a, b)
			}
		}
	}
	f := func(ai, bi, ci uint8) bool {
		a := all[int(ai)%len(all)]
		b := all[int(bi)%len(all)]
		c := all[int(ci)%len(all)]
		if v.LeqE(a, b) && v.LeqE(b, c) {
			return v.LeqE(a, c)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLeqMatchesEdgeReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v, all := randomDAGVocab(rng, 4, 10)
	// Independent reachability check by DFS over children edges.
	reach := func(a, b TermID) bool {
		if a == b {
			return true
		}
		seen := map[TermID]bool{}
		stack := []TermID{a}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[x] {
				continue
			}
			seen[x] = true
			for _, c := range v.ElementChildren(x) {
				if c == b {
					return true
				}
				stack = append(stack, c)
			}
		}
		return false
	}
	for _, a := range all {
		for _, b := range all {
			if v.LeqE(a, b) != reach(a, b) {
				t.Fatalf("Leq(%d,%d)=%v disagrees with DFS reachability", a, b, v.LeqE(a, b))
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := newBitset(130)
	for _, i := range []int{0, 63, 64, 129} {
		b.set(i)
	}
	for _, i := range []int{0, 63, 64, 129} {
		if !b.has(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if b.has(1) || b.has(128) {
		t.Error("unexpected bits set")
	}
	if got := b.count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	c := newBitset(130)
	c.or(b)
	if c.count() != 4 {
		t.Error("or failed")
	}
}

// count returns the number of set bits.
func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

func TestRelationDepth(t *testing.T) {
	v, _ := buildSample(t)
	if got := v.RelationDepth(v.Relation("nearBy")); got != 0 {
		t.Errorf("Depth(nearBy) = %d, want 0 (root)", got)
	}
	if got := v.RelationDepth(v.Relation("inside")); got != 1 {
		t.Errorf("Depth(inside) = %d, want 1", got)
	}
}
