package sparql_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// skewedStore builds a store where predicate "big" holds 50 facts and
// predicate "small" holds one, so selectivity-aware ordering is observable.
func skewedStore(t *testing.T) (*ontology.Store, *vocab.Vocabulary) {
	t.Helper()
	v := vocab.New()
	elems := make([]vocab.TermID, 52)
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("e%d", i))
	}
	big := v.MustRelation("big")
	small := v.MustRelation("small")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	s := ontology.NewStore(v)
	for i := 0; i < 50; i++ {
		s.MustAdd(ontology.Fact{S: elems[i], P: big, O: elems[i+1]})
	}
	s.MustAdd(ontology.Fact{S: elems[0], P: small, O: elems[1]})
	s.Freeze()
	return s, v
}

// TestPlanSelectivityOrder: the planner must run the one-fact pattern before
// the fifty-fact pattern, regardless of the order they were written in.
func TestPlanSelectivityOrder(t *testing.T) {
	s, v := skewedStore(t)
	bgp := sparql.BGP{
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("big")), O: sparql.VarTerm("y")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("small")), O: sparql.VarTerm("z")},
	}
	pl, err := sparql.NewEvaluator(s).Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	order := pl.PatternOrder()
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("plan order = %v, want [1 0] (small pattern first)\n%s", order, pl.Describe())
	}
	// The join must still produce the single solution.
	if rows := solutions(pl); len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
}

// TestPlanConstAnchorFirst: a pattern with a constant subject has one
// candidate row and should be picked before an unanchored scan.
func TestPlanConstAnchorFirst(t *testing.T) {
	s, v := skewedStore(t)
	bgp := sparql.BGP{
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("big")), O: sparql.VarTerm("y")},
		{S: sparql.ConstTerm(v.Element("e7")), P: sparql.ConstTerm(v.Relation("big")), O: sparql.VarTerm("x")},
	}
	pl, err := sparql.NewEvaluator(s).Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	if order := pl.PatternOrder(); order[0] != 1 {
		t.Fatalf("plan order = %v, want the anchored pattern first\n%s", order, pl.Describe())
	}
}

// TestPlanReuse: one compiled plan streamed repeatedly yields identical rows
// in an identical order, and the same solutions as a fresh compile.
func TestPlanReuse(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bgp := figure2WhereBGP(t, v)
	pl, err := e.Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	stream := func() [][]vocab.TermID {
		var rows [][]vocab.TermID
		pl.Stream(nil, func(row []vocab.TermID) bool {
			rows = append(rows, slices.Clone(row))
			return true
		})
		return rows
	}
	first := stream()
	for i := 0; i < 3; i++ {
		if again := stream(); !rowsEqual(again, first) {
			t.Fatalf("run %d: streamed %d rows, differing from the first run's %d", i, len(again), len(first))
		}
	}
	fresh, err := e.Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(solutions(fresh), solutions(pl)) {
		t.Fatal("a fresh compile yields different solutions")
	}
}

// TestPlanResultsSchema: slot order is sorted variable-name order.
func TestPlanResultsSchema(t *testing.T) {
	v, s := paperdata.Build()
	pl, err := sparql.NewEvaluator(s).Compile(figure2WhereBGP(t, v))
	if err != nil {
		t.Fatal(err)
	}
	vars := pl.Vars()
	names := make([]string, len(vars))
	for i, pv := range vars {
		names[i] = pv.Name
	}
	if got := strings.Join(names, ","); got != "w,x,y,z" {
		t.Fatalf("plan vars = %s, want w,x,y,z", got)
	}
	for _, pv := range vars {
		if pv.Kind != vocab.Element {
			t.Fatalf("var %s kind = %v, want Element", pv.Name, pv.Kind)
		}
	}
	rows := solutions(pl)
	if len(rows) != 42 {
		t.Fatalf("got %d rows, want 42", len(rows))
	}
	for _, row := range rows {
		if len(row) != len(vars) {
			t.Fatalf("row width %d, want %d", len(row), len(vars))
		}
	}
}

// TestPlanEmptyBGP: one empty row, which is one empty binding.
func TestPlanEmptyBGP(t *testing.T) {
	_, s := paperdata.Build()
	pl, err := sparql.NewEvaluator(s).Compile(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := solutions(pl)
	if len(rows) != 1 || len(rows[0]) != 0 {
		t.Fatalf("empty BGP: got %d rows (%v), want one empty row", len(rows), rows)
	}
}

// TestPlanCompileErrors: validation failures surface at compile time.
func TestPlanCompileErrors(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	bad := sparql.BGP{{
		S: sparql.VarTerm("x"),
		P: sparql.WildcardTerm(),
		O: sparql.VarTerm("y"),
	}}
	if _, err := e.Compile(bad); err == nil {
		t.Fatal("wildcard predicate must fail compilation")
	}
	_ = v
}
