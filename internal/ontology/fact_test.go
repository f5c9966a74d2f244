package ontology_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/vocab"
)

func TestLeqFactPaperExamples(t *testing.T) {
	v, _ := paperdata.Build()
	// Example 2.6: f1 = ⟨Sport, doAt, Central Park⟩, f2 = ⟨Biking, doAt, CP⟩.
	f1 := paperdata.Fact(v, "Sport", "doAt", "Central Park")
	f2 := paperdata.Fact(v, "Biking", "doAt", "Central Park")
	if !ontology.LeqFact(v, f1, f2) {
		t.Error("f1 ≤ f2 should hold (Sport ≤ Biking)")
	}
	if ontology.LeqFact(v, f2, f1) {
		t.Error("f2 ≤ f1 must not hold")
	}
	// f3 = ⟨CP, inside, NYC⟩, f4 = ⟨CP, nearBy, NYC⟩: f4 ≤ f3 since
	// nearBy ≤ inside. (The paper writes f3 ≤ f4 with the roles of the
	// names swapped; the relation order makes the nearBy fact the more
	// general one.)
	f3 := paperdata.Fact(v, "Central Park", "inside", "NYC")
	f4 := paperdata.Fact(v, "Central Park", "nearBy", "NYC")
	if !ontology.LeqFact(v, f4, f3) {
		t.Error("⟨CP,nearBy,NYC⟩ ≤ ⟨CP,inside,NYC⟩ should hold")
	}
	// Reflexivity.
	if !ontology.LeqFact(v, f1, f1) {
		t.Error("LeqFact not reflexive")
	}
}

func TestLeqFactWithAny(t *testing.T) {
	v, _ := paperdata.Build()
	eatAt := v.Relation("eatAt")
	maoz := v.Element("Maoz Veg.")
	falafel := v.Element("Falafel")
	anyEat := ontology.Fact{S: ontology.Any, P: eatAt, O: maoz}
	concrete := ontology.Fact{S: falafel, P: eatAt, O: maoz}
	if !ontology.LeqFact(v, anyEat, concrete) {
		t.Error("⟨[], eatAt, Maoz⟩ ≤ ⟨Falafel, eatAt, Maoz⟩ should hold")
	}
	if ontology.LeqFact(v, concrete, anyEat) {
		t.Error("concrete fact must not be ≤ wildcard fact")
	}
	if !ontology.LeqFact(v, anyEat, anyEat) {
		t.Error("wildcard fact should be ≤ itself")
	}
}

func TestFactSetCanonicalForm(t *testing.T) {
	v, _ := paperdata.Build()
	f1 := paperdata.Fact(v, "Biking", "doAt", "Central Park")
	f2 := paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg.")
	a := ontology.NewFactSet(f2, f1, f2, f1)
	if len(a) != 2 {
		t.Fatalf("duplicates not removed: %v", a)
	}
	b := ontology.NewFactSet(f1, f2)
	if !a.Equal(b) {
		t.Error("order of construction should not matter")
	}
	if !a.Contains(f1) || !a.Contains(f2) {
		t.Error("Contains failed")
	}
	if a.Contains(paperdata.Fact(v, "Pasta", "eatAt", "Pine")) {
		t.Error("Contains returned true for absent fact")
	}
}

func TestLeqFactSet(t *testing.T) {
	v, _ := paperdata.Build()
	general := ontology.NewFactSet(paperdata.Fact(v, "Sport", "doAt", "Central Park"))
	specific := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg."),
	)
	if !ontology.LeqFactSet(v, general, specific) {
		t.Error("general ≤ specific should hold")
	}
	if ontology.LeqFactSet(v, specific, general) {
		t.Error("specific ≤ general must not hold")
	}
	// Empty set is below everything.
	if !ontology.LeqFactSet(v, ontology.NewFactSet(), specific) {
		t.Error("∅ ≤ A should hold")
	}
}

// TestSupportExample27 checks Example 2.7: the fact-set
// {⟨Pasta, eatAt, Pine⟩, ⟨Activity, doAt, Bronx Zoo⟩} has support 1/3 in D_u1
// (implied by T2 and T5 out of 6 transactions).
func TestSupportExample27(t *testing.T) {
	v, _ := paperdata.Build()
	du1, du2 := paperdata.Table3(v)
	a := ontology.NewFactSet(
		paperdata.Fact(v, "Pasta", "eatAt", "Pine"),
		paperdata.Fact(v, "Activity", "doAt", "Bronx Zoo"),
	)
	if got := ontology.Support(v, du1, a); got != 1.0/3.0 {
		t.Errorf("supp_u1 = %v, want 1/3", got)
	}
	if got := ontology.Support(v, du2, a); got != 0.5 {
		t.Errorf("supp_u2 = %v, want 1/2", got)
	}
}

// TestSupportExample31 checks Example 3.1's assignment φ16: the fact-set
// {Biking doAt Central Park, [] eatAt Maoz Veg.} has supports 1/3 and 1/2,
// and φ20 (Baseball) has supports 1/6 and 1/2.
func TestSupportExample31(t *testing.T) {
	v, _ := paperdata.Build()
	du1, du2 := paperdata.Table3(v)
	eatAt := v.Relation("eatAt")
	maoz := v.Element("Maoz Veg.")
	phi16 := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		ontology.Fact{S: ontology.Any, P: eatAt, O: maoz},
	)
	if got := ontology.Support(v, du1, phi16); got != 1.0/3.0 {
		t.Errorf("supp_u1(φ16) = %v, want 1/3", got)
	}
	if got := ontology.Support(v, du2, phi16); got != 0.5 {
		t.Errorf("supp_u2(φ16) = %v, want 1/2", got)
	}
	phi20 := ontology.NewFactSet(
		paperdata.Fact(v, "Baseball", "doAt", "Central Park"),
		ontology.Fact{S: ontology.Any, P: eatAt, O: maoz},
	)
	if got := ontology.Support(v, du1, phi20); got != 1.0/6.0 {
		t.Errorf("supp_u1(φ20) = %v, want 1/6", got)
	}
	if got := ontology.Support(v, du2, phi20); got != 0.5 {
		t.Errorf("supp_u2(φ20) = %v, want 1/2", got)
	}
}

// TestSupportExample32 checks the extended assignment of Example 3.2:
// adding the MORE fact ⟨Rent Bikes, doAt, Boathouse⟩ to φ16 keeps average
// support 5/12 (implied by T3, T4, T7); extending instead with multiplicity
// {Biking, Baseball} is implied by T4 and T7 only.
func TestSupportExample32(t *testing.T) {
	v, _ := paperdata.Build()
	du1, du2 := paperdata.Table3(v)
	eatAt := v.Relation("eatAt")
	maoz := v.Element("Maoz Veg.")
	withMore := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse"),
		ontology.Fact{S: ontology.Any, P: eatAt, O: maoz},
	)
	got1, got2 := ontology.Support(v, du1, withMore), ontology.Support(v, du2, withMore)
	if avg := (got1 + got2) / 2; math.Abs(avg-5.0/12.0) > 1e-12 {
		t.Errorf("avg support with MORE fact = %v, want 5/12", avg)
	}
	multi := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Baseball", "doAt", "Central Park"),
		ontology.Fact{S: ontology.Any, P: eatAt, O: maoz},
	)
	if got := ontology.Support(v, du1, multi); got != 1.0/6.0 {
		t.Errorf("supp_u1(multi) = %v, want 1/6 (only T4)", got)
	}
	if got := ontology.Support(v, du2, multi); got != 0.5 {
		t.Errorf("supp_u2(multi) = %v, want 1/2 (only T7)", got)
	}
}

func TestSupportEmptyDB(t *testing.T) {
	v, _ := paperdata.Build()
	a := ontology.NewFactSet(paperdata.Fact(v, "Biking", "doAt", "Central Park"))
	if got := ontology.Support(v, nil, a); got != 0 {
		t.Errorf("support over empty DB = %v, want 0", got)
	}
}

// Property: support is anti-monotone in the fact-set order (Observation 4.4's
// underlying fact): if A ≤ B then supp(A) ≥ supp(B).
func TestPropertySupportAntiMonotone(t *testing.T) {
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	doAt := v.Relation("doAt")
	eatAt := v.Relation("eatAt")
	elems := v.ElementsTopo()
	rng := rand.New(rand.NewSource(99))

	randomFact := func() ontology.Fact {
		p := doAt
		if rng.Intn(2) == 0 {
			p = eatAt
		}
		return ontology.Fact{
			S: elems[rng.Intn(len(elems))],
			P: p,
			O: elems[rng.Intn(len(elems))],
		}
	}
	// generalize a fact by walking subject or object up one step.
	generalize := func(f ontology.Fact) ontology.Fact {
		if rng.Intn(2) == 0 {
			if ps := v.ElementParents(f.S); len(ps) > 0 {
				f.S = ps[rng.Intn(len(ps))]
				return f
			}
		}
		if ps := v.ElementParents(f.O); len(ps) > 0 {
			f.O = ps[rng.Intn(len(ps))]
		}
		return f
	}
	f := func(n uint8) bool {
		var bf []ontology.Fact
		for i := 0; i < 1+int(n)%3; i++ {
			bf = append(bf, randomFact())
		}
		b := ontology.NewFactSet(bf...)
		af := make([]ontology.Fact, len(b))
		for i, x := range b {
			af[i] = generalize(x)
		}
		a := ontology.NewFactSet(af...)
		if !ontology.LeqFactSet(v, a, b) {
			// generalizing each fact must produce a more general set
			return false
		}
		return ontology.Support(v, du1, a) >= ontology.Support(v, du1, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: LeqFactSet is reflexive and transitive on random fact-sets.
func TestPropertyLeqFactSetPreorder(t *testing.T) {
	v, _ := paperdata.Build()
	doAt := v.Relation("doAt")
	elems := v.ElementsTopo()
	rng := rand.New(rand.NewSource(5))
	randomSet := func() ontology.FactSet {
		var fs []ontology.Fact
		for i := 0; i < 1+rng.Intn(3); i++ {
			fs = append(fs, ontology.Fact{
				S: elems[rng.Intn(len(elems))],
				P: doAt,
				O: elems[rng.Intn(len(elems))],
			})
		}
		return ontology.NewFactSet(fs...)
	}
	for i := 0; i < 300; i++ {
		a, b, c := randomSet(), randomSet(), randomSet()
		if !ontology.LeqFactSet(v, a, a) {
			t.Fatal("LeqFactSet not reflexive")
		}
		if ontology.LeqFactSet(v, a, b) && ontology.LeqFactSet(v, b, c) &&
			!ontology.LeqFactSet(v, a, c) {
			t.Fatalf("LeqFactSet not transitive: %v %v %v", a, b, c)
		}
	}
}

func TestFactString(t *testing.T) {
	v, _ := paperdata.Build()
	f := paperdata.Fact(v, "Biking", "doAt", "Central Park")
	if got := f.String(v); got != "Biking doAt Central Park" {
		t.Errorf("String = %q", got)
	}
	anyF := ontology.Fact{S: ontology.Any, P: v.Relation("eatAt"), O: v.Element("Pine")}
	if got := anyF.String(v); got != "[] eatAt Pine" {
		t.Errorf("String with Any = %q", got)
	}
}

func TestFactSetString(t *testing.T) {
	v, _ := paperdata.Build()
	fs := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg."),
	)
	got := fs.String(v)
	if got == "" || len(got) < 10 {
		t.Errorf("FactSet.String = %q", got)
	}
}

var _ = vocab.NoTerm // keep the import when tests are trimmed
