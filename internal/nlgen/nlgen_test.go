package nlgen_test

import (
	"strings"
	"testing"

	"oassis/internal/nlgen"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
)

func TestConcreteQuestionSingleFact(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	fs := ontology.NewFactSet(paperdata.Fact(v, "Ball Game", "doAt", "Central Park"))
	got := r.ConcreteQuestion(fs)
	// The paper's φ17 example: "How often do you engage in ball games in
	// Central Park?" (we keep the noun as-is).
	want := "How often do you engage in Ball Game at Central Park?"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestConcreteQuestionBundlesFacts(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	fs := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg."),
	)
	got := r.ConcreteQuestion(fs)
	if !strings.Contains(got, "and also") {
		t.Errorf("bundled question should join with 'and also': %q", got)
	}
	if !strings.Contains(got, "eat Falafel at Maoz Veg.") {
		t.Errorf("eatAt template not applied: %q", got)
	}
}

func TestConcreteQuestionWildcard(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	fs := ontology.NewFactSet(ontology.Fact{
		S: ontology.Any, P: v.Relation("eatAt"), O: v.Element("Pine"),
	})
	got := r.ConcreteQuestion(fs)
	if !strings.Contains(got, "anything") {
		t.Errorf("wildcard should render as 'anything': %q", got)
	}
}

func TestUnknownRelationFallback(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	fs := ontology.NewFactSet(paperdata.Fact(v, "Central Park", "inside", "NYC"))
	got := r.ConcreteQuestion(fs)
	if !strings.Contains(got, "inside") {
		t.Errorf("fallback should mention the relation name: %q", got)
	}
}

func TestSpecializationQuestion(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	base := ontology.NewFactSet(paperdata.Fact(v, "Sport", "doAt", "Central Park"))
	got := r.SpecializationQuestion(base)
	// Paper: "what type of sport do you do in Central Park? How often..."
	if !strings.Contains(got, "What type of Sport") {
		t.Errorf("missing type prompt: %q", got)
	}
	if !strings.Contains(got, "How often do you do that?") {
		t.Errorf("missing frequency part: %q", got)
	}
}

func TestSpecializationQuestionWithContext(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	base := ontology.NewFactSet(
		paperdata.Fact(v, "Sport", "doAt", "Central Park"),
		paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg."),
	)
	got := r.SpecializationQuestion(base)
	if !strings.Contains(got, "when you also") {
		t.Errorf("context facts missing: %q", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	if got := r.ConcreteQuestion(nil); got == "" {
		t.Error("empty fact-set should still render")
	}
	if got := r.SpecializationQuestion(nil); got == "" {
		t.Error("empty base should still render")
	}
}

func TestScaleLabel(t *testing.T) {
	cases := []struct {
		s    float64
		want string
	}{
		{0, "never"}, {0.25, "rarely"}, {0.5, "sometimes"},
		{0.75, "often"}, {1, "very often"},
	}
	for _, c := range cases {
		if got := nlgen.ScaleLabel(c.s); got != c.want {
			t.Errorf("ScaleLabel(%v) = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestRuleStatement(t *testing.T) {
	v, _ := paperdata.Build()
	r := nlgen.NewRenderer(v)
	ante := ontology.NewFactSet(paperdata.Fact(v, "Biking", "doAt", "Central Park"))
	cons := ontology.NewFactSet(paperdata.Fact(v, "Falafel", "eatAt", "Maoz Veg."))
	got := r.RuleStatement(ante, cons, 0.74)
	want := "People who engage in Biking at Central Park usually also eat Falafel at Maoz Veg. (74%)."
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
	// Multi-fact sides join with "and".
	ante2 := ontology.NewFactSet(
		paperdata.Fact(v, "Biking", "doAt", "Central Park"),
		paperdata.Fact(v, "Baseball", "doAt", "Central Park"),
	)
	if got := r.RuleStatement(ante2, cons, 1.0); !strings.Contains(got, " and ") {
		t.Errorf("multi-fact antecedent not joined: %q", got)
	}
}
