// Package nlgen renders crowd questions in natural language from
// domain-specific templates, as the OASSIS prototype UI does (Section 6.2):
// "Questions are retrieved iteratively from the user queue and are then
// automatically translated into a natural language question using
// templates ... the ontology elements in bold being plugged into the
// template."
package nlgen

import (
	"strconv"
	"strings"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// templates maps relation names to the verb phrases of the paper's
// travel-domain examples; subject and object names are substituted for
// {s} and {o}. Other relations fall back to "have {s} <relation> {o}".
var templates = map[string]string{
	"doAt":       "engage in {s} at {o}",
	"eatAt":      "eat {s} at {o}",
	"drink":      "drink {s} with {o}",
	"take":       "take {s} for {o}",
	"takenFor":   "take {s} for {o}",
	"servedWith": "have {s} served with {o}",
	"goTo":       "go to {s} in {o}",
	"visit":      "visit {s} at {o}",
	"playAt":     "play {s} at {o}",
}

// Renderer turns fact-sets and assignments into questions.
type Renderer struct {
	v *vocab.Vocabulary
}

// NewRenderer builds a renderer over the vocabulary's names.
func NewRenderer(v *vocab.Vocabulary) *Renderer { return &Renderer{v: v} }

// phrase renders one fact as a verb phrase.
func (r *Renderer) phrase(f ontology.Fact) string {
	rel := r.v.RelationName(f.P)
	t, ok := templates[rel]
	subj := r.name(f.S)
	obj := r.name(f.O)
	if !ok {
		return "have " + subj + " " + rel + " " + obj
	}
	out := strings.ReplaceAll(t, "{s}", subj)
	return strings.ReplaceAll(out, "{o}", obj)
}

func (r *Renderer) name(id vocab.TermID) string {
	if id == ontology.Any {
		return "anything"
	}
	return r.v.ElementName(id)
}

// ConcreteQuestion renders "How often do you ... and also ...?" for a
// fact-set, bundling co-occurring facts as in the Introduction's example.
func (r *Renderer) ConcreteQuestion(fs ontology.FactSet) string {
	if len(fs) == 0 {
		return "How often does this apply to you?"
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = r.phrase(f)
	}
	return "How often do you " + strings.Join(parts, " and also ") + "?"
}

// AnswerStatement renders a mined fact-set as an answer sentence, e.g.
// "People frequently engage in Biking at Central Park and eat Falafel at
// Maoz Veg.".
func (r *Renderer) AnswerStatement(fs ontology.FactSet) string {
	if len(fs) == 0 {
		return "No pattern."
	}
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = r.phrase(f)
	}
	return "People frequently " + strings.Join(parts, " and ") + "."
}

// RuleStatement renders an association rule, e.g. "People who engage in
// Biking at Central Park usually also eat Falafel at Maoz Veg. (74%)".
func (r *Renderer) RuleStatement(ante, cons ontology.FactSet, confidence float64) string {
	a := make([]string, len(ante))
	for i, f := range ante {
		a[i] = r.phrase(f)
	}
	c := make([]string, len(cons))
	for i, f := range cons {
		c[i] = r.phrase(f)
	}
	return "People who " + strings.Join(a, " and ") +
		" usually also " + strings.Join(c, " and ") +
		" (" + strconv.Itoa(int(confidence*100+0.5)) + "%)."
}

// SpecializationQuestion renders the open refinement question of
// Section 4.1, e.g. "What type of Sport do you engage in at Central Park?
// How often do you do that?".
func (r *Renderer) SpecializationQuestion(base ontology.FactSet) string {
	if len(base) == 0 {
		return "What do you typically do? How often do you do that?"
	}
	f := base[0]
	q := "What type of " + r.name(f.S) + " do you " +
		strings.TrimPrefix(r.phrase(f), "have ") + "?"
	// Avoid "what type of X do you engage in X at Y": rephrase using the
	// template with {s} replaced by a pronoun-ish gap.
	rel := r.v.RelationName(f.P)
	if t, ok := templates[rel]; ok {
		gap := strings.ReplaceAll(t, "{s}", "that")
		gap = strings.ReplaceAll(gap, "{o}", r.name(f.O))
		q = "What type of " + r.name(f.S) + " do you " + gap + "?"
	}
	if len(base) > 1 {
		rest := make([]string, len(base)-1)
		for i, g := range base[1:] {
			rest[i] = r.phrase(g)
		}
		q += " (when you also " + strings.Join(rest, " and ") + ")"
	}
	return q + " How often do you do that?"
}

// AnswerScaleLabels are the UI's answer options in order of UIScale.
var AnswerScaleLabels = []string{"never", "rarely", "sometimes", "often", "very often"}

// ScaleLabel translates a bucketed support value back to its UI label.
func ScaleLabel(support float64) string {
	switch {
	case support <= 0:
		return AnswerScaleLabels[0]
	case support <= 0.25:
		return AnswerScaleLabels[1]
	case support <= 0.5:
		return AnswerScaleLabels[2]
	case support <= 0.75:
		return AnswerScaleLabels[3]
	default:
		return AnswerScaleLabels[4]
	}
}
