package ontology

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"oassis/internal/vocab"
)

// Well-known relation names with built-in semantics in the loader and the
// SPARQL substrate.
const (
	RelSubClassOf    = "subClassOf"    // object is more general element
	RelInstanceOf    = "instanceOf"    // object is the class of the subject
	RelSubPropertyOf = "subPropertyOf" // object is more general relation
	RelHasLabel      = "hasLabel"      // object is a string literal
)

// Load parses the textual ontology format into a fresh vocabulary and store,
// freezing both. Each non-empty, non-comment line is a triple
//
//	subject predicate object
//
// where tokens are bare words or double-quoted strings (quoting allows
// spaces inside names). Two directives intern vocabulary terms that occur in
// no ontology fact: `@element name...` and `@relation name...`. Semantics of
// special predicates:
//
//	A subClassOf B     adds the fact and declares B ≤ℰ A
//	a instanceOf B     adds the fact and declares B ≤ℰ a
//	r subPropertyOf q  declares q ≤ℛ r (no element fact is stored)
//	e hasLabel "text"  attaches the label string to e
//
// Everything else is stored as a plain fact.
func Load(r io.Reader) (*vocab.Vocabulary, *Store, error) {
	v := vocab.New()
	s := NewStore(v)
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := tokenizeLine(line)
		if err != nil {
			return nil, nil, fmt.Errorf("ontology: line %d: %w", lineNo, err)
		}
		if toks[0].text == "@element" || toks[0].text == "@relation" {
			// Declaration directives intern vocabulary terms that do
			// not occur in any ontology fact (they may still occur in
			// personal histories and queries).
			if len(toks) < 2 {
				return nil, nil, fmt.Errorf("ontology: line %d: %s needs at least one name", lineNo, toks[0].text)
			}
			for _, tk := range toks[1:] {
				if toks[0].text == "@element" {
					_, err = v.AddElement(tk.text)
				} else {
					_, err = v.AddRelation(tk.text)
				}
				if err != nil {
					return nil, nil, fmt.Errorf("ontology: line %d: %w", lineNo, err)
				}
			}
			continue
		}
		if len(toks) != 3 {
			return nil, nil, fmt.Errorf("ontology: line %d: want 3 tokens, got %d", lineNo, len(toks))
		}
		if err := addLine(v, s, toks[0].text, toks[1].text, toks[2].text); err != nil {
			return nil, nil, fmt.Errorf("ontology: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, fmt.Errorf("ontology: %w", err)
	}
	if err := v.Freeze(); err != nil {
		return nil, nil, fmt.Errorf("ontology: %w", err)
	}
	s.Freeze()
	return v, s, nil
}

func addLine(v *vocab.Vocabulary, s *Store, subj, pred, obj string) error {
	switch pred {
	case RelSubPropertyOf:
		spec, err := v.AddRelation(subj)
		if err != nil {
			return err
		}
		gen, err := v.AddRelation(obj)
		if err != nil {
			return err
		}
		return v.OrderRelations(gen, spec)
	case RelHasLabel:
		e, err := v.AddElement(subj)
		if err != nil {
			return err
		}
		// Intern the hasLabel relation so queries can reference it.
		if _, err := v.AddRelation(RelHasLabel); err != nil {
			return err
		}
		return s.AddLabel(e, obj)
	}
	se, err := v.AddElement(subj)
	if err != nil {
		return err
	}
	oe, err := v.AddElement(obj)
	if err != nil {
		return err
	}
	p, err := v.AddRelation(pred)
	if err != nil {
		return err
	}
	if pred == RelSubClassOf || pred == RelInstanceOf {
		// The object is the more general element (Example 2.3: the
		// relations coincide with the reverse of ≤ℰ).
		if err := v.OrderElements(oe, se); err != nil {
			return err
		}
	}
	return s.Add(Fact{S: se, P: p, O: oe})
}

// ParseFact parses one "subject predicate object" line against an existing
// vocabulary (names may be quoted). Unlike Load it never interns new terms.
func ParseFact(line string, v *vocab.Vocabulary) (Fact, error) {
	toks, err := tokenizeLine(strings.TrimSpace(line))
	if err != nil {
		return Fact{}, err
	}
	if len(toks) != 3 {
		return Fact{}, fmt.Errorf("ontology: want 3 tokens, got %d", len(toks))
	}
	s := v.Element(toks[0].text)
	p := v.Relation(toks[1].text)
	o := v.Element(toks[2].text)
	if s == vocab.NoTerm {
		return Fact{}, fmt.Errorf("ontology: unknown element %q", toks[0].text)
	}
	if p == vocab.NoTerm {
		return Fact{}, fmt.Errorf("ontology: unknown relation %q", toks[1].text)
	}
	if o == vocab.NoTerm {
		return Fact{}, fmt.Errorf("ontology: unknown element %q", toks[2].text)
	}
	return Fact{S: s, P: p, O: o}, nil
}

// FormatFact renders a fact in the textual format (quoting names with
// spaces), the inverse of ParseFact.
func FormatFact(f Fact, v *vocab.Vocabulary) string {
	return quoteIfNeeded(v.ElementName(f.S)) + " " +
		v.RelationName(f.P) + " " +
		quoteIfNeeded(v.ElementName(f.O))
}

type token struct {
	text    string
	literal bool
}

// tokenizeLine splits a line into bare-word and quoted tokens.
func tokenizeLine(line string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(line) {
		switch {
		case line[i] == ' ' || line[i] == '\t':
			i++
		case line[i] == '"':
			j := strings.IndexByte(line[i+1:], '"')
			if j < 0 {
				return nil, fmt.Errorf("unterminated string literal")
			}
			toks = append(toks, token{text: line[i+1 : i+1+j], literal: true})
			i += j + 2
		default:
			j := i
			for j < len(line) && line[j] != ' ' && line[j] != '\t' {
				j++
			}
			toks = append(toks, token{text: line[i:j]})
			i = j
		}
	}
	return toks, nil
}

// Write serializes the store (facts, labels and relation order) back into
// the textual format accepted by Load. Element-order edges that came from
// subClassOf/instanceOf facts are implied by the facts themselves.
func Write(w io.Writer, s *Store) error {
	bw := bufio.NewWriter(w)
	v := s.Vocabulary()
	for _, f := range s.AllFacts() {
		if _, err := fmt.Fprintf(bw, "%s %s %s\n",
			quoteIfNeeded(v.ElementName(f.S)),
			v.RelationName(f.P),
			quoteIfNeeded(v.ElementName(f.O))); err != nil {
			return err
		}
	}
	// Relation order: emit one subPropertyOf line per immediate edge.
	for _, r := range v.RelationsTopo() {
		for _, c := range v.RelationChildren(r) {
			if _, err := fmt.Fprintf(bw, "%s subPropertyOf %s\n",
				v.RelationName(c), v.RelationName(r)); err != nil {
				return err
			}
		}
	}
	// Labels, sorted for determinism.
	var labeled []vocab.TermID
	for e := range s.labels {
		labeled = append(labeled, e)
	}
	sort.Slice(labeled, func(i, j int) bool { return labeled[i] < labeled[j] })
	for _, e := range labeled {
		var ls []string
		for l := range s.labels[e] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		for _, l := range ls {
			if _, err := fmt.Fprintf(bw, "%s hasLabel %q\n",
				quoteIfNeeded(v.ElementName(e)), l); err != nil {
				return err
			}
		}
	}
	// Vocabulary terms covered by no fact survive as declarations (e.g.
	// relations that occur only in personal histories and queries).
	coveredE := make(map[vocab.TermID]bool)
	coveredR := make(map[vocab.TermID]bool)
	for _, f := range s.pso {
		coveredE[f.S] = true
		coveredE[f.O] = true
		coveredR[f.P] = true
	}
	for e := range s.labels {
		coveredE[e] = true
	}
	for _, r := range v.RelationsTopo() {
		if len(v.RelationChildren(r)) > 0 || len(v.RelationParents(r)) > 0 {
			coveredR[r] = true // emitted as subPropertyOf lines
		}
	}
	for _, e := range v.ElementsTopo() {
		if !coveredE[e] {
			if _, err := fmt.Fprintf(bw, "@element %s\n",
				quoteIfNeeded(v.ElementName(e))); err != nil {
				return err
			}
		}
	}
	for _, r := range v.RelationsTopo() {
		if !coveredR[r] && v.RelationName(r) != RelHasLabel {
			if _, err := fmt.Fprintf(bw, "@relation %s\n",
				quoteIfNeeded(v.RelationName(r))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func quoteIfNeeded(name string) string {
	if strings.ContainsAny(name, " \t") {
		return `"` + name + `"`
	}
	return name
}
