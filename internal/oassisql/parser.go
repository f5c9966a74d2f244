package oassisql

import (
	"fmt"
	"strconv"
	"strings"

	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// Parse parses and name-resolves an OASSIS-QL query against the vocabulary.
// All term names mentioned by the query must exist in the vocabulary.
func Parse(input string, v *vocab.Vocabulary) (*Query, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, v: v}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if err := validate(q); err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
	v    *vocab.Vocabulary
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return fmt.Errorf("oassisql: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		return p.errf(t, "expected %s, got %q", kw, t)
	}
	return nil
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{vocab: p.v}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	t := p.next()
	switch {
	case t.kind == tokKeyword && t.text == "FACT-SETS":
		q.Form = FactSets
	case t.kind == tokKeyword && t.text == "VARIABLES":
		q.Form = Variables
	default:
		return nil, p.errf(t, "expected FACT-SETS or VARIABLES, got %q", t)
	}
	if p.cur().kind == tokKeyword && p.cur().text == "ALL" {
		p.next()
		q.All = true
	}
	if p.cur().kind == tokKeyword && p.cur().text == "LIMIT" {
		p.next()
		t := p.next()
		if t.kind != tokNumber {
			return nil, p.errf(t, "expected a count after LIMIT, got %q", t)
		}
		k, err := strconv.Atoi(t.text)
		if err != nil || k <= 0 {
			return nil, p.errf(t, "LIMIT wants a positive integer, got %q", t.text)
		}
		q.Limit = k
		if p.cur().kind == tokKeyword && p.cur().text == "DIVERSE" {
			p.next()
			q.Diverse = true
		}
	}
	if p.cur().kind == tokKeyword && p.cur().text == "FROM" {
		p.next()
		if err := p.expectKeyword("CROWD"); err != nil {
			return nil, err
		}
		if err := p.expectKeyword("WITH"); err != nil {
			return nil, err
		}
		for {
			attr := p.next()
			if attr.kind != tokName {
				return nil, p.errf(attr, "expected an attribute name, got %q", attr)
			}
			eq := p.next()
			if eq.kind != tokEq {
				return nil, p.errf(eq, "expected = in crowd selection, got %q", eq)
			}
			val := p.next()
			if val.kind != tokName {
				return nil, p.errf(val, "expected an attribute value, got %q", val)
			}
			q.CrowdFilter = append(q.CrowdFilter, AttrMatch{Attr: attr.text, Value: val.text})
			if p.cur().kind == tokKeyword && p.cur().text == "AND" {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	where, err := p.parseWhere()
	if err != nil {
		return nil, err
	}
	q.Where = where
	if err := p.expectKeyword("SATISFYING"); err != nil {
		return nil, err
	}
	sat, err := p.parseSatisfying()
	if err != nil {
		return nil, err
	}
	q.Satisfying = sat
	return q, nil
}

// parseWhere reads triple patterns separated by dots until SATISFYING.
func (p *parser) parseWhere() (sparql.BGP, error) {
	var bgp sparql.BGP
	for {
		if p.cur().kind == tokKeyword && p.cur().text == "SATISFYING" {
			return bgp, nil
		}
		if p.cur().kind == tokEOF {
			return nil, p.errf(p.cur(), "missing SATISFYING clause")
		}
		pat, err := p.parseWherePattern()
		if err != nil {
			return nil, err
		}
		bgp = append(bgp, pat)
		if p.cur().kind == tokDot {
			p.next()
		}
	}
}

func (p *parser) parseWherePattern() (sparql.Pattern, error) {
	var pat sparql.Pattern
	s, err := p.parseTerm(vocab.Element, false)
	if err != nil {
		return pat, err
	}
	pr, star, err := p.parsePredicate()
	if err != nil {
		return pat, err
	}
	o, err := p.parseTerm(vocab.Element, true)
	if err != nil {
		return pat, err
	}
	return sparql.Pattern{S: s, P: pr, O: o, Star: star}, nil
}

// parsePredicate reads a relation position: a relation name (optionally
// star-suffixed as a path) or a variable.
func (p *parser) parsePredicate() (sparql.Term, bool, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return sparql.VarTerm(t.text), false, nil
	case tokName:
		id := p.v.Relation(t.text)
		if id == vocab.NoTerm {
			return sparql.Term{}, false, p.errf(t, "unknown relation %q", t.text)
		}
		star := false
		if p.cur().kind == tokStar {
			p.next()
			star = true
		}
		return sparql.ConstTerm(id), star, nil
	default:
		return sparql.Term{}, false, p.errf(t, "expected relation or variable, got %q", t)
	}
}

// parseTerm reads a subject/object position. Literals are only meaningful as
// objects (allowLit).
func (p *parser) parseTerm(k vocab.Kind, allowLit bool) (sparql.Term, error) {
	t := p.next()
	switch t.kind {
	case tokVar:
		return sparql.VarTerm(t.text), nil
	case tokBracket:
		return sparql.WildcardTerm(), nil
	case tokName:
		if id := p.v.Element(t.text); id != vocab.NoTerm {
			return sparql.ConstTerm(id), nil
		}
		if t.quoted && allowLit {
			// A quoted string that names no element is a literal.
			return sparql.LiteralTerm(t.text), nil
		}
		return sparql.Term{}, p.errf(t, "unknown element %q", t.text)
	default:
		return sparql.Term{}, p.errf(t, "expected element, variable or [], got %q", t)
	}
}

// parseSatisfying reads the SATISFYING clause up to and including
// WITH SUPPORT.
func (p *parser) parseSatisfying() (SatClause, error) {
	var sat SatClause
	for {
		t := p.cur()
		if t.kind == tokKeyword && t.text == "MORE" {
			p.next()
			sat.More = true
			if p.cur().kind == tokDot {
				p.next()
			}
			continue
		}
		if t.kind == tokKeyword && t.text == "WITH" {
			break
		}
		if t.kind == tokEOF {
			return sat, p.errf(t, "missing WITH SUPPORT")
		}
		pat, err := p.parseSatPattern()
		if err != nil {
			return sat, err
		}
		sat.Patterns = append(sat.Patterns, pat)
		if p.cur().kind == tokDot {
			p.next()
		}
	}
	if err := p.expectKeyword("WITH"); err != nil {
		return sat, err
	}
	if err := p.expectKeyword("SUPPORT"); err != nil {
		return sat, err
	}
	t := p.next()
	if t.kind != tokEq && t.kind != tokGeq {
		return sat, p.errf(t, "expected = or >= after SUPPORT, got %q", t)
	}
	t = p.next()
	if t.kind != tokNumber {
		return sat, p.errf(t, "expected a support threshold, got %q", t)
	}
	thr, err := strconv.ParseFloat(t.text, 64)
	if err != nil {
		return sat, p.errf(t, "malformed support threshold %q", t.text)
	}
	sat.Support = thr
	// Optional rule-mining extension: CONFIDENCE = c.
	if p.cur().kind == tokName && strings.EqualFold(p.cur().text, "CONFIDENCE") {
		p.next()
		t = p.next()
		if t.kind != tokEq && t.kind != tokGeq {
			return sat, p.errf(t, "expected = or >= after CONFIDENCE, got %q", t)
		}
		t = p.next()
		if t.kind != tokNumber {
			return sat, p.errf(t, "expected a confidence threshold, got %q", t)
		}
		conf, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return sat, p.errf(t, "malformed confidence threshold %q", t.text)
		}
		sat.Confidence = conf
	}
	if t := p.next(); t.kind != tokEOF {
		return sat, p.errf(t, "unexpected trailing input %q", t)
	}
	return sat, nil
}

func (p *parser) parseSatPattern() (SatPattern, error) {
	var pat SatPattern
	var err error
	pat.S, pat.SMult, err = p.parseSatTerm(vocab.Element)
	if err != nil {
		return pat, err
	}
	pat.P, pat.PMult, err = p.parseSatTerm(vocab.Relation)
	if err != nil {
		return pat, err
	}
	pat.O, pat.OMult, err = p.parseSatTerm(vocab.Element)
	if err != nil {
		return pat, err
	}
	return pat, nil
}

// parseSatTerm reads a SATISFYING position with an optional multiplicity
// suffix on variables.
func (p *parser) parseSatTerm(k vocab.Kind) (sparql.Term, Multiplicity, error) {
	t := p.next()
	var term sparql.Term
	switch t.kind {
	case tokVar:
		term = sparql.VarTerm(t.text)
	case tokBracket:
		if k == vocab.Relation {
			return term, MultOne, p.errf(t, "[] not allowed in relation position of SATISFYING")
		}
		term = sparql.WildcardTerm()
	case tokName:
		var id vocab.TermID
		if k == vocab.Element {
			id = p.v.Element(t.text)
		} else {
			id = p.v.Relation(t.text)
		}
		if id == vocab.NoTerm {
			return term, MultOne, p.errf(t, "unknown %s %q", k, t.text)
		}
		term = sparql.ConstTerm(id)
	default:
		return term, MultOne, p.errf(t, "expected term, got %q", t)
	}
	mult := MultOne
	switch p.cur().kind {
	case tokPlus:
		p.next()
		mult = MultPlus
	case tokStar:
		p.next()
		mult = MultStar
	case tokQuest:
		p.next()
		mult = MultOptional
	}
	if mult != MultOne && term.Kind != sparql.Var {
		return term, MultOne, p.errf(t, "multiplicity marker requires a variable")
	}
	return term, mult, nil
}

// validate performs the semantic checks that need the whole query.
func validate(q *Query) error {
	if q.Satisfying.Support <= 0 || q.Satisfying.Support > 1 {
		return fmt.Errorf("oassisql: support threshold %g out of range (0, 1]", q.Satisfying.Support)
	}
	if c := q.Satisfying.Confidence; c < 0 || c > 1 {
		return fmt.Errorf("oassisql: confidence threshold %g out of range [0, 1]", c)
	}
	if len(q.Satisfying.Patterns) == 0 {
		return fmt.Errorf("oassisql: SATISFYING clause has no patterns")
	}
	if err := sparql.CheckVarKinds(q.Where); err != nil {
		return err
	}
	// A SATISFYING variable may be unconstrained by WHERE (its domain is
	// then the whole namespace — this is how OASSIS-QL captures standard
	// frequent itemset mining, Section 4.1), but when it does occur in
	// WHERE its namespace must agree between the clauses.
	for _, sv := range q.SatVars() {
		if k, ok := sparql.VarKind(q.Where, sv.Name); ok && k != sv.Kind {
			return fmt.Errorf("oassisql: variable $%s used as %s in WHERE but %s in SATISFYING",
				sv.Name, k, sv.Kind)
		}
	}
	return nil
}
