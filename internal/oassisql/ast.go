package oassisql

import (
	"fmt"
	"slices"
	"strings"

	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// OutputForm selects the shape of query answers (Section 3, SELECT).
type OutputForm uint8

const (
	// FactSets requests answers as fact-sets (SELECT FACT-SETS).
	FactSets OutputForm = iota
	// Variables requests answers as variable assignments (SELECT VARIABLES).
	Variables
)

func (f OutputForm) String() string {
	if f == Variables {
		return "VARIABLES"
	}
	return "FACT-SETS"
}

// Multiplicity bounds how many instantiations of a variable an assignment
// may give (Section 3, "Multiplicities"). Max < 0 means unbounded.
type Multiplicity struct {
	Min int
	Max int
}

// The standard multiplicity notations.
var (
	MultOne      = Multiplicity{Min: 1, Max: 1}  // default: exactly one
	MultPlus     = Multiplicity{Min: 1, Max: -1} // + : at least one
	MultStar     = Multiplicity{Min: 0, Max: -1} // * : any number
	MultOptional = Multiplicity{Min: 0, Max: 1}  // ? : optional
)

func (m Multiplicity) String() string {
	switch m {
	case MultOne:
		return ""
	case MultPlus:
		return "+"
	case MultStar:
		return "*"
	case MultOptional:
		return "?"
	}
	return fmt.Sprintf("{%d,%d}", m.Min, m.Max)
}

// Allows reports whether a set of n values satisfies the multiplicity.
func (m Multiplicity) Allows(n int) bool {
	if n < m.Min {
		return false
	}
	return m.Max < 0 || n <= m.Max
}

// SatPattern is one meta-fact of the SATISFYING clause. Terms reuse the
// sparql.Term representation; multiplicities attach to variable occurrences.
type SatPattern struct {
	S, P, O             sparql.Term
	SMult, PMult, OMult Multiplicity
}

func (p SatPattern) String(v *vocab.Vocabulary) string {
	var sb strings.Builder
	sb.WriteString(satTermString(v, vocab.Element, p.S, p.SMult))
	sb.WriteByte(' ')
	sb.WriteString(satTermString(v, vocab.Relation, p.P, p.PMult))
	sb.WriteByte(' ')
	sb.WriteString(satTermString(v, vocab.Element, p.O, p.OMult))
	return sb.String()
}

func satTermString(v *vocab.Vocabulary, k vocab.Kind, t sparql.Term, m Multiplicity) string {
	base := sparqlTermString(v, k, t)
	if t.Kind == sparql.Var {
		return base + m.String()
	}
	return base
}

func sparqlTermString(v *vocab.Vocabulary, k vocab.Kind, t sparql.Term) string {
	switch t.Kind {
	case sparql.Const:
		var n string
		if k == vocab.Element {
			n = v.ElementName(t.ID)
		} else {
			n = v.RelationName(t.ID)
		}
		if strings.ContainsAny(n, " \t.") {
			return `"` + n + `"`
		}
		return n
	case sparql.Var:
		return "$" + t.Name
	case sparql.Wildcard:
		return "[]"
	case sparql.Literal:
		return `"` + t.Lit + `"`
	}
	return "?"
}

// SatClause is the SATISFYING statement: the meta-fact-set to mine, the MORE
// flag and the support threshold.
type SatClause struct {
	Patterns []SatPattern
	// More requests additional co-occurring facts (syntactic sugar for
	// `$u $p $v *`, Section 3).
	More bool
	// Support is the significance threshold Θ.
	Support float64
	// Confidence, when positive, additionally requests association rules
	// among the significant patterns at this minimum confidence (the
	// rule-mining extension of the OASSIS-QL language guide):
	// `WITH SUPPORT = 0.4 CONFIDENCE = 0.7`.
	Confidence float64
}

// Query is a parsed, name-resolved OASSIS-QL query.
type Query struct {
	Form OutputForm
	All  bool // SELECT ... ALL: return all significant patterns, not just MSPs
	// Limit caps the answer set at k MSPs (SELECT ... LIMIT k, the
	// paper's top-k future extension); 0 means unlimited. Without
	// DIVERSE the engine stops early once k MSPs are confirmed.
	Limit int
	// Diverse requests the k answers to be picked for semantic diversity
	// rather than discovery order (requires Limit; the engine then mines
	// to completion and selects a max-min-distance subset).
	Diverse bool
	// CrowdFilter restricts which members are asked (the Section 8
	// crowd-selection extension): `FROM CROWD WITH attr = "v" AND ...`
	// keeps only members whose attributes match every conjunct.
	CrowdFilter []AttrMatch
	Where       sparql.BGP
	Satisfying  SatClause

	vocab *vocab.Vocabulary
}

// AttrMatch is one crowd-selection conjunct: the member attribute must
// equal the value.
type AttrMatch struct {
	Attr  string
	Value string
}

// Vocabulary returns the vocabulary the query was resolved against.
func (q *Query) Vocabulary() *vocab.Vocabulary { return q.vocab }

// SatVar describes one variable of the SATISFYING clause.
type SatVar struct {
	Name string
	Kind vocab.Kind
	Mult Multiplicity
}

// SatVars returns the variables occurring in the SATISFYING clause, sorted
// by name. Their multiplicity is the widest used at any occurrence.
func (q *Query) SatVars() []SatVar {
	var out []SatVar
	note := func(t sparql.Term, k vocab.Kind, m Multiplicity) {
		if t.Kind != sparql.Var {
			return
		}
		for i := range out {
			if sv := &out[i]; sv.Name == t.Name {
				if m.Min < sv.Mult.Min {
					sv.Mult.Min = m.Min
				}
				if m.Max < 0 || (sv.Mult.Max >= 0 && m.Max > sv.Mult.Max) {
					sv.Mult.Max = m.Max
				}
				return
			}
		}
		out = append(out, SatVar{Name: t.Name, Kind: k, Mult: m})
	}
	for _, p := range q.Satisfying.Patterns {
		note(p.S, vocab.Element, p.SMult)
		note(p.P, vocab.Relation, p.PMult)
		note(p.O, vocab.Element, p.OMult)
	}
	slices.SortFunc(out, func(a, b SatVar) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// String reconstructs query text that parses back to an equivalent query.
func (q *Query) String() string {
	v := q.vocab
	var sb strings.Builder
	sb.WriteString("SELECT ")
	sb.WriteString(q.Form.String())
	if q.All {
		sb.WriteString(" ALL")
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
		if q.Diverse {
			sb.WriteString(" DIVERSE")
		}
	}
	if len(q.CrowdFilter) > 0 {
		sb.WriteString("\nFROM CROWD WITH ")
		for i, m := range q.CrowdFilter {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(&sb, "%q = %q", m.Attr, m.Value)
		}
	}
	sb.WriteString("\nWHERE\n")
	for i, p := range q.Where {
		sb.WriteString("  ")
		sb.WriteString(p.String(v))
		if i < len(q.Where)-1 {
			sb.WriteString(".")
		}
		sb.WriteString("\n")
	}
	sb.WriteString("SATISFYING\n")
	for i, p := range q.Satisfying.Patterns {
		sb.WriteString("  ")
		sb.WriteString(p.String(v))
		if i < len(q.Satisfying.Patterns)-1 || q.Satisfying.More {
			sb.WriteString(".")
		}
		sb.WriteString("\n")
	}
	if q.Satisfying.More {
		sb.WriteString("  MORE\n")
	}
	fmt.Fprintf(&sb, "WITH SUPPORT = %g", q.Satisfying.Support)
	if q.Satisfying.Confidence > 0 {
		fmt.Fprintf(&sb, " CONFIDENCE = %g", q.Satisfying.Confidence)
	}
	sb.WriteString("\n")
	return sb.String()
}
