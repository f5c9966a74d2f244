package ontology

import (
	"fmt"
	"strconv"
	"strings"
)

// The paper's prototype drew its ontology from WordNet, YAGO and Foursquare
// (Section 6.3). This file imports the W3C N-Triples format those knowledge
// bases export, mapping the RDF/RDFS vocabulary onto the OASSIS model:
//
//	rdfs:subClassOf     → subClassOf facts + the ≤ℰ order
//	rdf:type            → instanceOf facts + the ≤ℰ order
//	rdfs:subPropertyOf  → the ≤ℛ order
//	rdfs:label          → element labels
//
// IRIs become vocabulary names by taking the fragment or last path segment
// and undoing YAGO/DBpedia-style underscore and percent encoding
// ("Central_Park" → "Central Park"). Non-label literal objects are counted
// and skipped: OASSIS facts relate elements.

// Well-known RDF/RDFS IRIs.
const (
	iriSubClassOf    = "http://www.w3.org/2000/01/rdf-schema#subClassOf"
	iriType          = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
	iriSubPropertyOf = "http://www.w3.org/2000/01/rdf-schema#subPropertyOf"
	iriLabel         = "http://www.w3.org/2000/01/rdf-schema#label"
)

// NTriplesStats reports what an import did.
type NTriplesStats struct {
	Triples         int // parsed triples
	Facts           int // facts added to the store
	Labels          int // labels attached
	SkippedLiterals int // non-label literal objects ignored
	SkippedBlank    int // triples with blank nodes ignored
}

type ntriple struct {
	subj, pred string // IRIs
	objIRI     string // set when the object is an IRI
	objLit     string // set when the object is a literal
	isLiteral  bool
	blank      bool
}

// parseNTriple parses one `<s> <p> <o> .` line (object IRI or literal).
func parseNTriple(line string) (ntriple, error) {
	var t ntriple
	rest := line
	var err error
	if strings.HasPrefix(rest, "_:") {
		t.blank = true
		return t, nil
	}
	t.subj, rest, err = readIRI(rest)
	if err != nil {
		return t, fmt.Errorf("subject: %w", err)
	}
	rest = strings.TrimLeft(rest, " \t")
	t.pred, rest, err = readIRI(rest)
	if err != nil {
		return t, fmt.Errorf("predicate: %w", err)
	}
	rest = strings.TrimLeft(rest, " \t")
	switch {
	case strings.HasPrefix(rest, "<"):
		t.objIRI, rest, err = readIRI(rest)
		if err != nil {
			return t, fmt.Errorf("object: %w", err)
		}
	case strings.HasPrefix(rest, `"`):
		t.objLit, rest, err = readLiteral(rest)
		if err != nil {
			return t, fmt.Errorf("object: %w", err)
		}
		t.isLiteral = true
	case strings.HasPrefix(rest, "_:"):
		t.blank = true
		return t, nil
	default:
		return t, fmt.Errorf("unrecognized object %q", rest)
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		return t, fmt.Errorf("missing terminating dot (got %q)", rest)
	}
	return t, nil
}

// readIRI consumes "<...>" and returns the IRI and the remainder.
func readIRI(s string) (string, string, error) {
	if !strings.HasPrefix(s, "<") {
		return "", "", fmt.Errorf("expected IRI, got %q", s)
	}
	end := strings.IndexByte(s, '>')
	if end < 0 {
		return "", "", fmt.Errorf("unterminated IRI")
	}
	return s[1:end], s[end+1:], nil
}

// readLiteral consumes a quoted literal with optional @lang or ^^<type>
// suffix, returning the unescaped lexical value.
func readLiteral(s string) (string, string, error) {
	if !strings.HasPrefix(s, `"`) {
		return "", "", fmt.Errorf("expected literal, got %q", s)
	}
	// Find the closing quote honouring backslash escapes.
	i := 1
	var sb strings.Builder
	for i < len(s) {
		c := s[i]
		if c == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case 'n':
				sb.WriteByte('\n')
			case 't':
				sb.WriteByte('\t')
			case '"', '\\':
				sb.WriteByte(s[i+1])
			case 'u', 'U':
				// Keep \u escapes verbatim-decoded when simple.
				width := 4
				if s[i+1] == 'U' {
					width = 8
				}
				if i+2+width <= len(s) {
					if n, err := strconv.ParseUint(s[i+2:i+2+width], 16, 32); err == nil {
						sb.WriteRune(rune(n))
						i += 2 + width
						continue
					}
				}
				sb.WriteByte(s[i+1])
			default:
				sb.WriteByte(s[i+1])
			}
			i += 2
			continue
		}
		if c == '"' {
			rest := s[i+1:]
			// Skip @lang or ^^<datatype>.
			if strings.HasPrefix(rest, "@") {
				j := strings.IndexAny(rest, " \t")
				if j < 0 {
					return "", "", fmt.Errorf("truncated language tag")
				}
				rest = rest[j:]
			} else if strings.HasPrefix(rest, "^^") {
				_, r2, err := readIRI(rest[2:])
				if err != nil {
					return "", "", err
				}
				rest = r2
			}
			return sb.String(), rest, nil
		}
		sb.WriteByte(c)
		i++
	}
	return "", "", fmt.Errorf("unterminated literal")
}

// localName derives a human-readable vocabulary name from an IRI: the
// fragment or last path segment, percent-decoded, with YAGO/DBpedia
// underscores turned back into spaces.
func localName(iri string) string {
	name := iri
	if i := strings.LastIndexByte(name, '#'); i >= 0 {
		name = name[i+1:]
	} else if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	name = percentDecode(name)
	name = strings.ReplaceAll(name, "_", " ")
	if name == "" {
		return iri
	}
	return name
}

func percentDecode(s string) string {
	if !strings.ContainsRune(s, '%') {
		return s
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '%' && i+2 < len(s) {
			if n, err := strconv.ParseUint(s[i+1:i+3], 16, 8); err == nil {
				sb.WriteByte(byte(n))
				i += 2
				continue
			}
		}
		sb.WriteByte(s[i])
	}
	return sb.String()
}
