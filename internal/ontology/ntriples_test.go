package ontology_test

import (
	"strings"
	"testing"

	"oassis/internal/ontology"
)

const sampleNT = `
# YAGO-flavoured snippet of the paper's Figure 1
<http://yago/Central_Park> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://yago/Park> .
<http://yago/Park> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://yago/Outdoor> .
<http://yago/Outdoor> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://yago/Attraction> .
<http://yago/Central_Park> <http://yago/inside> <http://yago/NYC> .
<http://yago/inside> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://yago/nearBy> .
<http://yago/Central_Park> <http://www.w3.org/2000/01/rdf-schema#label> "child-friendly"@en .
<http://yago/Central_Park> <http://yago/area> "341"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:blank1 <http://yago/inside> <http://yago/NYC> .
`

func TestLoadNTriples(t *testing.T) {
	v, s, stats, err := ontology.LoadNTriples(strings.NewReader(sampleNT), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triples != 7 || stats.SkippedBlank != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.SkippedLiterals != 1 {
		t.Errorf("literal area triple should be skipped: %+v", stats)
	}
	if stats.Labels != 1 {
		t.Errorf("labels = %d", stats.Labels)
	}
	// IRI → name mapping undoes underscores.
	cp := v.Element("Central Park")
	if cp == -1 {
		t.Fatal("Central Park not interned")
	}
	// rdf:type and rdfs:subClassOf build the element order.
	if !v.LeqE(v.Element("Attraction"), cp) {
		t.Error("Attraction ≤ Central Park should hold through type+subClassOf")
	}
	// rdfs:subPropertyOf builds the relation order.
	if !v.LeqR(v.Relation("nearBy"), v.Relation("inside")) {
		t.Error("nearBy ≤ inside lost")
	}
	// rdfs:label becomes an element label.
	if !s.HasLabel(cp, "child-friendly") {
		t.Error("label lost")
	}
	// Plain predicate becomes a fact.
	if !s.Has(ontology.Fact{S: cp, P: v.Relation("inside"), O: v.Element("NYC")}) {
		t.Error("inside fact lost")
	}
}

func TestNTriplesLiteralEscapes(t *testing.T) {
	nt := `<http://x/A> <http://www.w3.org/2000/01/rdf-schema#label> "line\nbreak \"q\" é" .` + "\n"
	v, s, _, err := ontology.LoadNTriples(strings.NewReader(nt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.HasLabel(v.Element("A"), "line\nbreak \"q\" é") {
		t.Error("escape decoding failed")
	}
}

func TestNTriplesPercentDecoding(t *testing.T) {
	nt := `<http://x/Maoz%20Veg.> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/Restaurant> .` + "\n"
	v, _, _, err := ontology.LoadNTriples(strings.NewReader(nt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Element("Maoz Veg.") == -1 {
		t.Error("percent decoding failed")
	}
}

func TestNTriplesErrors(t *testing.T) {
	cases := map[string]string{
		"no dot":              `<http://x/a> <http://x/p> <http://x/b>`,
		"unterminated IRI":    `<http://x/a <http://x/p> <http://x/b> .`,
		"unterminated string": `<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "oops .`,
		"garbage object":      `<http://x/a> <http://x/p> garbage .`,
	}
	for name, line := range cases {
		if _, _, _, err := ontology.LoadNTriples(strings.NewReader(line+"\n"), nil); err == nil {
			t.Errorf("%s: accepted %q", name, line)
		}
	}
}

// TestNTriplesToQueryPipeline imports N-Triples and runs a query against the
// result, proving the import integrates with the rest of the system.
func TestNTriplesToQueryPipeline(t *testing.T) {
	nt := sampleNT + `
<http://yago/Biking> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://yago/Activity> .
<http://yago/doAt> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <http://yago/relatedTo> .
`
	v, s, _, err := ontology.LoadNTriples(strings.NewReader(nt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.Relation("doAt") == -1 {
		t.Fatal("doAt not interned")
	}
	if s.Size() == 0 {
		t.Fatal("empty store")
	}
}
