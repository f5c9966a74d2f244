package ontology

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"oassis/internal/vocab"
)

// loadNTriplesSerial parses N-Triples into a fresh vocabulary and store,
// freezing both, one line at a time. It is the differential oracle of
// LoadNTriples: the same line parser, but every name is interned and every
// edge ordered the moment its line is read, so its TermIDs, store, stats
// and error positions are the ones the parallel pipeline must reproduce.
func loadNTriplesSerial(r io.Reader) (*vocab.Vocabulary, *Store, *NTriplesStats, error) {
	v := vocab.New()
	s := NewStore(v)
	stats := &NTriplesStats{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := parseNTriple(line)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
		if t.blank {
			stats.SkippedBlank++
			continue
		}
		stats.Triples++
		if err := addNTriple(v, s, t, stats); err != nil {
			return nil, nil, nil, fmt.Errorf("ntriples: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("ntriples: %w", err)
	}
	if err := v.Freeze(); err != nil {
		return nil, nil, nil, fmt.Errorf("ntriples: %w", err)
	}
	s.Freeze()
	return v, s, stats, nil
}

// addNTriple maps one triple into the model.
func addNTriple(v *vocab.Vocabulary, s *Store, t ntriple, stats *NTriplesStats) error {
	switch t.pred {
	case iriLabel:
		if !t.isLiteral {
			return nil // odd but harmless
		}
		e, err := v.AddElement(localName(t.subj))
		if err != nil {
			return err
		}
		if _, err := v.AddRelation(RelHasLabel); err != nil {
			return err
		}
		stats.Labels++
		return s.AddLabel(e, t.objLit)
	case iriSubPropertyOf:
		if t.isLiteral {
			stats.SkippedLiterals++
			return nil
		}
		spec, err := v.AddRelation(localName(t.subj))
		if err != nil {
			return err
		}
		gen, err := v.AddRelation(localName(t.objIRI))
		if err != nil {
			return err
		}
		return v.OrderRelations(gen, spec)
	}
	if t.isLiteral {
		stats.SkippedLiterals++
		return nil
	}
	se, err := v.AddElement(localName(t.subj))
	if err != nil {
		return err
	}
	oe, err := v.AddElement(localName(t.objIRI))
	if err != nil {
		return err
	}
	var rel string
	switch t.pred {
	case iriSubClassOf:
		rel = RelSubClassOf
	case iriType:
		rel = RelInstanceOf
	default:
		rel = localName(t.pred)
	}
	p, err := v.AddRelation(rel)
	if err != nil {
		return err
	}
	if rel == RelSubClassOf || rel == RelInstanceOf {
		if err := v.OrderElements(oe, se); err != nil {
			return err
		}
	}
	stats.Facts++
	return s.Add(Fact{S: se, P: p, O: oe})
}
