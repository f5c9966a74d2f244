package oassis

import (
	"bytes"
	"fmt"
)

// EvolveOntology implements the Section 8 extension "dynamically extending
// the ontology based on crowd answers": it rebuilds the ontology with extra
// lines (in the textual format — new subClassOf/instanceOf facts, labels,
// @element/@relation declarations) appended to the existing store's
// serialization, returning a fresh vocabulary and store.
//
// Vocabularies are immutable once frozen (the order closures are
// precomputed), so evolution is a rebuild. The intended workflow keeps the
// crowd's effort: attach the first run to a Platform (WithPlatform), evolve
// the ontology, rekey the platform with (*Platform).Rekey(old, new), then
// rebuild the session on the same platform and re-run — every question
// about unchanged terms replays from the store and only the new region
// costs fresh questions.
func EvolveOntology(old *Ontology, additions string) (*Vocabulary, *Ontology, error) {
	var buf bytes.Buffer
	if err := WriteOntology(&buf, old); err != nil {
		return nil, nil, fmt.Errorf("oassis: evolve: %w", err)
	}
	buf.WriteString("\n")
	buf.WriteString(additions)
	buf.WriteString("\n")
	v, store, err := LoadOntology(&buf)
	if err != nil {
		return nil, nil, fmt.Errorf("oassis: evolve: %w", err)
	}
	return v, store, nil
}
