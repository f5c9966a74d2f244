package ontology_test

import (
	"bytes"
	"runtime"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/synth"
)

// TestScaleIngestSerialParallelAgree loads the smoke-scale generated
// ontology (the fleet workload's document at a small size) through the
// serial oracle and LoadNTriples and requires the whole vocabulary, store
// and stats to agree, then checks the generator's own claims: its triple
// count, and that its names, percent-encoded spellings included, land in
// the vocabulary.
func TestScaleIngestSerialParallelAgree(t *testing.T) {
	cfg := synth.SmokeScale()
	var buf bytes.Buffer
	if err := synth.WriteScaleNTriples(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	nt := buf.String()
	requireSameLoad(t, nt, runtime.GOMAXPROCS(0), 1<<20)
	v, _, stats, err := ontology.LoadNTriples(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Triples != cfg.TripleCount() {
		t.Fatalf("parsed %d triples, generator claims %d", stats.Triples, cfg.TripleCount())
	}
	for _, name := range []string{synth.ScaleClassName(3), synth.ScaleClassName(10), synth.ScaleInstName(4), synth.ScaleInstName(0)} {
		if v.Element(name) == 0 && name != v.ElementName(0) {
			t.Fatalf("element %q missing from vocabulary", name)
		}
	}
}
