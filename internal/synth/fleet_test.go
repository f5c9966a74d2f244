package synth

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteScaleNTriplesDeterministic(t *testing.T) {
	cfg := SmokeScale()
	var a, b bytes.Buffer
	if err := WriteScaleNTriples(&a, cfg); err != nil {
		t.Fatal(err)
	}
	if err := WriteScaleNTriples(&b, cfg); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("generator is not deterministic")
	}
	if got := strings.Count(a.String(), "\n"); got != cfg.TripleCount() {
		t.Fatalf("emitted %d lines, TripleCount says %d", got, cfg.TripleCount())
	}
}

func TestSampleFleetShapes(t *testing.T) {
	scale := SmokeScale()
	fleet := SampleFleet(scale, FleetConfig{Queries: 400, Seed: 9})
	if len(fleet) != 400 {
		t.Fatalf("sampled %d queries, want 400", len(fleet))
	}
	counts := map[int]int{}
	sem := 0
	texts := map[string]bool{}
	for _, fq := range fleet {
		if fq.Patterns < 1 || fq.Patterns > 4 {
			t.Fatalf("query with %d patterns outside [1,4]", fq.Patterns)
		}
		counts[fq.Patterns]++
		if fq.Semantic {
			sem++
		}
		texts[fq.Text] = true
	}
	// Single-pattern stars must dominate per the log-derived distribution.
	if counts[1] <= counts[2] || counts[2] <= counts[3]+counts[4] {
		t.Fatalf("shape distribution off: %v", counts)
	}
	if sem == 0 || sem == len(fleet) {
		t.Fatalf("semantic mix degenerate: %d of %d", sem, len(fleet))
	}
	// Distinctness is (text, mode); texts alone may coincide across modes
	// but the overwhelming majority must be unique.
	if len(texts) < 350 {
		t.Fatalf("only %d distinct texts of 400", len(texts))
	}
}
