package ontology_test

import (
	"strings"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/paperdata"
)

// FuzzLoad drives the textual ontology loader with arbitrary inputs.
func FuzzLoad(f *testing.F) {
	f.Add(paperdata.OntologyText)
	f.Add("a subClassOf b\nb instanceOf c\n")
	f.Add("@element x y\n@relation r\n")
	f.Add(`e hasLabel "multi word"` + "\n")
	f.Fuzz(func(t *testing.T, input string) {
		_, _, _ = ontology.Load(strings.NewReader(input))
	})
}

// FuzzLoadNTriples drives the N-Triples importer differentially: every
// input is fed to both the serial oracle and the parallel loader (three
// workers and a tiny chunk size, so lines straddle chunk boundaries) and
// any divergence in outcome is a crash. The corpus seeds the
// chunk-boundary hazards: lines longer than a chunk, multi-line documents,
// escapes that a splitter must not cut through.
func FuzzLoadNTriples(f *testing.F) {
	f.Add("<http://x/a> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/b> .\n")
	f.Add(`<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "lAbel"@en .` + "\n")
	f.Add("_:b <http://x/p> <http://x/o> .\n")
	// Chunk-boundary seeds: a long literal forcing the pending-buffer path,
	// a run of short lines around the 64-byte mark, escapes near the cut.
	f.Add(`<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "` + strings.Repeat("y", 300) + `" .` + "\n")
	f.Add(strings.Repeat("<http://x/a> <http://x/p> <http://x/b> .\n", 8))
	f.Add(`<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "tail esc é \U0001F600 \\" .` + "\n")
	f.Add("<http://x/a> <http://x/p> <http://x/b> .\r\n# c\r\n<http://x/b> <http://x/p> <http://x/c> .")
	f.Fuzz(func(t *testing.T, input string) {
		sv, ss, sstats, serr := ontology.LoadNTriplesSerial(strings.NewReader(input))
		pv, ps, pstats, perr := ontology.LoadNTriplesWith(strings.NewReader(input), 3, 64, nil)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("error divergence: serial=%v parallel=%v", serr, perr)
		}
		if serr != nil {
			if serr.Error() != perr.Error() {
				t.Fatalf("error message divergence:\n  serial:   %v\n  parallel: %v", serr, perr)
			}
			return
		}
		if *sstats != *pstats {
			t.Fatalf("stats divergence: %+v vs %+v", *sstats, *pstats)
		}
		if sv.NumElements() != pv.NumElements() || sv.NumRelations() != pv.NumRelations() || ss.Size() != ps.Size() {
			t.Fatalf("shape divergence: vocab (%d,%d)/(%d,%d) store %d/%d",
				sv.NumElements(), sv.NumRelations(), pv.NumElements(), pv.NumRelations(), ss.Size(), ps.Size())
		}
	})
}
