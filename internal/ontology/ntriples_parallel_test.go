package ontology_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// randomNTriples generates a pseudo-random N-Triples document exercising
// every branch of the importer: taxonomy edges, type triples, labels with
// escapes and Unicode, subPropertyOf, plain facts, skipped literals, blank
// nodes, comments, stray whitespace and CRLF endings.
func randomNTriples(rng *rand.Rand, lines int) string {
	var sb strings.Builder
	iri := func(pool string, n int) string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf("<http://x/%s_%d>", pool, rng.Intn(n))
		case 1:
			return fmt.Sprintf("<http://x/%s%%20%d>", pool, rng.Intn(n))
		case 2:
			return fmt.Sprintf("<http://x/deep/path/%s-%d>", pool, rng.Intn(n))
		default:
			return fmt.Sprintf("<http://x/ns#%s%d>", pool, rng.Intn(n))
		}
	}
	// edge returns a subject/object IRI pair whose local-name indexes are
	// strictly increasing, so generated subClassOf/subPropertyOf edges can
	// never form a self-loop or cycle (every local name embeds its index and
	// edges always point from a lower index to a higher one).
	edge := func(pool string, n int) (string, string) {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-i-1)
		shape := func(k int) string {
			switch rng.Intn(3) {
			case 0:
				return fmt.Sprintf("<http://x/%s_%d>", pool, k)
			case 1:
				return fmt.Sprintf("<http://x/deep/path/%s-%d>", pool, k)
			default:
				return fmt.Sprintf("<http://x/ns#%s%d>", pool, k)
			}
		}
		return shape(i), shape(j)
	}
	lit := func() string {
		switch rng.Intn(5) {
		case 0:
			return `"plain value"`
		case 1:
			return `"esc \"q\" \\ \n \t end"`
		case 2:
			return `"unicode é \U0001F600 café"`
		case 3:
			return fmt.Sprintf(`"label %d"@en`, rng.Intn(50))
		default:
			return fmt.Sprintf(`"%d"^^<http://www.w3.org/2001/XMLSchema#integer>`, rng.Intn(1000))
		}
	}
	for i := 0; i < lines; i++ {
		eol := "\n"
		if rng.Intn(10) == 0 {
			eol = "\r\n"
		}
		switch rng.Intn(12) {
		case 0:
			sb.WriteString("# a comment line" + eol)
		case 1:
			sb.WriteString("   " + eol)
		case 2:
			sub, sup := edge("Class", 12)
			fmt.Fprintf(&sb, "%s <http://www.w3.org/2000/01/rdf-schema#subClassOf> %s .%s", sub, sup, eol)
		case 3:
			fmt.Fprintf(&sb, "%s <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> %s .%s",
				iri("Inst", 40), iri("Class", 12), eol)
		case 4:
			fmt.Fprintf(&sb, "%s <http://www.w3.org/2000/01/rdf-schema#label> %s .%s",
				iri("Inst", 40), lit(), eol)
		case 5:
			sub, sup := edge("rel", 8)
			fmt.Fprintf(&sb, "%s <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> %s .%s", sub, sup, eol)
		case 6:
			fmt.Fprintf(&sb, "_:b%d %s %s .%s", rng.Intn(5), iri("rel", 8), iri("Inst", 40), eol)
		case 7:
			fmt.Fprintf(&sb, "%s %s _:b%d .%s", iri("Inst", 40), iri("rel", 8), rng.Intn(5), eol)
		case 8:
			fmt.Fprintf(&sb, "%s %s %s .%s", iri("Inst", 40), iri("rel", 8), lit(), eol)
		default:
			fmt.Fprintf(&sb, "  %s %s %s .%s", iri("Inst", 40), iri("rel", 8), iri("Inst", 40), eol)
		}
	}
	if rng.Intn(3) == 0 { // sometimes no trailing newline
		return strings.TrimSuffix(strings.TrimSuffix(sb.String(), "\n"), "\r")
	}
	return sb.String()
}

// requireSameLoad loads nt through the serial oracle and the parallel
// loader (workers parse workers over chunkBytes chunks) and fails unless
// vocabulary, store, stats and errors are byte-identical.
func requireSameLoad(t *testing.T, nt string, workers, chunkBytes int) {
	t.Helper()
	sv, ss, sstats, serr := ontology.LoadNTriplesSerial(strings.NewReader(nt))
	pv, ps, pstats, perr := ontology.LoadNTriplesWith(strings.NewReader(nt), workers, chunkBytes, nil)
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
		t.Fatalf("stats divergence: serial=%+v parallel=%+v", *sstats, *pstats)
	}
	requireSameVocab(t, sv, pv)
	requireSameStore(t, ss, ps, sv)
}

func requireSameVocab(t *testing.T, a, b *vocab.Vocabulary) {
	t.Helper()
	if a.NumElements() != b.NumElements() || a.NumRelations() != b.NumRelations() {
		t.Fatalf("vocab size divergence: (%d,%d) vs (%d,%d)",
			a.NumElements(), a.NumRelations(), b.NumElements(), b.NumRelations())
	}
	for id := 0; id < a.NumElements(); id++ {
		tid := vocab.TermID(id)
		if a.ElementName(tid) != b.ElementName(tid) {
			t.Fatalf("element %d name divergence: %q vs %q", id, a.ElementName(tid), b.ElementName(tid))
		}
		if !equalIDs(a.ElementParents(tid), b.ElementParents(tid)) {
			t.Fatalf("element %d parents divergence: %v vs %v", id, a.ElementParents(tid), b.ElementParents(tid))
		}
		if !equalIDs(a.ElementChildren(tid), b.ElementChildren(tid)) {
			t.Fatalf("element %d children divergence", id)
		}
		if a.ElementDepth(tid) != b.ElementDepth(tid) {
			t.Fatalf("element %d depth divergence", id)
		}
	}
	for id := 0; id < a.NumRelations(); id++ {
		tid := vocab.TermID(id)
		if a.RelationName(tid) != b.RelationName(tid) {
			t.Fatalf("relation %d name divergence: %q vs %q", id, a.RelationName(tid), b.RelationName(tid))
		}
		if !equalIDs(a.RelationParents(tid), b.RelationParents(tid)) {
			t.Fatalf("relation %d parents divergence", id)
		}
	}
	if !equalIDs(a.ElementsTopo(), b.ElementsTopo()) {
		t.Fatalf("element topo divergence:\n  %v\n  %v", a.ElementsTopo(), b.ElementsTopo())
	}
	if !equalIDs(a.RelationsTopo(), b.RelationsTopo()) {
		t.Fatalf("relation topo divergence")
	}
}

func requireSameStore(t *testing.T, a, b *ontology.Store, v *vocab.Vocabulary) {
	t.Helper()
	if a.Size() != b.Size() {
		t.Fatalf("store size divergence: %d vs %d", a.Size(), b.Size())
	}
	if !equalIDs(a.Predicates(), b.Predicates()) {
		t.Fatalf("predicate list divergence: %v vs %v", a.Predicates(), b.Predicates())
	}
	for _, p := range a.Predicates() {
		af, bf := a.FactsWithPredicate(p), b.FactsWithPredicate(p)
		if len(af) != len(bf) {
			t.Fatalf("byP[%s] length divergence: %d vs %d", v.RelationName(p), len(af), len(bf))
		}
		for i := range af {
			if af[i] != bf[i] {
				t.Fatalf("byP[%s][%d] divergence: %+v vs %+v", v.RelationName(p), i, af[i], bf[i])
			}
			f := af[i]
			if !equalIDs(a.Objects(f.S, f.P), b.Objects(f.S, f.P)) {
				t.Fatalf("bySP divergence at %+v", f)
			}
			if !equalIDs(a.Subjects(f.P, f.O), b.Subjects(f.P, f.O)) {
				t.Fatalf("byPO divergence at %+v", f)
			}
		}
	}
	// Labels: every interned element must carry identical label sets. The
	// label index is compared through LabeledElements on a sample of label
	// strings drawn from HasLabel probes.
	for id := 0; id < v.NumElements(); id++ {
		for _, probe := range []string{"plain value", "esc \"q\" \\ \n \t end", "label 1", "label 7"} {
			if a.HasLabel(vocab.TermID(id), probe) != b.HasLabel(vocab.TermID(id), probe) {
				t.Fatalf("label divergence on element %d %q", id, probe)
			}
		}
	}
	for _, probe := range []string{"plain value", "label 3"} {
		if !equalIDs(a.LabeledElements(probe), b.LabeledElements(probe)) {
			t.Fatalf("labelIdx divergence for %q", probe)
		}
	}
}

func equalIDs(a, b []vocab.TermID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelNTriplesDifferential pins the parallel loader byte-identical
// to the serial reference across 120 randomized documents, sweeping worker
// counts and deliberately tiny chunk sizes so lines land on every possible
// chunk boundary.
func TestParallelNTriplesDifferential(t *testing.T) {
	chunkSizes := []int{17, 64, 256, 1024, 1 << 20}
	workerCounts := []int{1, 2, 3, 8}
	for seed := int64(0); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nt := randomNTriples(rng, 40+rng.Intn(300))
		workers := workerCounts[seed%int64(len(workerCounts))]
		chunk := chunkSizes[seed%int64(len(chunkSizes))]
		t.Run(fmt.Sprintf("seed=%d/w=%d/chunk=%d", seed, workers, chunk), func(t *testing.T) {
			requireSameLoad(t, nt, workers, chunk)
		})
	}
}

// TestParallelNTriplesErrorPositions pins that malformed lines abort the
// parallel loader with the serial loader's exact error — same line number,
// same message — wherever the bad line falls relative to chunk boundaries.
func TestParallelNTriplesErrorPositions(t *testing.T) {
	bad := []string{
		`<http://x/a> <http://x/p> <http://x/b>`,                                        // missing dot
		`<http://x/a <http://x/p> <http://x/b> .`,                                       // unterminated IRI
		`<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "oops .`,             // unterminated literal
		`<http://x/a> <http://x/p> garbage .`,                                           // junk object
		`<> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://x/C> .`,           // empty subject name
		`<http://x/A> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://x/A> .`, // self-loop
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		lines := strings.Split(strings.TrimSuffix(randomNTriples(rng, 60), "\n"), "\n")
		pos := rng.Intn(len(lines) + 1)
		lines = append(lines[:pos], append([]string{bad[rng.Intn(len(bad))]}, lines[pos:]...)...)
		nt := strings.Join(lines, "\n") + "\n"
		workers, chunk := 1+int(seed%4), 32+int(seed%5)*97
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			requireSameLoad(t, nt, workers, chunk)
		})
	}
}

// TestParallelNTriplesEdgeCases covers fixed shapes: boundary-straddling
// literals, missing trailing newline, CRLF, empty and comment-only input.
func TestParallelNTriplesEdgeCases(t *testing.T) {
	long := strings.Repeat("x", 5000)
	cases := map[string]string{
		"empty":                 "",
		"comments only":         "# one\n# two\n",
		"blank lines":           "\n\n\r\n\n",
		"no trailing nl":        `<http://x/a> <http://x/p> <http://x/b> .`,
		"long literal":          `<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "` + long + `" .` + "\n",
		"long iri":              `<http://x/` + long + `> <http://x/p> <http://x/b> .` + "\n",
		"crlf":                  "<http://x/a> <http://x/p> <http://x/b> .\r\n<http://x/b> <http://x/p> <http://x/c> .\r\n",
		"unicode escapes":       `<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> "A\U00000042 \uZZZZ" .` + "\n",
		"dup facts":             strings.Repeat(`<http://x/a> <http://x/p> <http://x/b> .`+"\n", 50),
		"hasLabel collision":    `<http://x/a> <http://other/hasLabel> <http://x/b> .` + "\n",
		"subClassOf collision":  `<http://other/A> <http://other/subClassOf> <http://other/B> .` + "\n",
		"label with iri object": `<http://x/a> <http://www.w3.org/2000/01/rdf-schema#label> <http://x/b> .` + "\n",
	}
	for name, nt := range cases {
		for _, chunk := range []int{9, 4096} {
			t.Run(fmt.Sprintf("%s/chunk=%d", name, chunk), func(t *testing.T) {
				requireSameLoad(t, nt, 4, chunk)
			})
		}
	}
}

// TestParallelNTriplesConcurrentIngest runs several whole parallel loads at
// once with maximum fan-out — the -race CI job turns this into a data-race
// detector over the interner, chunk pipeline and index builders.
func TestParallelNTriplesConcurrentIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nt := randomNTriples(rng, 3000)
	sv, ss, sstats, err := ontology.LoadNTriplesSerial(strings.NewReader(nt))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pv, ps, pstats, err := ontology.LoadNTriplesWith(strings.NewReader(nt), 8, 2048, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if *pstats != *sstats {
				t.Errorf("stats divergence under concurrency: %+v vs %+v", *pstats, *sstats)
			}
			requireSameVocab(t, sv, pv)
			requireSameStore(t, ss, ps, sv)
		}()
	}
	wg.Wait()
}

// BenchmarkNTriplesLoad compares the serial reference loader against the
// parallel pipeline on the same synthetic document (~60k triples). CI runs
// this in bench-smoke; the interesting figure is the serial/parallel ratio
// on multi-core hardware (the pipeline degrades to near-serial on 1 CPU).
func BenchmarkNTriplesLoad(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	nt := randomNTriples(rng, 60000)
	b.Logf("document: %.1f MiB", float64(len(nt))/(1<<20))
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(nt)))
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ontology.LoadNTriplesSerial(strings.NewReader(nt)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.SetBytes(int64(len(nt)))
		for i := 0; i < b.N; i++ {
			if _, _, _, err := ontology.LoadNTriples(strings.NewReader(nt), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestParallelNTriplesObs checks the ingest observability satellite: the
// counters and parse-phase spans land on the registry and are nil-safe.
func TestParallelNTriplesObs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nt := randomNTriples(rng, 500)
	o := obs.New()
	_, _, stats, err := ontology.LoadNTriplesWith(strings.NewReader(nt), 2, 512, o)
	if err != nil {
		t.Fatal(err)
	}
	im := o.Ingest
	if got := im.Triples.Value(); got != int64(stats.Triples) {
		t.Errorf("ingest triples counter = %d, stats = %d", got, stats.Triples)
	}
	if got := im.Facts.Value(); got != int64(stats.Facts) {
		t.Errorf("ingest facts counter = %d, stats = %d", got, stats.Facts)
	}
	if im.Duration.Count() != 1 {
		t.Errorf("ingest duration observations = %d, want 1", im.Duration.Count())
	}
	spans := map[string]bool{}
	for _, e := range o.JournalSet().Events() {
		if e.Kind == obs.EvSpan {
			spans[e.Key] = true
		}
	}
	for _, want := range []string{"ingest_parse", "ingest_merge", "ingest_index", "ingest_freeze"} {
		if !spans[want] {
			t.Errorf("missing span %q (got %v)", want, spans)
		}
	}
	// Malformed input counts on the malformed counter.
	if _, _, _, err := ontology.LoadNTriples(strings.NewReader("garbage\n"), o); err == nil {
		t.Fatal("expected parse error")
	}
	if im.Malformed.Value() != 1 {
		t.Errorf("malformed counter = %d, want 1", im.Malformed.Value())
	}
	// Nil observer: everything above must be a no-op, not a panic.
	if _, _, _, err := ontology.LoadNTriples(strings.NewReader(nt), nil); err != nil {
		t.Fatal(err)
	}
}
