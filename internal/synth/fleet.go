package synth

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
)

// This file generates the inputs of the query-fleet workload: a massive
// ontology written as N-Triples, so loading it exercises the real ingestion
// pipeline rather than an in-memory shortcut, and a realistic sample of
// distinct OASSIS-QL queries drawn from the empirical shape distribution
// of public SPARQL logs (overwhelmingly star-shaped basic graph patterns
// of one to four triple patterns). The benchmark that runs them lives in
// perfbench (workload fleet).

// ScaleConfig sizes a generated ontology. The element count (classes +
// instances) is kept small relative to the fact count on purpose: the
// vocabulary's frozen ancestor bitsets cost O(elements²) memory, so a
// million-fact store over ~22k elements stays tens of megabytes while the
// triple indexes carry the bulk.
type ScaleConfig struct {
	Classes    int // taxonomy size; class 0 is the root
	Instances  int // rdf:type leaves attached to random classes
	Predicates int // linking relations used by plain facts
	Labels     int // instances carrying an rdfs:label
	LabelTags  int // distinct label strings, cycled over labeled instances
	Facts      int // plain (instance, predicate, instance) triples
	Seed       int64
}

// MillionScale is the fleet workload's full-scale configuration: one million
// plain facts plus the taxonomy/type/label triples around them.
func MillionScale() ScaleConfig {
	return ScaleConfig{
		Classes:    2000,
		Instances:  20000,
		Predicates: 20,
		Labels:     5000,
		LabelTags:  200,
		Facts:      1_000_000,
		Seed:       1,
	}
}

// SmokeScale is a small configuration for tests and smoke runs.
func SmokeScale() ScaleConfig {
	return ScaleConfig{
		Classes:    200,
		Instances:  2000,
		Predicates: 12,
		Labels:     500,
		LabelTags:  40,
		Facts:      50_000,
		Seed:       1,
	}
}

// TripleCount returns the number of triples WriteScaleNTriples emits.
func (c ScaleConfig) TripleCount() int {
	subProps := c.Predicates / 2
	return (c.Classes - 1) + c.Instances + subProps + c.Labels + c.Facts
}

// Class/instance IRIs alternate between underscore and percent-encoded
// spellings of the same local name ("Class 7" is reachable as Class_7 and
// as Class%207), so ingestion exercises both local-name decode paths while
// the vocabulary stays deterministic.
func scaleClassIRI(i int) string {
	if i%7 == 3 {
		return fmt.Sprintf("<http://oassis.bench/c/Class%%20%d>", i)
	}
	return fmt.Sprintf("<http://oassis.bench/c/Class_%d>", i)
}

func scaleInstIRI(i int) string {
	if i%9 == 4 {
		return fmt.Sprintf("<http://oassis.bench/i/Inst%%20%d>", i)
	}
	return fmt.Sprintf("<http://oassis.bench/i/Inst_%d>", i)
}

func scalePredIRI(i int) string {
	return fmt.Sprintf("<http://oassis.bench/p/link%d>", i)
}

// ScaleClassName returns the vocabulary element name of class i.
func ScaleClassName(i int) string { return fmt.Sprintf("Class %d", i) }

// ScaleInstName returns the vocabulary element name of instance i.
func ScaleInstName(i int) string { return fmt.Sprintf("Inst %d", i) }

// ScalePredName returns the vocabulary relation name of predicate i.
func ScalePredName(i int) string { return fmt.Sprintf("link%d", i) }

// ScaleLabel returns label-tag t's string.
func ScaleLabel(t int) string { return fmt.Sprintf("tag %d", t) }

const (
	iriSubClassOf = "<http://www.w3.org/2000/01/rdf-schema#subClassOf>"
	iriType       = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
	iriSubProp    = "<http://www.w3.org/2000/01/rdf-schema#subPropertyOf>"
	iriLabel      = "<http://www.w3.org/2000/01/rdf-schema#label>"
)

// WriteScaleNTriples writes the generated ontology as N-Triples. The output
// is a pure function of cfg: every class above the root subclasses a
// lower-numbered class (so the taxonomy is acyclic by construction), every
// instance types into a random class, the upper half of the predicates
// sub-properties into the lower half, and the plain facts link uniformly
// random instance pairs.
func WriteScaleNTriples(w io.Writer, cfg ScaleConfig) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bw := bufio.NewWriterSize(w, 1<<20)
	for i := 1; i < cfg.Classes; i++ {
		parent := rng.Intn(i)
		fmt.Fprintf(bw, "%s %s %s .\n", scaleClassIRI(i), iriSubClassOf, scaleClassIRI(parent))
	}
	for i := 0; i < cfg.Instances; i++ {
		fmt.Fprintf(bw, "%s %s %s .\n", scaleInstIRI(i), iriType, scaleClassIRI(rng.Intn(cfg.Classes)))
	}
	for i := cfg.Predicates / 2; i < cfg.Predicates; i++ {
		fmt.Fprintf(bw, "%s %s %s .\n", scalePredIRI(i), iriSubProp, scalePredIRI(i-cfg.Predicates/2))
	}
	for i := 0; i < cfg.Labels; i++ {
		inst := i % cfg.Instances
		fmt.Fprintf(bw, "%s %s \"%s\" .\n", scaleInstIRI(inst), iriLabel, ScaleLabel(i%cfg.LabelTags))
	}
	for i := 0; i < cfg.Facts; i++ {
		fmt.Fprintf(bw, "%s %s %s .\n",
			scaleInstIRI(rng.Intn(cfg.Instances)),
			scalePredIRI(rng.Intn(cfg.Predicates)),
			scaleInstIRI(rng.Intn(cfg.Instances)))
	}
	return bw.Flush()
}

// FleetQuery is one sampled workload query.
type FleetQuery struct {
	Text     string // OASSIS-QL source
	Semantic bool   // evaluation mode (Definition 2.5 vs exact matching)
	Patterns int    // WHERE triple-pattern count (the BGP size)
}

// FleetConfig sizes a sampled workload.
type FleetConfig struct {
	// Queries is the number of distinct queries to sample.
	Queries int
	Seed    int64
}

// fleetShapeDist is the BGP-size distribution of the sampled fleet,
// following the shape statistics of public SPARQL query logs (Bonifati et
// al., VLDBJ 2020): most real queries are tiny, star-shaped, and share a
// handful of templates. Index = pattern count - 1; values are cumulative
// per-mille thresholds for 55% / 25% / 12% / 8%.
var fleetShapeDist = [4]int{550, 800, 920, 1000}

// SampleFleet samples cfg.Queries distinct queries over a ScaleConfig
// ontology. Every query is a star join on $s anchored by an instanceOf
// constant; larger shapes add link patterns (and occasionally a hasLabel
// literal filter) radiating from the same subject. Roughly a third of the
// queries run in Semantic mode, the rest Exact, matching the mixed
// workloads the shared answer platform serves.
func SampleFleet(scale ScaleConfig, cfg FleetConfig) []FleetQuery {
	rng := rand.New(rand.NewSource(cfg.Seed))
	out := make([]FleetQuery, 0, cfg.Queries)
	seen := make(map[string]bool, cfg.Queries)
	for len(out) < cfg.Queries {
		n := 1
		roll := rng.Intn(1000)
		for n <= len(fleetShapeDist) && roll >= fleetShapeDist[n-1] {
			n++
		}
		semantic := rng.Intn(3) == 0
		var b strings.Builder
		b.WriteString("SELECT FACT-SETS\nWHERE\n")
		fmt.Fprintf(&b, "  $s instanceOf %q", ScaleClassName(rng.Intn(scale.Classes)))
		satPred := ScalePredName(rng.Intn(scale.Predicates))
		satObj := ""
		for j := 1; j < n; j++ {
			b.WriteString(".\n")
			if j == n-1 && rng.Intn(10) < 3 {
				fmt.Fprintf(&b, "  $s hasLabel %q", ScaleLabel(rng.Intn(scale.LabelTags)))
				continue
			}
			pred := ScalePredName(rng.Intn(scale.Predicates))
			fmt.Fprintf(&b, "  $s %s $o%d", pred, j)
			if satObj == "" {
				satPred, satObj = pred, fmt.Sprintf("$o%d", j)
			}
		}
		if satObj == "" {
			// Single-pattern (or label-only) star: mine against a constant
			// object, since SATISFYING variables must be WHERE-bound.
			satObj = fmt.Sprintf("%q", ScaleInstName(rng.Intn(scale.Instances)))
		}
		b.WriteString("\nSATISFYING\n")
		fmt.Fprintf(&b, "  $s %s %s\nWITH SUPPORT = 0.2\n", satPred, satObj)
		key := b.String()
		if semantic {
			key = "S|" + key
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, FleetQuery{Text: b.String(), Semantic: semantic, Patterns: n})
	}
	return out
}
