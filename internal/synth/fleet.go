package synth

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
)

// This file implements the query-fleet benchmark: a generated massive
// ontology (written as N-Triples so it exercises the real ingestion
// pipeline, not an in-memory shortcut) and a realistic workload of
// thousands of distinct OASSIS-QL queries sampled from the empirical shape
// distribution of public SPARQL logs — overwhelmingly star-shaped basic
// graph patterns of one to four triple patterns. The fleet drives the
// compiled-plan path (plan cache + streamed space construction) and
// reports ingest and query throughput plus plan-cache effectiveness.

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

// MillionScale is the ISSUE 8 acceptance-scale configuration: one million
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

// SmokeScale is a small configuration for tests and CI bench-smoke.
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

// FleetConfig sizes a workload.
type FleetConfig struct {
	// Queries is the number of distinct queries to sample.
	Queries int
	// Executions is the total number of query executions; queries are
	// drawn Zipf-skewed over the distinct set, so popular shapes repeat
	// and the plan cache has hits to serve.
	Executions int
	// Workers fans executions out; 0 means GOMAXPROCS.
	Workers int
	Seed    int64
	// MineMembers, when positive, follows each execution's space
	// construction with a deterministic mining pass served by this many
	// synthetic hash-answer members (see fleetMember), so the run spends
	// crowd questions the journal can attribute per query. 0 stops at
	// space construction, the pre-crowd path.
	MineMembers int
	// Obs, when set, lands compile/eval metrics on the sparql family,
	// every execution records a query_exec event in the observer's
	// journal, and the report carries per-query cost attribution joined
	// from the journal (PerQuery).
	Obs *obs.Observer
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

// FleetReport is the outcome of a fleet run.
type FleetReport struct {
	DistinctQueries int     `json:"distinct_queries"`
	Executions      int     `json:"executions"`
	Workers         int     `json:"workers"`
	Seconds         float64 `json:"seconds"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	PlanCacheHits   int64   `json:"plan_cache_hits"`
	PlanCacheMisses int64   `json:"plan_cache_misses"`
	PlanCacheSize   int64   `json:"plan_cache_entries"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	// RowsStreamed counts the rows the WHERE streams yielded after their
	// projection's cut (sparql.Plan.Stream), summed over executions.
	RowsStreamed    int64 `json:"rows_streamed"`
	ValidNodes      int64 `json:"valid_nodes"`
	SemanticQueries int   `json:"semantic_queries"`
	// Questions is the total crowd question spend of the mining passes
	// (0 unless FleetConfig.MineMembers is set).
	Questions int64 `json:"questions,omitempty"`
	// PerQuery attributes cost to each distinct query, joined from the
	// journal's query_exec and run_end events. Present only when the
	// fleet ran with a journal-carrying Observer.
	PerQuery []QueryCost `json:"per_query,omitempty"`
}

// QueryCost is one distinct query's share of the fleet's cost: how often
// it ran, the wall time its executions took, how many compiles its plan
// cache served, the rows it streamed, and — when the fleet mined — the
// crowd questions its runs spent. Built by joining the journal's
// query_exec events (one per execution, keyed "q<index>") with the
// run_end event of each execution's mining run.
type QueryCost struct {
	Query     string  `json:"query"`
	Execs     int     `json:"execs"`
	WallSecs  float64 `json:"wall_secs"`
	CacheHits int     `json:"cache_hits"`
	Rows      int64   `json:"rows"`
	Questions int64   `json:"questions"`
}

// RunFleet executes the workload against a frozen store: each execution
// compiles the query's WHERE through the store-shared plan cache and
// streams the plan's rows into assignment-space construction — the same
// path a live mining session takes up to the point where the crowd is
// consulted. The execution sequence is a deterministic Zipf draw over the
// distinct queries; workers consume it from an atomic cursor.
func RunFleet(store *ontology.Store, fleet []FleetQuery, cfg FleetConfig) (*FleetReport, error) {
	v := store.Vocabulary()
	type prepared struct {
		q        *oassisql.Query
		semantic bool
	}
	prep := make([]prepared, len(fleet))
	semCount := 0
	for i, fq := range fleet {
		q, err := oassisql.Parse(fq.Text, v)
		if err != nil {
			return nil, fmt.Errorf("fleet query %d: %w\n%s", i, err, fq.Text)
		}
		prep[i] = prepared{q: q, semantic: fq.Semantic}
		if fq.Semantic {
			semCount++
		}
	}

	// Execution schedule: one coverage pass so every distinct query runs at
	// least once, then Zipf-skewed draws (p ∝ 1/(r+1)^1.2) for the rest, so
	// the head of the fleet dominates and compiled plans get reused.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(fleet)-1))
	schedule := make([]int, cfg.Executions)
	for i := range schedule {
		if i < len(fleet) {
			schedule[i] = i
		} else {
			schedule[i] = int(zipf.Uint64())
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := sparql.SharedPlanCache(store)
	h0, m0, _ := cache.Stats()
	jr := cfg.Obs.JournalSet()

	var cursor, rows, nodes, questions atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := cursor.Add(1) - 1
				if i >= int64(len(schedule)) || firstErr.Load() != nil {
					return
				}
				p := prep[schedule[i]]
				execStart := time.Now()
				ev := sparql.NewEvaluator(store)
				ev.Semantic = p.semantic
				ev.Metrics = cfg.Obs.PlanSet()
				ev.UseSharedCache()
				plan, err := ev.Compile(p.q.Where)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				space, streamed, err := assign.NewSpaceFromPlan(p.q, plan, nil)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				rows.Add(int64(streamed))
				nodes.Add(int64(len(space.Valid())))
				var runID int64
				if cfg.MineMembers > 0 {
					// The mining pass is a pure function of (query index,
					// seed): hash-answer members plus a fixed engine seed,
					// so repeated executions of one query replay the same
					// run and attribution stays deterministic.
					members := make([]crowd.Member, cfg.MineMembers)
					for j := range members {
						members[j] = &fleetMember{
							id:   fmt.Sprintf("synth-%d", j),
							bias: uint64(cfg.Seed)<<16 ^ uint64(j+1),
						}
					}
					theta := p.q.Satisfying.Support
					eng := core.NewEngine(space, members, core.EngineConfig{
						Theta:      theta,
						Aggregator: crowd.NewMeanAggregator(1, theta),
						Seed:       cfg.Seed + int64(schedule[i]),
						Obs:        cfg.Obs,
					})
					res := eng.Run()
					runID = res.JournalRun
					questions.Add(int64(res.Stats.Questions))
				}
				jr.QueryExec(runID, fmt.Sprintf("q%04d", schedule[i]),
					time.Since(execStart).Nanoseconds(), ev.LastCompileCacheHit(), int64(streamed))
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, err.(error)
	}
	elapsed := time.Since(start)

	h1, m1, size := cache.Stats()
	hits, misses := h1-h0, m1-m0
	rep := &FleetReport{
		DistinctQueries: len(fleet),
		Executions:      cfg.Executions,
		Workers:         workers,
		Seconds:         elapsed.Seconds(),
		QueriesPerSec:   float64(cfg.Executions) / elapsed.Seconds(),
		PlanCacheHits:   hits,
		PlanCacheMisses: misses,
		PlanCacheSize:   size,
		RowsStreamed:    rows.Load(),
		ValidNodes:      nodes.Load(),
		SemanticQueries: semCount,
	}
	if hits+misses > 0 {
		rep.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	rep.Questions = questions.Load()
	if jr != nil {
		rep.PerQuery = fleetAttribution(jr.Events())
	}
	return rep, nil
}

// fleetAttribution joins the journal's query_exec events with each mining
// run's run_end question count into per-query cost rows, sorted by query
// key. Events evicted by ring wraparound drop out of the attribution —
// size the journal (or attach a JSONL sink and aggregate offline) when a
// fleet outgrows the default ring.
func fleetAttribution(events []obs.Event) []QueryCost {
	runQ := make(map[int64]int64)
	for i := range events {
		if events[i].Kind == obs.EvRunEnd {
			runQ[events[i].Run] = events[i].Questions
		}
	}
	acc := make(map[string]*QueryCost)
	keys := make([]string, 0, 16)
	for i := range events {
		e := &events[i]
		if e.Kind != obs.EvQueryExec {
			continue
		}
		c := acc[e.Key]
		if c == nil {
			c = &QueryCost{Query: e.Key}
			acc[e.Key] = c
			keys = append(keys, e.Key)
		}
		c.Execs++
		c.WallSecs += float64(e.Elapsed) / 1e9
		if e.Hit {
			c.CacheHits++
		}
		c.Rows += e.Rows
		c.Questions += runQ[e.Run]
	}
	sort.Strings(keys)
	out := make([]QueryCost, len(keys))
	for i, k := range keys {
		out[i] = *acc[k]
	}
	return out
}

// fleetMember is the deterministic synthetic member behind
// FleetConfig.MineMembers. Its support for a fact-set hashes the member
// identity and the fact term IDs into [0, 1] — a pure function of
// (member, question), so fleet mining replays bit-identically with no
// planted ground truth to maintain, while different members disagree
// enough to exercise the aggregator.
type fleetMember struct {
	id   string
	bias uint64
}

func (m *fleetMember) ID() string { return m.id }

func (m *fleetMember) supportOf(fs ontology.FactSet) float64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ m.bias
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	for _, f := range fs {
		mix(uint64(uint32(f.S)))
		mix(uint64(uint32(f.P)))
		mix(uint64(uint32(f.O)))
	}
	return float64(h%1001) / 1000
}

// AskConcrete implements crowd.Member.
func (m *fleetMember) AskConcrete(fs ontology.FactSet) crowd.Response {
	return crowd.Response{Support: m.supportOf(fs)}
}

// AskSpecialize implements crowd.Member: pick the first candidate the
// member itself would rate at least 0.5, none-of-these otherwise.
func (m *fleetMember) AskSpecialize(_ ontology.FactSet, candidates []ontology.FactSet) (int, crowd.Response) {
	for i, c := range candidates {
		if s := m.supportOf(c); s >= 0.5 {
			return i, crowd.Response{Support: s}
		}
	}
	return -1, crowd.Response{}
}

var _ crowd.Member = (*fleetMember)(nil)
