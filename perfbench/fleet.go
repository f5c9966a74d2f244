package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"time"

	"oassis"
	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// runFleet ingests the million-triple synthetic ontology (set-up, repeated
// to take a median), then runs star-shaped OASSIS-QL queries on closed-loop
// workers until the window closes. One op is one execution: query text →
// parse → plan through the store's shared plan cache → streamed WHERE →
// assignment space. No crowd is consulted.
//
// The fleet is 1,000 light queries drawn from the seed plus a fixed panel
// of heavy ones, run in repeated passes. Semantic queries with a link
// pattern ("heavy") cost 0.1–2.5 s each against about 0.1 ms for an exact
// query, and take nearly all of a window's time. Drawn per seed, the few
// dozen a window can run made its throughput swing by half between seeds.
// A fixed heavy panel keeps that path in every run at a constant cost,
// and passes over a fixed light set keep the query mix the same in every
// window. From the second pass on, every compile is a plan-cache hit.
func runFleet(cfg config, tr *tracer) (*report, error) {
	scale, light, heavy, setups := synth.MillionScale(), fleetLight, fleetHeavy, 3
	if cfg.smoke {
		scale, light, heavy, setups = synth.SmokeScale(), 60, 2, 2
	}
	workers := runtime.NumCPU()
	rep := newReport(map[string]any{
		"scale_triples": scale.TripleCount(), "light_queries": light, "heavy_panel": heavy,
		"heavy_panel_seed": heavyPanelSeed, "workers": workers, "setups": setups,
	})

	// Inputs: the N-Triples document and the query fleet.
	var doc bytes.Buffer
	if err := synth.WriteScaleNTriples(&doc, scale); err != nil {
		return nil, err
	}
	sample := synth.SampleFleet(scale, synth.FleetConfig{Queries: 2 * light, Seed: cfg.seed})
	panel := synth.SampleFleet(scale, synth.FleetConfig{Queries: 40 * heavy, Seed: heavyPanelSeed})

	var store *ontology.Store
	for i := 0; i < setups; i++ {
		store = nil
		runtime.GC()
		start := time.Now()
		_, st, stats, err := oassis.LoadNTriples(bytes.NewReader(doc.Bytes()))
		rep.setups = append(rep.setups, time.Since(start))
		rep.attempted++
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		if stats.Triples != scale.TripleCount() || stats.SkippedBlank != 0 || stats.SkippedLiterals != 0 {
			rep.fail(cfg, "ingest read %d triples (%d blank, %d literal skipped), want %d and none skipped",
				stats.Triples, stats.SkippedBlank, stats.SkippedLiterals, scale.TripleCount())
		}
		store = st
	}
	doc = bytes.Buffer{}
	runtime.GC()
	ingest := median(rep.setups)
	rep.layer["ontology.ingest_s"] = ingest.Seconds()
	rep.layer["ontology.triples_per_s"] = float64(scale.TripleCount()) / ingest.Seconds()

	fleet, err := buildFleet(store.Vocabulary(), sample, panel, light, heavy)
	if err != nil {
		return nil, err
	}
	cache := sparql.SharedPlanCache(store)
	h0, m0, _ := cache.Stats()
	cold0 := store.ClosureStats().Cold

	var (
		mu                     sync.Mutex
		passBusy               = map[int]time.Duration{}
		passLat                = map[int][]time.Duration{}
		fingerprints           = map[int]uint64{}
		cursor                 int
		rows, valid, nodes     int64
		internHits, internMiss int64
		wg                     sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.window)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				// Once the window has closed, the workers finish the pass
				// under way, so every pass counts whole.
				mu.Lock()
				i := cursor
				if i%len(fleet) == 0 && time.Now().After(deadline) {
					mu.Unlock()
					return
				}
				cursor++
				mu.Unlock()
				qi := i % len(fleet)
				// Tracing alternates along a pass and flips every pass, so
				// each query (the heavy ones sit at even positions) is
				// traced in every other pass.
				traced := tr.traceUnit(qi + i/len(fleet))
				ot := tr.startOp(traced)
				start := time.Now()
				space, streamed, err := execute(store, fleet[qi], ot)
				lat := time.Since(start)

				mu.Lock()
				rep.attempted++
				if err != nil {
					rep.fail(cfg, "fleet query %d: %v", qi, err)
					mu.Unlock()
					continue
				}
				rep.unit(traced, lat)
				passLat[i/len(fleet)] = append(passLat[i/len(fleet)], lat)
				passBusy[i/len(fleet)] += lat
				mu.Unlock()

				// Output check: every execution of a query (a plan-cache hit
				// from the second pass on) yields the same valid assignments
				// as the first one that completed.
				fp := fingerprint(space.Valid())
				st := space.Stats()
				mu.Lock()
				if first, ok := fingerprints[qi]; !ok {
					fingerprints[qi] = fp
				} else if first != fp {
					rep.fail(cfg, "fleet query %d: valid assignments differ between executions", qi)
				}
				rows += int64(streamed)
				valid += int64(st.Valid)
				nodes += int64(st.Nodes)
				internHits += st.InternHits
				internMiss += st.InternMisses
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// One execution is both the fleet's query and its op. A pass is one
	// unit; its length is its executions' busy time spread over workers.
	var busy time.Duration
	var executions int
	for pass, b := range passBusy {
		n := float64(len(fleet))
		rep.rates(n, n, b/time.Duration(workers))
		rep.opLat = append(rep.opLat, passLat[pass])
		busy += b
		executions += len(passLat[pass])
	}

	h1, m1, _ := cache.Stats()
	hits, misses := float64(h1-h0), float64(m1-m0)
	rep.layer["sparql.plan_cache_hits"] = hits
	rep.layer["sparql.plan_cache_misses"] = misses
	rep.layer["sparql.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	rep.layer["sparql.rows_streamed"] = float64(rows)
	rep.layer["sparql.rows_per_valid"] = ratio(float64(rows), float64(valid))
	rep.layer["assign.intern_dedup_ratio"] = ratio(float64(internHits), float64(internHits+internMiss))
	rep.layer["assign.nodes"] = float64(nodes)
	rep.layer["ontology.closure_cold"] = float64(store.ClosureStats().Cold - cold0)
	logf(cfg, "fleet: %d executions (%d distinct, %d passes) in %.1fs busy on %d workers; plan cache %v hits / %v misses; %d rows into %d valid",
		executions, len(fingerprints), len(passBusy), (busy / time.Duration(workers)).Seconds(), workers, hits, misses, rows, valid)
	return rep, nil
}

const (
	// fleetLight is the number of light queries drawn from the seed.
	fleetLight = 1000
	// fleetHeavy heavy queries come from heavyPanelSeed, the same in every
	// run; one sits at every len/fleetHeavy-th position of a pass.
	fleetHeavy     = 8
	heavyPanelSeed = 1
)

// execute takes one fleet query from text to a ready assignment space,
// with a span around each layer call when ot is set.
func execute(store *ontology.Store, fq synth.FleetQuery, ot *opTrace) (*assign.Space, int, error) {
	root := ot.begin(-1, "op")
	defer ot.end(root)
	s := ot.begin(root, "oassisql.parse")
	q, err := oassisql.Parse(fq.Text, store.Vocabulary())
	ot.end(s)
	if err != nil {
		return nil, 0, err
	}
	ev := sparql.NewEvaluator(store)
	ev.Semantic = fq.Semantic
	ev.UseSharedCache()
	s = ot.begin(root, "sparql.compile")
	plan, err := ev.Compile(q.Where)
	ot.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = ot.begin(root, "assign.space")
	defer ot.end(s)
	return assign.NewSpaceFromPlan(q, plan, nil)
}

// fingerprint hashes a set of assignments independently of order.
func fingerprint(as []*assign.Assignment) uint64 {
	sum := uint64(len(as))
	for _, a := range as {
		h := fnv.New64a()
		h.Write([]byte(a.Key()))
		sum += h.Sum64()
	}
	return sum
}

// maxAnchorShare bounds a semantic query's anchor class: at most this
// share of the vocabulary's elements (and at least 20) may lie below it. A semantic star
// anchored near the taxonomy root streams millions of rows, and anchor
// subtree sizes are heavy-tailed (a random recursive tree), so without
// the bound one draw decides a whole window's throughput.
const maxAnchorShare = 0.001

var anchorRE = regexp.MustCompile(`instanceOf "([^"]+)"`)

// isHeavy reports whether a query is semantic with a link pattern, the
// evaluation path that costs seconds.
func isHeavy(fq synth.FleetQuery) bool {
	return fq.Semantic && strings.Contains(fq.Text, "$o")
}

// buildFleet picks n light queries from sample and k heavy ones from
// panel, all within the anchor bound, and spreads the heavy ones evenly
// through the light ones. It reads only the ingested vocabulary's class
// order, never the store's indexes or plan cache.
func buildFleet(v *vocab.Vocabulary, sample, panel []synth.FleetQuery, n, k int) ([]synth.FleetQuery, error) {
	limit := max(int(maxAnchorShare*float64(v.NumElements())), 20)
	below := map[vocab.TermID]int{}
	bounded := func(fq synth.FleetQuery) bool {
		if !fq.Semantic {
			return true
		}
		m := anchorRE.FindStringSubmatch(fq.Text)
		if m == nil {
			return false
		}
		id := v.Element(m[1])
		if c, ok := below[id]; ok {
			return c <= limit
		}
		seen := map[vocab.TermID]bool{id: true}
		stack := []vocab.TermID{id}
		for len(stack) > 0 && len(seen) <= limit+1 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, ch := range v.ElementChildren(x) {
				if !seen[ch] {
					seen[ch] = true
					stack = append(stack, ch)
				}
			}
		}
		below[id] = len(seen) - 1
		return below[id] <= limit
	}
	pick := func(from []synth.FleetQuery, want int, heavy bool) []synth.FleetQuery {
		var out []synth.FleetQuery
		for _, fq := range from {
			if len(out) < want && isHeavy(fq) == heavy && bounded(fq) {
				out = append(out, fq)
			}
		}
		return out
	}
	lights, heavies := pick(sample, n, false), pick(panel, k, true)
	if len(lights) < n || len(heavies) < k {
		return nil, fmt.Errorf("fleet sample too small: %d light of %d, %d heavy of %d", len(lights), n, len(heavies), k)
	}
	out := make([]synth.FleetQuery, 0, n+k)
	for i, fq := range lights {
		if i%(n/k) == 0 && i/(n/k) < k {
			out = append(out, heavies[i/(n/k)])
		}
		out = append(out, fq)
	}
	return out, nil
}
