package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/synth"
)

// fleetReport is the JSON document `-fleet` emits (BENCH_PR8.json): ingest
// throughput for the serial and parallel N-Triples loaders over the same
// generated document, differential proof that both produced the same
// vocabulary/store, and the query-fleet results over the parallel-loaded
// store.
type fleetReport struct {
	Scale        string                  `json:"scale"`
	CPUs         int                     `json:"cpus"`
	Triples      int                     `json:"triples"`
	Bytes        int                     `json:"bytes"`
	GenSecs      float64                 `json:"generate_secs"`
	SerialSecs   float64                 `json:"serial_load_secs"`
	ParallelSecs float64                 `json:"parallel_load_secs"`
	SerialTPS    float64                 `json:"serial_triples_per_sec"`
	ParallelTPS  float64                 `json:"parallel_triples_per_sec"`
	Speedup      float64                 `json:"parallel_speedup"`
	Identical    bool                    `json:"serial_parallel_identical"`
	Stats        *ontology.NTriplesStats `json:"ingest_stats"`
	Elements     int                     `json:"vocab_elements"`
	Relations    int                     `json:"vocab_relations"`
	Facts        int                     `json:"store_facts"`
	Fleet        *synth.FleetReport      `json:"fleet"`
}

// runFleetBench generates the scale ontology, times both ingestion paths,
// checks they agree, runs the query fleet against the parallel-loaded
// store and writes the JSON report.
func runFleetBench(scaleName string, queries, execs, workers, mine int, seed int64, out string, o *obs.Observer) error {
	var scale synth.ScaleConfig
	switch scaleName {
	case "million":
		scale = synth.MillionScale()
	case "smoke":
		scale = synth.SmokeScale()
	default:
		return fmt.Errorf("unknown -fleet-scale %q (million or smoke)", scaleName)
	}
	scale.Seed = seed

	fmt.Printf("==== fleet (%s scale) ====\n", scaleName)
	var buf bytes.Buffer
	buf.Grow(scale.TripleCount() * 96)
	t0 := time.Now()
	if err := synth.WriteScaleNTriples(&buf, scale); err != nil {
		return err
	}
	genSecs := time.Since(t0).Seconds()
	fmt.Printf("generated %d triples (%.1f MiB) in %.2fs\n",
		scale.TripleCount(), float64(buf.Len())/(1<<20), genSecs)

	t1 := time.Now()
	sv, ss, sstats, err := ontology.LoadNTriples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return fmt.Errorf("serial load: %w", err)
	}
	serialSecs := time.Since(t1).Seconds()
	fmt.Printf("serial load:   %.2fs (%.0f triples/s)\n", serialSecs, float64(sstats.Triples)/serialSecs)

	t2 := time.Now()
	pv, ps, pstats, err := ontology.LoadNTriplesParallel(bytes.NewReader(buf.Bytes()), ontology.LoadOptions{Obs: o})
	if err != nil {
		return fmt.Errorf("parallel load: %w", err)
	}
	parSecs := time.Since(t2).Seconds()
	fmt.Printf("parallel load: %.2fs (%.0f triples/s, %d cpus)\n",
		parSecs, float64(pstats.Triples)/parSecs, runtime.GOMAXPROCS(0))

	identical := *sstats == *pstats &&
		sv.NumElements() == pv.NumElements() &&
		sv.NumRelations() == pv.NumRelations() &&
		ss.Size() == ps.Size()
	if !identical {
		return fmt.Errorf("serial and parallel ingest diverge: stats %+v vs %+v, vocab (%d,%d) vs (%d,%d), facts %d vs %d",
			*sstats, *pstats, sv.NumElements(), sv.NumRelations(),
			pv.NumElements(), pv.NumRelations(), ss.Size(), ps.Size())
	}

	fcfg := synth.FleetConfig{Queries: queries, Executions: execs, Workers: workers,
		MineMembers: mine, Seed: seed, Obs: o}
	fleet := synth.SampleFleet(scale, fcfg)
	rep, err := synth.RunFleet(ps, fleet, fcfg)
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %d distinct queries, %d executions on %d workers in %.2fs (%.0f q/s)\n",
		rep.DistinctQueries, rep.Executions, rep.Workers, rep.Seconds, rep.QueriesPerSec)
	fmt.Printf("plan cache: %d hits / %d misses (%.1f%% hit rate), %d entries\n",
		rep.PlanCacheHits, rep.PlanCacheMisses, 100*rep.CacheHitRate, rep.PlanCacheSize)
	if rep.Questions > 0 {
		fmt.Printf("mining: %d crowd questions across the fleet (%d synthetic members per run)\n",
			rep.Questions, mine)
	}
	if len(rep.PerQuery) > 0 {
		top := append([]synth.QueryCost(nil), rep.PerQuery...)
		sort.Slice(top, func(i, j int) bool { return top[i].WallSecs > top[j].WallSecs })
		if len(top) > 5 {
			top = top[:5]
		}
		fmt.Printf("attribution: %d queries journaled; top by wall time:\n", len(rep.PerQuery))
		for _, c := range top {
			fmt.Printf("  %s: %d execs, %.3fs, %d cache hits, %d rows, %d questions\n",
				c.Query, c.Execs, c.WallSecs, c.CacheHits, c.Rows, c.Questions)
		}
	}

	doc := fleetReport{
		Scale:        scaleName,
		CPUs:         runtime.GOMAXPROCS(0),
		Triples:      sstats.Triples,
		Bytes:        buf.Len(),
		GenSecs:      genSecs,
		SerialSecs:   serialSecs,
		ParallelSecs: parSecs,
		SerialTPS:    float64(sstats.Triples) / serialSecs,
		ParallelTPS:  float64(pstats.Triples) / parSecs,
		Speedup:      serialSecs / parSecs,
		Identical:    identical,
		Stats:        pstats,
		Elements:     pv.NumElements(),
		Relations:    pv.NumRelations(),
		Facts:        ps.Size(),
		Fleet:        rep,
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("report: %s\n", out)
	}
	return nil
}
