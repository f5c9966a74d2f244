package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// The sweep in this file pins broker identity: Run serves members one at a
// time in member order, a concurrentBroker serves each round's questions
// from one goroutine per ask and delivers the replies scrambled, and every
// externally visible output of a run — the MSP sets, the per-member
// transcripts, the aggregated supports and the entire Stats block — must
// be byte-identical between them. Identity, not statistical similarity:
// selection and the reply fold are the kernel's and run at the round
// barrier, so the broker may only change wall-clock time.

// runFingerprint is everything a caller can observe about a finished run.
type runFingerprint struct {
	msps, valid, sig string
	supports         map[string]float64
	transcripts      map[string][]string
	stats            core.Stats
}

func keyset(as []*assign.Assignment) string {
	keys := make([]string, len(as))
	for i, a := range as {
		keys[i] = a.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

func fingerprint(res *core.Result) runFingerprint {
	return runFingerprint{
		msps:        keyset(res.MSPs),
		valid:       keyset(res.ValidMSPs),
		sig:         keyset(res.Significant),
		supports:    res.Supports,
		transcripts: res.Transcripts,
		stats:       res.Stats,
	}
}

// diffFingerprints reports the first component where two fingerprints
// disagree, for readable failure messages.
func diffFingerprints(a, b runFingerprint) string {
	switch {
	case a.msps != b.msps:
		return fmt.Sprintf("MSP sets differ:\n%s\nvs\n%s", a.msps, b.msps)
	case a.valid != b.valid:
		return "valid-MSP sets differ"
	case a.sig != b.sig:
		return "significant sets differ"
	case !reflect.DeepEqual(a.supports, b.supports):
		return fmt.Sprintf("support maps differ: %v\nvs\n%v", a.supports, b.supports)
	case !reflect.DeepEqual(a.transcripts, b.transcripts):
		return fmt.Sprintf("transcripts differ:\n%v\nvs\n%v", a.transcripts, b.transcripts)
	case !reflect.DeepEqual(a.stats, b.stats):
		return fmt.Sprintf("stats differ:\n%+v\nvs\n%+v", a.stats, b.stats)
	default:
		return ""
	}
}

// sweepDAGCache shares immutable DAG spaces across combos (the engine never
// mutates a Space; classification state lives in the per-run kernel).
var sweepDAGCache = map[synth.DAGConfig]*synth.DAG{}

func sweepDAG(t *testing.T, cfg synth.DAGConfig) *synth.DAG {
	t.Helper()
	if d, ok := sweepDAGCache[cfg]; ok {
		return d
	}
	d, err := synth.NewDAG(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sweepDAGCache[cfg] = d
	return d
}

// TestParallelSelectionTranscriptIdentical sweeps >100 randomized
// scenario combinations — DAG shapes, crowd sizes, aggregator families,
// specialization ratios, pruning oracles, spammers with the consistency
// filter, per-member question caps and top-k stops — and for each one
// requires concurrent brokers under three seeds to reproduce Run's output
// bit for bit.
func TestParallelSelectionTranscriptIdentical(t *testing.T) {
	dags := []synth.DAGConfig{
		{Width: 12, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 3},
		{Width: 18, Depth: 3, MSPPercent: 0.05, Places: 1, Seed: 4},
		{Width: 24, Depth: 4, MSPPercent: 0.08, Places: 2, Seed: 5},
	}
	type aggMaker struct {
		name string
		mk   func(k int, theta float64) crowd.Aggregator
	}
	aggs := []aggMaker{
		{"mean", func(k int, th float64) crowd.Aggregator { return crowd.NewMeanAggregator(k, th) }},
		{"majority", func(k int, th float64) crowd.Aggregator { return crowd.NewMajorityAggregator(k, th) }},
		{"trust", func(k int, th float64) crowd.Aggregator { return crowd.NewTrustWeightedAggregator(k, th) }},
	}
	crowds := []int{2, 3, 5, 9}

	// Mixed-radix enumeration over the first three dimensions covers every
	// (dag, aggregator, crowd) pairing; a seeded rng scatters the rest so
	// they do not correlate with the enumerated digits.
	aux := rand.New(rand.NewSource(99))
	const combos = 108 // 3 dags × 3 aggregators × 4 crowd sizes × 3 repeats
	totalMSPs, totalQuestions := 0, 0
	for i := 0; i < combos; i++ {
		j := i
		dagCfg := dags[j%len(dags)]
		j /= len(dags)
		agg := aggs[j%len(aggs)]
		j /= len(aggs)
		members := crowds[j%len(crowds)]

		spec := []float64{0, 0.15, 0.5}[aux.Intn(3)]
		prune := []float64{0, 0, 0.3}[aux.Intn(3)]
		maxQ := []int{0, 0, 7}[aux.Intn(3)]
		topk := []int{0, 0, 2}[aux.Intn(3)]
		consist := aux.Intn(3) == 0
		quorum := 2 + aux.Intn(2)
		if quorum > members {
			quorum = members
		}
		seed := int64(100 + i)

		d := sweepDAG(t, dagCfg)
		theta := d.Query.Satisfying.Support
		name := fmt.Sprintf("%03d-%s-m%d-w%dd%d", i, agg.name, members, dagCfg.Width, dagCfg.Depth)
		t.Run(name, func(t *testing.T) {
			run := func(jitter int64) *core.Result {
				pool := make([]crowd.Member, members)
				for m := range pool {
					pool[m] = namedOracle{Member: d.Oracle(prune, int64(m+1)), id: fmt.Sprintf("m%d", m)}
				}
				if consist && members > 2 {
					// One spammer for the consistency filter to chew on.
					pool[members-1] = crowd.NewSpammer(fmt.Sprintf("m%d", members-1), seed)
				}
				cfg := core.EngineConfig{
					Theta:                 theta,
					Aggregator:            agg.mk(quorum, theta),
					SpecializationRatio:   spec,
					MaxQuestionsPerMember: maxQ,
					MaxMSPs:               topk,
					Seed:                  seed,
					RecordTranscript:      true,
				}
				if consist {
					cfg.Consistency = true
					cfg.CalibrationQuestions = 2
				}
				if jitter == 0 {
					return core.NewEngine(d.Space, pool, cfg).Run()
				}
				return runConcurrent(core.NewEngine(d.Space, lockCrowd(t, pool), cfg), jitter)
			}
			ref := fingerprint(run(0))
			totalMSPs += len(strings.Split(ref.msps, "\n"))
			totalQuestions += ref.stats.Questions
			for _, jitter := range []int64{1, 2, 3} {
				if got := fingerprint(run(jitter)); !reflect.DeepEqual(got, ref) {
					t.Fatalf("jitter %d: concurrent broker diverged from Run: %s", jitter, diffFingerprints(got, ref))
				}
			}
		})
	}
	// The sweep must not be vacuous.
	if totalMSPs == 0 || totalQuestions == 0 {
		t.Fatalf("degenerate sweep: %d MSPs, %d questions across all combos", totalMSPs, totalQuestions)
	}
}
