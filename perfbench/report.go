package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// report is what one workload run measured. Durations are the benchmark's
// own clock readings around calls into the program.
type report struct {
	// params are the workload's input parameters, stamped on the result.
	params map[string]any

	setups []time.Duration // each repetition of the workload's set-up

	attempted, failed int64 // ops tried, ops that errored or failed a check

	// queryRates and opRates are throughput samples, one per unit of work
	// (a fleet pass, a mining run or a cycle): posed queries
	// taken to their result per second, and the workload's ops per second
	// (see METRICS.md). The reported rate is their median, which a burst of
	// interference from other tenants of the machine moves less than a sum.
	queryRates, opRates []float64
	// opLat holds each unit's op latencies. The reported percentiles are
	// medians of per-unit percentiles, for the same reason as the rates.
	opLat [][]time.Duration

	// units are traced and untraced repetitions of the same work, for the
	// tracing overhead.
	traced, untraced []time.Duration

	// layer holds per-layer counters read from the program's stats
	// accessors; span-derived layer metrics are added by layerMetrics.
	layer map[string]float64

	peakRSSMB float64
}

func newReport(params map[string]any) *report {
	return &report{params: params, layer: map[string]float64{}}
}

// unit records one repetition's duration on the traced or untraced side.
func (r *report) unit(traced bool, d time.Duration) {
	if traced {
		r.traced = append(r.traced, d)
	} else {
		r.untraced = append(r.untraced, d)
	}
}

// fail counts a failed op and logs why.
func (r *report) fail(cfg config, format string, args ...any) {
	r.failed++
	logf(cfg, "FAIL: "+format, args...)
}

func (r *report) endToEndMetrics() map[string]metric {
	return map[string]metric{
		"setup_s":       {median(r.setups).Seconds(), "s"},
		"peak_rss_mb":   {r.peakRSSMB, "MB"},
		"queries_per_s": {medianOf(r.queryRates), "1/s"},
		"ops_per_s":     {medianOf(r.opRates), "1/s"},
		"op_p50_ms":     {r.opQuantileMS(0.50), "ms"},
		"op_p90_ms":     {r.opQuantileMS(0.90), "ms"},
	}
}

// opQuantileMS is the median over units of each unit's q-quantile op
// latency, in milliseconds.
func (r *report) opQuantileMS(q float64) float64 {
	var per []float64
	for _, lat := range r.opLat {
		if len(lat) > 0 {
			per = append(per, ms(quantile(lat, q)))
		}
	}
	return medianOf(per)
}

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"ontology.ingest_s":            "s",
	"ontology.triples_per_s":       "1/s",
	"ontology.closure_cold":        "count",
	"oassisql.parse_p50_us":        "us",
	"sparql.compile_p50_us":        "us",
	"sparql.compile_p99_us":        "us",
	"sparql.plan_cache_hit_ratio":  "ratio",
	"sparql.plan_cache_hits":       "count",
	"sparql.plan_cache_misses":     "count",
	"sparql.rows_streamed":         "count",
	"sparql.rows_per_valid":        "ratio",
	"assign.space_build_p50_ms":    "ms",
	"assign.space_build_p99_ms":    "ms",
	"assign.intern_dedup_ratio":    "ratio",
	"assign.edge_cache_hit_ratio":  "ratio",
	"assign.nodes":                 "count",
	"core.crowd_questions":         "count",
	"core.rounds":                  "count",
	"core.asks_per_round":          "ratio",
	"core.allocs_per_question":     "count",
	"core.bytes_per_question":      "B",
	"core.auto_answer_ratio":       "ratio",
	"core.vertical_think_p50_us":   "us",
	"core.horizontal_think_p50_us": "us",
	"core.naive_think_p50_us":      "us",
	"core.vertical_questions":      "count",
	"core.horizontal_questions":    "count",
	"core.naive_questions":         "count",
	"server.question_p50_us":       "us",
	"server.question_p99_us":       "us",
	"server.answer_p50_us":         "us",
	"server.answer_p99_us":         "us",
	"server.poll_hit_ratio":        "ratio",
	"platform.hit_ratio":           "ratio",
	"platform.lookups":             "count",
	"platform.entries":             "count",
	"crowd.answer_share":           "ratio",
	"oassisql.self_share":          "ratio",
	"sparql.self_share":            "ratio",
	"assign.self_share":            "ratio",
	"core.self_share":              "ratio",
	"server.self_share":            "ratio",
	"crowd.self_share":             "ratio",
	"harness.unattributed_share":   "ratio",
	"harness.trace_overhead":       "ratio",
}

// spanQuantiles derives per-layer latency metrics from traced span
// durations: metric name → (span name, quantile, scale).
var spanQuantiles = map[string]struct {
	span  string
	q     float64
	scale time.Duration
}{
	"oassisql.parse_p50_us":     {"oassisql.parse", 0.50, time.Microsecond},
	"sparql.compile_p50_us":     {"sparql.compile", 0.50, time.Microsecond},
	"sparql.compile_p99_us":     {"sparql.compile", 0.99, time.Microsecond},
	"assign.space_build_p50_ms": {"assign.space", 0.50, time.Millisecond},
	"assign.space_build_p99_ms": {"assign.space", 0.99, time.Millisecond},
	"server.question_p50_us":    {"server.question", 0.50, time.Microsecond},
	"server.question_p99_us":    {"server.question", 0.99, time.Microsecond},
	"server.answer_p50_us":      {"server.answer", 0.50, time.Microsecond},
	"server.answer_p99_us":      {"server.answer", 0.99, time.Microsecond},
}

func (r *report) layerMetrics(tr *tracer) map[string]metric {
	vals := map[string]float64{}
	for name, sq := range spanQuantiles {
		vals[name] = float64(quantile(tr.durations(sq.span), sq.q)) / float64(sq.scale)
	}
	self, total := tr.attribute()
	for _, layer := range []string{"oassisql", "sparql", "assign", "core", "server", "crowd"} {
		vals[layer+".self_share"] = ratio(float64(self[layer]), float64(total))
	}
	vals["harness.unattributed_share"] = ratio(float64(self["op"]), float64(total))
	if len(r.traced) > 0 && len(r.untraced) > 0 {
		vals["harness.trace_overhead"] = float64(median(r.traced))/float64(median(r.untraced)) - 1
	}
	for name, v := range r.layer {
		vals[name] = v
	}
	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{vals[name], unit}
	}
	return out
}

// quantile returns the q-quantile of ds by the nearest-rank method (0 when
// empty).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s)) + 0.5)
	if i < 1 {
		i = 1
	}
	if i > len(s) {
		i = len(s)
	}
	return s[i-1]
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// medianOf returns the median of xs (0 when empty).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// rates records one unit's throughput: queries and ops over its duration.
func (r *report) rates(queries, ops float64, d time.Duration) {
	r.queryRates = append(r.queryRates, ratio(queries, d.Seconds()))
	r.opRates = append(r.opRates, ratio(ops, d.Seconds()))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sourceCommit identifies the measured source: the git HEAD when the
// benchmark runs in a git checkout, otherwise a SHA-256 over the module's
// Go sources and go.mod (prefixed "src:").
func sourceCommit() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			h.Write([]byte(path))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}
