// Command perfbench is the repository benchmark. It drives the OASSIS
// layers from outside, through their public functions, on one of four
// workloads, checks every output, and prints one JSON result line:
//
//	go run . --workload mine --seed 1 --seconds 10 --trace 0
//
// Workloads (see METRICS.md for why each exists and what it measures):
//
//	fleet   million-triple ingest, then passes over a fleet of star queries
//	        taken from text to a ready assignment space (no crowd)
//	mine    a Section 6.4 DAG mined through Session.Run by 64 oracle members
//	single  the same DAG shape mined by one oracle member with the Vertical,
//	        Horizontal and Naive single-user strategies
//	serve   the HTTP platform on loopback with a shared answer store and a
//	        simulated crowd polling over keep-alive connections
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// every other unit of work is traced with in-memory spans, the spans are
// written out as JSONL at the end, and the result carries the per-layer
// metrics. Every run uses the program's default configuration: serial
// selection, no Observer, no journal.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	smoke    bool
	log      io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *tracer) (*report, error){
	"fleet":  runFleet,
	"mine":   runMine,
	"single": runSingle,
	"serve":  runServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: fleet, mine, single or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	smoke := fs.Bool("smoke", false, "smoke-size inputs (the benchmark's own tests)")
	traceOut := fs.String("trace-out", "", "span dump of a traced run (default .bench_build/trace-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*workload]
	if !ok || (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload fleet|mine|single|serve, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		smoke:    *smoke,
		log:      stderr,
	}
	tr := newTracer(cfg.traced)
	rep, err := drive(cfg, tr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.peakRSSMB = peakRSSMB()

	var metrics map[string]metric
	if cfg.traced {
		metrics = rep.layerMetrics(tr)
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", cfg.workload, cfg.seed))
		}
		if err := tr.writeJSONL(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", tr.len(), path)
	} else {
		metrics = rep.endToEndMetrics()
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s is not finite\n", name)
			return 1
		}
	}
	if rep.attempted < 1 {
		fmt.Fprintf(stderr, "perfbench: no operation completed in the window\n")
		return 1
	}
	stamp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    *seconds,
		"trace":      *traceFlag,
		"smoke":      cfg.smoke,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceCommit(),
		"params":     rep.params,
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		return 1
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   metrics,
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// logf writes a diagnostic line to the run's log (standard error).
func logf(cfg config, format string, args ...any) {
	fmt.Fprintf(cfg.log, "perfbench: "+format+"\n", args...)
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// peakRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
