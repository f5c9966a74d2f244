package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeWorkloads runs every workload at smoke size, untraced and
// traced, so the harness cannot silently rot: each run must exit 0, pass
// its output checks, and report every metric of its mode.
func TestSmokeWorkloads(t *testing.T) {
	endToEnd := []string{"setup_s", "peak_rss_mb", "queries_per_s", "ops_per_s", "op_p50_ms", "op_p90_ms"}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
					"--smoke", "--trace-out", filepath.Join(t.TempDir(), "spans.jsonl")}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = nil
					for m := range layerUnits {
						want = append(want, m)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if _, ok := res.Metrics[m]; !ok {
						t.Errorf("metric %s missing", m)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if res.Metrics[m].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m, res.Metrics[m].Value)
						}
					}
				}
			})
		}
	}
}

// TestAttributionAddsUp checks that the layer self times of every op add
// up to the op's duration, including with concurrent child spans.
func TestAttributionAddsUp(t *testing.T) {
	tr := newTracer(true)
	tr.spans = []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "sparql.compile", Start: 10, End: 30},
		{ID: 2, Parent: 0, Op: 1, Name: "core.run", Start: 30, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "crowd.answer", Start: 40, End: 50},
		{ID: 4, Parent: 2, Op: 1, Name: "crowd.answer", Start: 45, End: 60},
		{ID: 5, Parent: -1, Op: 2, Name: "op", Start: 50, End: 80},
		{ID: 6, Parent: 5, Op: 2, Name: "server.poll", Start: 50, End: 70},
		{ID: 7, Parent: 5, Op: 2, Name: "sparql.compile", Start: 70, End: 70},
	}
	self, total := tr.attribute()
	if total != 130 {
		t.Fatalf("total = %d, want 130", total)
	}
	var sum int64
	for _, d := range self {
		sum += d
	}
	if sum != total {
		t.Fatalf("self times add up to %d, want %d: %v", sum, total, self)
	}
	want := map[string]int64{"op": 20 + 10, "sparql": 20, "core": 40, "crowd": 20, "server": 20}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("%s self = %d, want %d (all: %v)", layer, self[layer], d, self)
		}
	}
}
