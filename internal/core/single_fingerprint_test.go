package core_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
)

// The single-member fingerprints pin everything a caller of
// core.SingleUser can observe — answers, supports, progress curve, watch
// stamps, cost counters, the OnMSP stream and the kernel metrics — across
// strategies, specialization ratios, pruning, top-k stops and departures.
// testdata/single_fingerprints.golden holds one line per configuration: the
// configuration and the sha256 of its canonical rendering. The file is a
// behavior pin, not a snapshot to refresh: regenerate it (the failure
// message prints every line) only for a deliberate change of single-member
// semantics.

// departingMember answers its first `left` questions and then departs.
type departingMember struct {
	crowd.Member
	left int
}

func (m *departingMember) AskConcrete(fs ontology.FactSet) crowd.Response {
	if m.left == 0 {
		return crowd.Response{Departed: true}
	}
	m.left--
	return m.Member.AskConcrete(fs)
}

func (m *departingMember) AskSpecialize(base ontology.FactSet, cands []ontology.FactSet) (int, crowd.Response) {
	if m.left == 0 {
		return -1, crowd.Response{Departed: true}
	}
	m.left--
	return m.Member.AskSpecialize(base, cands)
}

// renderSingle is the canonical rendering of a single-member run. Rounds,
// Asked and PeakInFlight are left out: they describe the driver, not the
// mining.
func renderSingle(res *core.Result, onMSP []string, o *obs.Observer) string {
	var b strings.Builder
	keys := func(name string, as []*assign.Assignment) {
		fmt.Fprintf(&b, "%s %d\n", name, len(as))
		for _, a := range as {
			fmt.Fprintf(&b, "  %q\n", a.Key())
		}
	}
	keys("msps", res.MSPs)
	keys("valid", res.ValidMSPs)
	keys("significant", res.Significant)
	sup := make([]string, 0, len(res.Supports))
	for key, s := range res.Supports {
		sup = append(sup, fmt.Sprintf("  %q %s\n", key, strconv.FormatFloat(s, 'g', -1, 64)))
	}
	sort.Strings(sup)
	fmt.Fprintf(&b, "supports %d\n%s", len(sup), strings.Join(sup, ""))
	st := res.Stats
	fmt.Fprintf(&b, "stats q=%d concrete=%d special=%d none=%d prune=%d auto=%d gen=%d dep=%d timedout=%d discarded=%d\n",
		st.Questions, st.ConcreteQ, st.SpecialQ, st.NoneOfThese, st.PruneClicks,
		st.AutoAnswers, st.Generated, st.Departures, st.TimedOut, st.Discarded)
	fmt.Fprintf(&b, "watch %v\n", st.WatchDiscoveredAt)
	for _, p := range st.Progress {
		fmt.Fprintf(&b, "progress %d %d %d %d\n", p.Questions, p.ClassifiedValid, p.MSPs, p.ValidMSPs)
	}
	fmt.Fprintf(&b, "onmsp %d\n", len(onMSP))
	for _, key := range onMSP {
		fmt.Fprintf(&b, "  %q\n", key)
	}
	k := o.Kernel
	fmt.Fprintf(&b, "kernel questions=%d inferred=%d msps=%d\n",
		k.Questions.Value(), k.Inferred.Value(), k.MSPs.Value())
	return b.String()
}

// singleCase is one fingerprinted configuration; build returns a fresh
// space, member and watch list so every case runs from a clean state.
type singleCase struct {
	name  string
	theta float64
	run   core.SingleUser
	build func(t *testing.T) (*assign.Space, crowd.Member, []*assign.Assignment)
}

func singleCases() []singleCase {
	var cases []singleCase
	strategies := []core.Strategy{core.Vertical, core.Horizontal, core.Naive}
	dags := []synth.DAGConfig{
		{Width: 16, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 3},
		{Width: 20, Depth: 4, MSPPercent: 0.06, Places: 2, Seed: 8},
		{Width: 14, Depth: 3, MSPPercent: 0.08, MultiMSPPercent: 0.04, MultiMSPSize: 2, Places: 2, Seed: 21},
		// Naive on this DAG raises the top-k stop from a pruning
		// inference in the middle of selecting a question.
		{Width: 20, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 2},
	}
	dagBuild := func(cfg synth.DAGConfig, prune float64, departAfter int) func(t *testing.T) (*assign.Space, crowd.Member, []*assign.Assignment) {
		return func(t *testing.T) (*assign.Space, crowd.Member, []*assign.Assignment) {
			d, err := synth.NewDAG(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var m crowd.Member = d.Oracle(prune, 5)
			if departAfter >= 0 {
				m = &departingMember{Member: m, left: departAfter}
			}
			return d.Space, m, d.Planted
		}
	}
	for _, cfg := range dags {
		for _, st := range strategies {
			for _, spec := range []float64{0, 0.12, 1} {
				for _, prune := range []float64{0, 0.25} {
					for _, topk := range []int{0, 1, 3} {
						cases = append(cases, singleCase{
							name: fmt.Sprintf("dag=%d/%d/%d %s spec=%g prune=%g topk=%d",
								cfg.Width, cfg.Depth, cfg.Seed, st, spec, prune, topk),
							theta: 0.5,
							run:   core.SingleUser{Strategy: st, SpecializationRatio: spec, MaxMSPs: topk, Seed: 7},
							build: dagBuild(cfg, prune, -1),
						})
					}
				}
			}
			for _, k := range []int{0, 3, 12} {
				cases = append(cases, singleCase{
					name: fmt.Sprintf("dag=%d/%d/%d %s spec=0.12 prune=0.25 depart=%d",
						cfg.Width, cfg.Depth, cfg.Seed, st, k),
					theta: 0.5,
					run:   core.SingleUser{Strategy: st, SpecializationRatio: 0.12, Seed: 7},
					build: dagBuild(cfg, 0.25, k),
				})
			}
		}
	}
	for _, st := range strategies {
		for _, spec := range []float64{0, 0.12, 1} {
			cases = append(cases, singleCase{
				name:  fmt.Sprintf("simple avg %s spec=%g", st, spec),
				theta: 0.4,
				run:   core.SingleUser{Strategy: st, SpecializationRatio: spec, Seed: 1},
				build: func(t *testing.T) (*assign.Space, crowd.Member, []*assign.Assignment) {
					sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
					want := wantMSPs(t, sp, v)
					var watch []*assign.Assignment
					for _, a := range sp.Valid() {
						if want[a.Key()] {
							watch = append(watch, a)
						}
					}
					return sp, newAvgMember(v), watch
				},
			})
		}
	}
	return cases
}

// singleFingerprintLines runs every case and returns its golden lines.
func singleFingerprintLines(t *testing.T) []string {
	var lines []string
	for _, c := range singleCases() {
		sp, m, watch := c.build(t)
		var streamed []string
		o := obs.New()
		run := c.run
		run.Space, run.Member, run.Theta, run.Watch, run.Obs = sp, m, c.theta, watch, o
		run.OnMSP = func(a *assign.Assignment) { streamed = append(streamed, a.Key()) }
		res := run.Run()
		if res.Stats.Rounds != res.Stats.Asked || res.Stats.PeakInFlight > 1 {
			t.Errorf("%s: Rounds=%d Asked=%d PeakInFlight=%d, want Rounds == Asked and PeakInFlight <= 1",
				c.name, res.Stats.Rounds, res.Stats.Asked, res.Stats.PeakInFlight)
		}
		sum := sha256.Sum256([]byte(renderSingle(res, streamed, o)))
		lines = append(lines, fmt.Sprintf("%s %x", c.name, sum))
	}
	return lines
}

func TestSingleFingerprints(t *testing.T) {
	got := singleFingerprintLines(t)
	data, err := os.ReadFile("testdata/single_fingerprints.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d fingerprint configurations, golden has %d", len(got), len(want))
	}
	diffs := 0
	for i := range got {
		if got[i] != want[i] {
			diffs++
			t.Errorf("fingerprint changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
	if diffs > 0 {
		t.Logf("current fingerprints:\n%s", strings.Join(got, "\n"))
	}
}
