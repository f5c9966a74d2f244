// Package exp is the experiment harness: it regenerates the data series
// behind every figure of the OASSIS evaluation (Section 6) — the per-domain
// crowd statistics of Figures 4a–4c, the pace-of-collection curves of
// Figures 4d–4e, the answer-type study of Figure 4f, the algorithm
// comparison of Figures 5a–5c, and the in-text claims of Sections 6.3–6.4.
package exp

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/platform"
	"oassis/internal/synth"
	"oassis/internal/vocab"
)

// obsv, when set via SetObserver, observes every experiment this package
// runs: engines get kernel/broker metrics and journal their runs with
// round spans, the synth query pipelines get sparql metrics, and the
// harness itself journals the build/mine spans of each figure. Nil (the
// default) disables all of it.
var obsv *obs.Observer

// SetObserver attaches o to all subsequent experiment runs (nil detaches).
// The caller owns phase labelling: call o.JournalSet().SetPhase(figureID)
// before each figure so its spans group under the figure in the journal
// and its summaries.
func SetObserver(o *obs.Observer) { obsv = o }

// span opens one harness stage: it returns a func that journals the
// elapsed wall-clock span, with any end-time attributes, when called.
// No-op without an observer.
func span(name string) func(attrs ...obs.Attr) {
	jr := obsv.JournalSet()
	start := jr.Begin()
	return func(attrs ...obs.Attr) { jr.End(name, start, attrs...) }
}

// CrowdStatsRow is one threshold row of Figures 4a–4c.
type CrowdStatsRow struct {
	Theta     float64
	MSPs      int
	ValidMSPs int
	Questions int
	// BaselinePct is Questions as a percentage of the baseline
	// algorithm's cost (K answers for every valid assignment, no
	// traversal order — Section 6.3).
	BaselinePct float64
}

// CrowdStatsResult is the Figure 4a/4b/4c dataset for one domain.
type CrowdStatsResult struct {
	Domain string
	// Valid is |𝒜valid|; DAGNodes approximates the eager closure size
	// without multiplicities (the paper reports 4773/10512/2307).
	Valid    int
	DAGNodes int
	Rows     []CrowdStatsRow
	// Question-type breakdown over the Θ=base run (the paper reports
	// 12% specialization, of which half none-of-these, 13% pruning).
	SpecPct, NoneOfThesePct, PrunePct float64
	// Generated counts lazily materialized assignments in the base run.
	Generated int
}

// aggK is the paper's decision quota: 5 answers per assignment.
const aggK = 5

// CrowdStats reproduces Figures 4a–4c for one domain config: the query runs
// once per threshold, ascending, attached to one answer platform so later
// runs replay earlier answers (Section 6.3's methodology).
//
// The assignment Space is built ONCE and shared by every threshold run:
// each engine below gets a fresh classifier and aggregator (the verdicts
// depend on theta) but reuses d.Space's interner and edge cache, so
// successor/predecessor lists computed while mining at theta_1 are free
// for every later threshold — the replay counterpart of the answer store.
func CrowdStats(cfg synth.DomainConfig, thetas []float64, seed int64) (*CrowdStatsResult, error) {
	cfg.Obs = obsv
	build := span("domain_build")
	d, err := synth.NewDomain(cfg)
	if err != nil {
		return nil, err
	}
	build(obs.Attr{Key: "valid", Val: int64(len(d.Space.Valid()))})
	ids := make([]string, len(d.Members))
	for i, m := range d.Members {
		ids[i] = m.ID()
	}
	broker := crowd.NewMemberBroker(d.Members, time.Now)
	broker.Metrics = obsv.BrokerSet()
	answers := platform.New(platform.Config{})
	res := &CrowdStatsResult{
		Domain:   cfg.Name,
		Valid:    len(d.Space.Valid()),
		DAGNodes: EagerNodes(d.Space),
	}
	sorted := append([]float64{}, thetas...)
	sort.Float64s(sorted)
	for i, theta := range sorted {
		mine := span("mine")
		eng := core.NewBrokerEngine(d.Space, ids, core.EngineConfig{
			Theta:               theta,
			Aggregator:          crowd.NewMeanAggregator(aggK, theta),
			SpecializationRatio: 0.12,
			Seed:                seed,
			Obs:                 obsv,
		})
		conn := answers.Attach(broker)
		r := eng.RunWith(conn)
		conn.Detach()
		mine(obs.Attr{Key: "theta_pct", Val: int64(100 * theta)},
			obs.Attr{Key: "questions", Val: int64(r.Stats.Questions)})
		baseline := aggK * len(d.Space.Valid())
		res.Rows = append(res.Rows, CrowdStatsRow{
			Theta:       theta,
			MSPs:        len(r.MSPs),
			ValidMSPs:   len(r.ValidMSPs),
			Questions:   r.Stats.Questions,
			BaselinePct: 100 * float64(r.Stats.Questions) / float64(baseline),
		})
		if i == 0 {
			q := float64(r.Stats.Questions)
			res.SpecPct = 100 * float64(r.Stats.SpecialQ) / q
			res.NoneOfThesePct = 100 * float64(r.Stats.NoneOfThese) / q
			res.PrunePct = 100 * float64(r.Stats.PruneClicks) / q
			res.Generated = r.Stats.Generated
		}
	}
	return res, nil
}

// PacePoint is one sample of Figures 4d–4e.
type PacePoint struct {
	Questions       int
	ClassifiedPct   float64 // % of valid assignments classified
	MSPPct          float64 // % of all MSPs discovered
	ValidMSPPct     float64 // % of valid MSPs discovered
	HasValidMSPPct  bool    // false when every MSP is valid (4b/4c style)
	ClassifiedValid int
}

// PaceResult is the Figure 4d/4e dataset.
type PaceResult struct {
	Domain string
	Theta  float64
	Points []PacePoint
	// FinalQuestions, FinalMSPs summarize the run.
	FinalQuestions int
	FinalMSPs      int
	FinalValidMSPs int
}

// Pace reproduces Figures 4d–4e: the number of questions as a function of
// the percentage of discovered MSPs / valid MSPs / classified valid
// assignments, at the base threshold.
func Pace(cfg synth.DomainConfig, theta float64, seed int64) (*PaceResult, error) {
	cfg.Obs = obsv
	build := span("domain_build")
	d, err := synth.NewDomain(cfg)
	if err != nil {
		return nil, err
	}
	build(obs.Attr{Key: "valid", Val: int64(len(d.Space.Valid()))})
	mine := span("mine")
	eng := core.NewEngine(d.Space, d.Members, core.EngineConfig{
		Theta:               theta,
		Aggregator:          crowd.NewMeanAggregator(aggK, theta),
		SpecializationRatio: 0.12,
		Seed:                seed,
		Obs:                 obsv,
	})
	r := eng.Run()
	mine(obs.Attr{Key: "questions", Val: int64(r.Stats.Questions)})
	res := &PaceResult{
		Domain:         cfg.Name,
		Theta:          theta,
		FinalQuestions: r.Stats.Questions,
		FinalMSPs:      len(r.MSPs),
		FinalValidMSPs: len(r.ValidMSPs),
	}
	totalValidAssign := len(d.Space.Valid())
	distinctValid := len(r.ValidMSPs) != len(r.MSPs)
	// Sample ~40 evenly spaced progress points.
	step := len(r.Stats.Progress)/40 + 1
	for i := 0; i < len(r.Stats.Progress); i += step {
		p := r.Stats.Progress[i]
		res.Points = append(res.Points, pacePoint(p, totalValidAssign, res, distinctValid))
	}
	if len(r.Stats.Progress) > 0 {
		last := r.Stats.Progress[len(r.Stats.Progress)-1]
		res.Points = append(res.Points, pacePoint(last, totalValidAssign, res, distinctValid))
	}
	return res, nil
}

func pacePoint(p core.ProgressPoint, totalValid int, res *PaceResult, distinctValid bool) PacePoint {
	pp := PacePoint{
		Questions:       p.Questions,
		ClassifiedValid: p.ClassifiedValid,
		HasValidMSPPct:  distinctValid,
	}
	if totalValid > 0 {
		pp.ClassifiedPct = 100 * float64(p.ClassifiedValid) / float64(totalValid)
	}
	if res.FinalMSPs > 0 {
		pp.MSPPct = 100 * float64(p.MSPs) / float64(res.FinalMSPs)
	}
	if res.FinalValidMSPs > 0 {
		pp.ValidMSPPct = 100 * float64(p.ValidMSPs) / float64(res.FinalValidMSPs)
	}
	return pp
}

// Curve is one series of Figures 4f and 5: the questions needed to discover
// each decile of the (planted) valid MSPs, averaged over trials.
type Curve struct {
	Label string
	// QuestionsAt[i] is the mean number of questions to discover
	// (i+1)*10 percent of the planted MSPs.
	QuestionsAt [10]float64
}

// discoveryCurve turns per-MSP discovery times into decile costs.
func discoveryCurve(at []int) [10]float64 {
	times := append([]int{}, at...)
	for i, t := range times {
		if t < 0 {
			times[i] = 1 << 30 // undiscovered: beyond any budget
		}
	}
	sort.Ints(times)
	var out [10]float64
	n := len(times)
	for dec := 1; dec <= 10; dec++ {
		// Questions to discover dec*10% of the MSPs.
		need := (n*dec + 9) / 10
		if need == 0 {
			continue
		}
		out[dec-1] = float64(times[need-1])
	}
	return out
}

// AnswerTypes reproduces Figure 4f: the vertical algorithm under different
// ratios of specialization answers and user-guided pruning clicks, on a
// synthetic DAG with a single simulated user.
func AnswerTypes(dagCfg synth.DAGConfig, trials int, seed int64) ([]Curve, error) {
	type variant struct {
		label      string
		specRatio  float64
		pruneRatio float64
	}
	variants := []variant{
		{"100% closed", 0, 0},
		{"10% special.", 0.10, 0},
		{"50% special.", 0.50, 0},
		{"100% special.", 1.0, 0},
		{"25% pruning", 0, 0.25},
		{"50% pruning", 0, 0.50},
	}
	curves := make([]Curve, len(variants))
	for vi, vr := range variants {
		curves[vi].Label = vr.label
		var acc [10]float64
		for tr := 0; tr < trials; tr++ {
			cfg := dagCfg
			cfg.Seed = seed + int64(tr)
			cfg.Obs = obsv
			d, err := synth.NewDAG(cfg)
			if err != nil {
				return nil, err
			}
			mine := span("mine")
			run := &core.SingleUser{
				Space:               d.Space,
				Member:              d.Oracle(vr.pruneRatio, seed+int64(tr)),
				Theta:               0.5,
				SpecializationRatio: vr.specRatio,
				Seed:                seed + int64(100+tr),
				Watch:               d.Planted,
				Obs:                 obsv,
			}
			r := run.Run()
			mine(obs.Attr{Key: "variant", Val: int64(vi)},
				obs.Attr{Key: "questions", Val: int64(r.Stats.Questions)})
			c := discoveryCurve(r.Stats.WatchDiscoveredAt)
			for i := range acc {
				acc[i] += c[i]
			}
		}
		for i := range acc {
			curves[vi].QuestionsAt[i] = acc[i] / float64(trials)
		}
	}
	return curves, nil
}

// Algorithms reproduces Figures 5a–5c: vertical vs horizontal vs naive on a
// synthetic DAG at a given MSP density, averaged over trials.
func Algorithms(dagCfg synth.DAGConfig, trials int, seed int64) ([]Curve, error) {
	strategies := []core.Strategy{core.Vertical, core.Horizontal, core.Naive}
	curves := make([]Curve, len(strategies))
	for si, st := range strategies {
		curves[si].Label = st.String()
		var acc [10]float64
		for tr := 0; tr < trials; tr++ {
			cfg := dagCfg
			cfg.Seed = seed + int64(tr)
			cfg.Obs = obsv
			d, err := synth.NewDAG(cfg)
			if err != nil {
				return nil, err
			}
			mine := span("mine")
			run := &core.SingleUser{
				Space:    d.Space,
				Member:   d.Oracle(0, seed+int64(tr)),
				Theta:    0.5,
				Strategy: st,
				Seed:     seed + int64(100+tr),
				Watch:    d.Planted,
				Obs:      obsv,
			}
			r := run.Run()
			mine(obs.Attr{Key: "strategy", Val: int64(si)},
				obs.Attr{Key: "questions", Val: int64(r.Stats.Questions)})
			c := discoveryCurve(r.Stats.WatchDiscoveredAt)
			for i := range acc {
				acc[i] += c[i]
			}
		}
		for i := range acc {
			curves[si].QuestionsAt[i] = acc[i] / float64(trials)
		}
	}
	return curves, nil
}

// LazinessResult quantifies the Section 6.4 laziness claim: the lazy
// generator materializes a vanishing fraction of the eager DAG "up to the
// same multiplicity".
type LazinessResult struct {
	Width, Depth int
	MultiSize    int
	// Generated is the number of assignments the lazy run materialized.
	Generated int
	// MaxSetSize is the largest value-set size the run explored (planted
	// multiplicity size + 1: the algorithm probes one step beyond an MSP
	// to confirm maximality).
	MaxSetSize int
	// Eager estimates the eager node count up to MaxSetSize: all
	// antichain value sets of size ≤ MaxSetSize (sampled for size ≥ 3).
	Eager        float64
	GeneratedPct float64
}

// Laziness measures lazily generated vs eager node counts on a multiplicity
// DAG run.
func Laziness(dagCfg synth.DAGConfig, seed int64) (*LazinessResult, error) {
	if dagCfg.MultiMSPPercent <= 0 {
		dagCfg.MultiMSPPercent = 0.02
	}
	if dagCfg.MultiMSPSize < 2 {
		dagCfg.MultiMSPSize = 2
	}
	dagCfg.Obs = obsv
	d, err := synth.NewDAG(dagCfg)
	if err != nil {
		return nil, err
	}
	r := (&core.SingleUser{
		Space: d.Space, Member: d.Oracle(0, seed), Theta: 0.5, Seed: seed, Obs: obsv,
	}).Run()
	maxSize := dagCfg.MultiMSPSize + 1
	eager := eagerAntichains(d, maxSize, seed)
	return &LazinessResult{
		Width: dagCfg.Width, Depth: dagCfg.Depth, MultiSize: dagCfg.MultiMSPSize,
		Generated:    r.Stats.Generated,
		MaxSetSize:   maxSize,
		Eager:        eager,
		GeneratedPct: 100 * float64(r.Stats.Generated) / eager,
	}, nil
}

// eagerAntichains estimates the number of antichain value sets of size up to
// maxSize over the DAG nodes: C(n,k) times the sampled probability that a
// random k-subset is an antichain.
func eagerAntichains(d *synth.DAG, maxSize int, seed int64) float64 {
	valid := d.Space.Valid()
	n := len(valid)
	rng := rand.New(rand.NewSource(seed))
	total := float64(n) // size-1 sets
	for k := 2; k <= maxSize; k++ {
		const samples = 20000
		hits := 0
		idx := make([]int, k)
		for s := 0; s < samples; s++ {
			distinct := true
			for i := range idx {
				idx[i] = rng.Intn(n)
				for j := 0; j < i; j++ {
					if idx[j] == idx[i] {
						distinct = false
					}
				}
			}
			if !distinct {
				continue
			}
			anti := true
			for i := 0; i < k && anti; i++ {
				for j := i + 1; j < k; j++ {
					a, b := valid[idx[i]], valid[idx[j]]
					if d.Space.Leq(a, b) || d.Space.Leq(b, a) {
						anti = false
						break
					}
				}
			}
			if anti {
				hits++
			}
		}
		// C(n, k)
		comb := 1.0
		for i := 0; i < k; i++ {
			comb *= float64(n-i) / float64(i+1)
		}
		total += comb * float64(hits) / float64(samples)
	}
	return total
}

// SweepRow is one row of the Section 6.4 shape/distribution sweeps.
type SweepRow struct {
	Label     string
	Questions int
	MSPs      int
}

// ShapeSweep varies DAG width and depth at fixed MSP density, showing the
// paper's observation that shape does not change the trends.
func ShapeSweep(widths, depths []int, mspPct float64, seed int64) ([]SweepRow, error) {
	var rows []SweepRow
	for _, w := range widths {
		for _, dep := range depths {
			d, err := synth.NewDAG(synth.DAGConfig{
				Width: w, Depth: dep, MSPPercent: mspPct, Seed: seed, Obs: obsv,
			})
			if err != nil {
				return nil, err
			}
			r := (&core.SingleUser{
				Space: d.Space, Member: d.Oracle(0, seed), Theta: 0.5, Seed: seed, Obs: obsv,
			}).Run()
			rows = append(rows, SweepRow{
				Label:     fmt.Sprintf("width=%d depth=%d", w, dep),
				Questions: r.Stats.Questions,
				MSPs:      len(r.MSPs),
			})
		}
	}
	return rows, nil
}

// MultiplicitySweep checks the Section 6.4 claim that "the number of
// questions depends on the % of MSPs, and not on whether they include
// multiplicities": the same total MSP budget is planted as singletons only,
// then partly as multiplicity sets, and the question counts are compared.
func MultiplicitySweep(width, depth int, mspPct float64, seed int64) ([]SweepRow, error) {
	var rows []SweepRow
	for _, multi := range []struct {
		label string
		pct   float64
		size  int
	}{
		{"singletons only", 0, 0},
		{"1% multiplicity size 2", 0.01, 2},
		{"2% multiplicity size 3", 0.02, 3},
	} {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: width, Depth: depth,
			MSPPercent:      mspPct,
			MultiMSPPercent: multi.pct,
			MultiMSPSize:    multi.size,
			Seed:            seed,
			Obs:             obsv,
		})
		if err != nil {
			return nil, err
		}
		r := (&core.SingleUser{
			Space: d.Space, Member: d.Oracle(0, seed), Theta: 0.5, Seed: seed, Obs: obsv,
		}).Run()
		rows = append(rows, SweepRow{
			Label:     multi.label,
			Questions: r.Stats.Questions,
			MSPs:      len(r.MSPs),
		})
	}
	return rows, nil
}

// DistributionSweep varies the planted-MSP distribution.
func DistributionSweep(dagCfg synth.DAGConfig, seed int64) ([]SweepRow, error) {
	var rows []SweepRow
	for _, dist := range []synth.Distribution{synth.Uniform, synth.Near, synth.Far} {
		cfg := dagCfg
		cfg.Distribution = dist
		cfg.Obs = obsv
		d, err := synth.NewDAG(cfg)
		if err != nil {
			return nil, err
		}
		r := (&core.SingleUser{
			Space: d.Space, Member: d.Oracle(0, seed), Theta: 0.5, Seed: seed, Obs: obsv,
		}).Run()
		rows = append(rows, SweepRow{
			Label:     dist.String(),
			Questions: r.Stats.Questions,
			MSPs:      len(r.MSPs),
		})
	}
	return rows, nil
}

// EagerNodes counts the multiplicity-1 closure of the space: every distinct
// value of each mining variable across 𝒜valid plus all its generalizations,
// multiplied across variables. This is the "DAG node count" the paper
// reports (4773 / 10512 / 2307 for the three domains).
func EagerNodes(sp *assign.Space) int {
	v := sp.Vocabulary()
	n := 1
	for _, vs := range sp.Vars() {
		seen := map[vocab.TermID]bool{}
		for _, a := range sp.Valid() {
			vals := a.Values(vs.Name)
			if len(vals) != 1 {
				continue
			}
			if seen[vals[0]] {
				continue
			}
			seen[vals[0]] = true
			if vs.Kind == vocab.Element {
				for _, anc := range v.ElementAncestors(vals[0]) {
					seen[anc] = true
				}
			}
		}
		if len(seen) > 0 {
			n *= len(seen)
		}
	}
	return n
}
