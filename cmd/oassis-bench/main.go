// Command oassis-bench regenerates the data series behind every figure and
// in-text experimental claim of the OASSIS paper's evaluation (Section 6).
//
// Usage:
//
//	oassis-bench -fig all                  # everything (minutes)
//	oassis-bench -fig 4a                   # one figure
//	oassis-bench -fig 5b -quick            # scaled-down configuration
//	oassis-bench -fig 5a -trace out.jsonl  # + per-phase trace spans
//	oassis-bench -fig chaos -metrics       # + Prometheus metrics dump
//	oassis-bench -fig none -explain        # query plans only, no figures
//
// Figures: 4a 4b 4c (crowd statistics per domain), 4d 4e (pace of data
// collection), 4f (answer-type ratios), 5a 5b 5c (vertical vs horizontal vs
// naive at 2%/5%/10% MSP density), text63 (Section 6.3 claims), text64
// (Section 6.4 sweeps and laziness), chaos (departure-rate resilience
// sweep on a virtual clock). The paper's figure numbers 9/10/11 are
// accepted as aliases for 5a/5b/5c.
//
// -metrics, -trace and -explain attach an Observer to the harness: every
// engine run feeds the kernel/broker metric families, every synth query
// pipeline feeds the sparql family, and each figure's build/mine/round
// spans land in the trace under the figure ID as phase.
package main

import (
	"flag"
	"fmt"
	"os"

	"oassis/internal/exp"
	"oassis/internal/obs"
	"oassis/internal/synth"
)

type config struct {
	members   int
	dagWidth  int
	dagDepth  int
	trials    int
	lazyWidth int
	seed      int64
}

// newConfig returns the figure harness configuration: full scale, or the
// scaled-down -quick one.
func newConfig(quick bool, seed int64) config {
	if quick {
		return config{members: 40, dagWidth: 100, dagDepth: 5, trials: 3, lazyWidth: 80, seed: seed}
	}
	return config{members: 248, dagWidth: 500, dagDepth: 7, trials: 6, lazyWidth: 150, seed: seed}
}

func main() {
	var (
		fig        = flag.String("fig", "all", "figure id: 4a 4b 4c 4d 4e 4f 5a 5b 5c text63 text64 growth ablation chaos all none (9/10/11 alias 5a/5b/5c)")
		quick      = flag.Bool("quick", false, "scaled-down configuration (seconds instead of minutes)")
		members    = flag.Int("members", 0, "override the synthetic crowd size (0 = figure default: 248, or 40 with -quick)")
		seed       = flag.Int64("seed", 1, "random seed")
		metrics    = flag.Bool("metrics", false, "print a Prometheus-text metrics dump after the run")
		traceOut   = flag.String("trace", "", "write per-phase trace spans to this JSONL `file`")
		journalOut = flag.String("journal", "", "record the kernel flight-recorder event stream as JSONL to this `file` (implies an observer)")
		explain    = flag.Bool("explain", false, "print the compiled WHERE plans of the three evaluation domains")

		fleet        = flag.Bool("fleet", false, "run the ingestion + query-fleet benchmark instead of paper figures")
		fleetScale   = flag.String("fleet-scale", "million", "fleet ontology scale: million or smoke")
		fleetQueries = flag.Int("fleet-queries", 1200, "distinct queries in the fleet")
		fleetExecs   = flag.Int("fleet-execs", 5000, "total query executions (Zipf-skewed over the fleet)")
		fleetWorkers = flag.Int("fleet-workers", 0, "fleet execution workers (0 = GOMAXPROCS)")
		fleetMine    = flag.Int("fleet-mine", 0, "follow each fleet execution with a mining pass served by this many synthetic members (with -journal: per-query question attribution in the report)")
		fleetOut     = flag.String("fleet-out", "", "write the fleet benchmark report as JSON to this `file`")
	)
	flag.Parse()
	cfg := newConfig(*quick, *seed)
	if *members > 0 {
		cfg.members = *members
	}
	var o *obs.Observer
	if *metrics || *traceOut != "" || *explain || *journalOut != "" {
		// -journal implies the observer like -metrics/-trace do, so the
		// flag works standalone instead of silently recording nothing.
		o = obs.New()
		exp.SetObserver(o)
	}
	var journalFile *os.File
	if *journalOut != "" {
		f, err := os.Create(*journalOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oassis-bench:", err)
			os.Exit(1)
		}
		journalFile = f
		o.EnableJournal(0).SetSink(f)
	}
	if *fleet {
		if err := runFleetBench(*fleetScale, *fleetQueries, *fleetExecs, *fleetWorkers, *fleetMine, *seed, *fleetOut, o); err != nil {
			fmt.Fprintln(os.Stderr, "oassis-bench:", err)
			os.Exit(1)
		}
		if err := emit(o, *metrics, *traceOut, *journalOut, journalFile); err != nil {
			fmt.Fprintln(os.Stderr, "oassis-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*fig, cfg, o, *explain); err != nil {
		fmt.Fprintln(os.Stderr, "oassis-bench:", err)
		os.Exit(1)
	}
	if err := emit(o, *metrics, *traceOut, *journalOut, journalFile); err != nil {
		fmt.Fprintln(os.Stderr, "oassis-bench:", err)
		os.Exit(1)
	}
}

// emit writes the observer's trace, journal and metrics after the figures
// ran.
func emit(o *obs.Observer, metrics bool, traceOut, journalOut string, journalFile *os.File) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := o.Trace().WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: %s\n", traceOut)
	}
	if journalFile != nil {
		j := o.JournalSet()
		if err := j.Flush(); err != nil {
			return err
		}
		if err := journalFile.Close(); err != nil {
			return err
		}
		fmt.Printf("journal: %s (%d events)\n", journalOut, j.Total())
	}
	if metrics {
		fmt.Println("==== metrics ====")
		o.Reg().WritePrometheus(os.Stdout)
	}
	return nil
}

func run(fig string, cfg config, o *obs.Observer, explain bool) error {
	// The paper numbers the algorithm-comparison plots 9–11; this repo
	// labels them 5a–5c (its figure set is renumbered). Accept both.
	switch fig {
	case "9":
		fig = "5a"
	case "10":
		fig = "5b"
	case "11":
		fig = "5c"
	}
	if explain {
		o.Trace().SetPhase("explain")
		if err := explainDomains(cfg, o); err != nil {
			return err
		}
	}
	if fig == "none" {
		return nil
	}
	all := fig == "all"
	ran := false
	for _, f := range []struct {
		id string
		fn func(config) error
	}{
		{"4a", fig4a}, {"4b", fig4b}, {"4c", fig4c},
		{"4d", fig4d}, {"4e", fig4e}, {"4f", fig4f},
		{"5a", fig5a}, {"5b", fig5b}, {"5c", fig5c},
		{"text63", text63}, {"text64", text64},
		{"growth", growth}, {"ablation", ablation},
		{"chaos", chaosFig},
	} {
		if all || fig == f.id {
			ran = true
			o.Trace().SetPhase(f.id)
			fmt.Printf("==== %s ====\n", f.id)
			if err := f.fn(cfg); err != nil {
				return fmt.Errorf("fig %s: %w", f.id, err)
			}
			fmt.Println()
		}
	}
	if !ran {
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// explainDomains compiles the three evaluation-domain queries and prints
// each plan. With an observer attached the space construction runs
// observed, so the plans carry actual per-operator cardinalities next to
// the planner's estimates.
func explainDomains(cfg config, o *obs.Observer) error {
	fmt.Println("==== explain ====")
	for _, dc := range []synth.DomainConfig{
		synth.Travel(cfg.members, cfg.seed),
		synth.Culinary(cfg.members, cfg.seed+1),
		synth.SelfTreatment(cfg.members, cfg.seed+2),
	} {
		dc.Obs = o
		d, err := synth.NewDomain(dc)
		if err != nil {
			return err
		}
		fmt.Printf("-- %s --\n%s\n", dc.Name, d.Plan.Explain())
	}
	return nil
}

var thetas = []float64{0.2, 0.3, 0.4, 0.5}

func fig4a(cfg config) error {
	res, err := exp.CrowdStats(synth.Travel(cfg.members, cfg.seed), thetas, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCrowdStats(res))
	return nil
}

func fig4b(cfg config) error {
	res, err := exp.CrowdStats(synth.Culinary(cfg.members, cfg.seed+1), thetas, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCrowdStats(res))
	return nil
}

func fig4c(cfg config) error {
	res, err := exp.CrowdStats(synth.SelfTreatment(cfg.members, cfg.seed+2), thetas, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCrowdStats(res))
	return nil
}

func fig4d(cfg config) error {
	res, err := exp.Pace(synth.Travel(cfg.members, cfg.seed), 0.2, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderPace(res))
	return nil
}

func fig4e(cfg config) error {
	res, err := exp.Pace(synth.SelfTreatment(cfg.members, cfg.seed+2), 0.2, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderPace(res))
	return nil
}

func fig4f(cfg config) error {
	curves, err := exp.AnswerTypes(synth.DAGConfig{
		Width: cfg.dagWidth, Depth: cfg.dagDepth, MSPPercent: 0.02,
	}, cfg.trials, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCurves(
		fmt.Sprintf("Effect of answer types (width=%d depth=%d, 2%% MSPs, %d trials): questions to discover X%% of valid MSPs",
			cfg.dagWidth, cfg.dagDepth, cfg.trials), curves))
	return nil
}

func fig5(cfg config, pct float64) error {
	curves, err := exp.Algorithms(synth.DAGConfig{
		Width: cfg.dagWidth, Depth: cfg.dagDepth, MSPPercent: pct,
	}, cfg.trials, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderCurves(
		fmt.Sprintf("Vertical vs Horizontal vs Naive (width=%d depth=%d, %.0f%% MSPs, %d trials): questions to discover X%% of valid MSPs",
			cfg.dagWidth, cfg.dagDepth, 100*pct, cfg.trials), curves))
	return nil
}

func fig5a(cfg config) error { return fig5(cfg, 0.02) }
func fig5b(cfg config) error { return fig5(cfg, 0.05) }
func fig5c(cfg config) error { return fig5(cfg, 0.10) }

// text63 prints the Section 6.3 in-text claims: DAG sizes, questions to
// completion, MSP density, baseline fractions.
func text63(cfg config) error {
	fmt.Println("Section 6.3 in-text claims (paper: 340–1416 questions; DAGs 4773/10512/2307 nodes;")
	fmt.Println("≤24% of baseline with expansion, <5% without; ~1.2% of nodes are MSPs):")
	for i, dom := range []synth.DomainConfig{
		synth.Travel(cfg.members, cfg.seed),
		synth.Culinary(cfg.members, cfg.seed+1),
		synth.SelfTreatment(cfg.members, cfg.seed+2),
	} {
		res, err := exp.CrowdStats(dom, []float64{0.2}, cfg.seed+int64(i))
		if err != nil {
			return err
		}
		row := res.Rows[0]
		fmt.Printf("  %-15s DAG=%6d nodes  questions=%5d  baseline%%=%5.1f  MSPs=%3d (%.2f%% of nodes)  valid=%3d\n",
			res.Domain, res.DAGNodes, row.Questions, row.BaselinePct,
			row.MSPs, 100*float64(row.MSPs)/float64(res.DAGNodes), row.ValidMSPs)
	}
	return nil
}

// growth prints the Section 6.3 wall-clock claim: the first MSP arrives
// faster as the member pool grows.
func growth(cfg config) error {
	sizes := []int{cfg.members / 4, cfg.members / 2, cfg.members}
	rows, err := exp.CrowdGrowth(synth.SelfTreatment(0, cfg.seed+2), sizes, exp.DefaultLatency, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderGrowth("self-treatment", rows))
	return nil
}

// ablation prints the aggregator-robustness study (a design-choice ablation
// beyond the paper: how the pluggable Section 4.2 black-boxes behave under
// spam contamination).
func ablation(cfg config) error {
	spammers := cfg.members / 6
	rows, err := exp.AggregatorAblation(synth.SelfTreatment(cfg.members, cfg.seed+2), spammers, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderAblation("self-treatment", spammers, rows))
	return nil
}

// chaosFig prints the fault-injection resilience study: the same DAG mined
// by oracle clones on a virtual clock while a growing fraction of the
// crowd departs mid-run. Beyond the paper's evaluation, but its crowds
// behaved this way (Section 6.3 notes members coming and going).
func chaosFig(cfg config) error {
	rows, err := exp.ChaosResilience(synth.DAGConfig{
		Width: cfg.lazyWidth, Depth: cfg.dagDepth - 2, MSPPercent: 0.02,
	}, 12, []float64{0, 0.125, 0.25, 0.5}, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderChaos(rows))
	return nil
}

// text64 prints the Section 6.4 sweeps: DAG shape, MSP distribution,
// multiplicities and lazy generation.
func text64(cfg config) error {
	widths := []int{cfg.dagWidth / 2, cfg.dagWidth}
	depths := []int{cfg.dagDepth - 2, cfg.dagDepth}
	rows, err := exp.ShapeSweep(widths, depths, 0.02, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderSweep("DAG shape sweep (2% MSPs; trends are stable):", rows))
	fmt.Println()

	rows, err = exp.DistributionSweep(synth.DAGConfig{
		Width: cfg.dagWidth, Depth: cfg.dagDepth, MSPPercent: 0.02,
	}, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderSweep("MSP distribution sweep (uniform/near/far; trends are stable):", rows))
	fmt.Println()

	// Multiplicity exploration is combinatorial; a moderate DAG shows the
	// invariance without minutes of runtime.
	rows, err = exp.MultiplicitySweep(cfg.dagWidth/4, cfg.dagDepth-2, 0.02, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderSweep("Multiplicity sweep (questions track MSP count, not multiplicities):", rows))
	fmt.Println()

	lz, err := exp.Laziness(synth.DAGConfig{
		Width: cfg.lazyWidth, Depth: cfg.dagDepth, MSPPercent: 0.02,
		MultiMSPPercent: 0.02, MultiMSPSize: 2,
	}, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Print(exp.RenderLaziness(lz))
	return nil
}
