package main

import (
	"runtime"
	"time"

	"oassis"
	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/oassisql"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

// dagQueryText is the Section 6.4 DAG query (the travel-shaped query
// synth.NewDAG builds its space from), posed as text at threshold 0.5.
const dagQueryText = "SELECT FACT-SETS WHERE $y subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = 0.5"

const (
	mineWidth   = 500
	mineMembers = 64
	mineDAGs    = 8
	singleWidth = 500
	singleDAGs  = 6
)

// dagInput is one generated DAG with its simulated crowd knowledge and the
// MSP set a run at threshold 0.5 must find.
type dagInput struct {
	d    *synth.DAG
	o    *oracle
	want map[string]bool
}

// newDAGInputs generates n DAGs of the given width from sub-seeds of the
// run's seed. A run cycles through all of them, so its figures average
// over DAG shapes instead of hanging on one draw.
func newDAGInputs(cfg config, width, n, weakEvery int) ([]dagInput, map[string]any, error) {
	dc := synth.DAGConfig{Width: width, Depth: 7, MSPPercent: 0.02}
	if cfg.smoke {
		dc.Width, dc.Depth, n = 40, 4, 2
	}
	out := make([]dagInput, n)
	for j := range out {
		dc.Seed = cfg.seed*1000 + int64(j)
		d, err := synth.NewDAG(dc)
		if err != nil {
			return nil, nil, err
		}
		out[j] = dagInput{d: d, o: newOracle(d, weakEvery), want: plantedKeys(d, weakEvery, 0.5)}
	}
	params := map[string]any{"dags": n, "width": dc.Width, "depth": dc.Depth, "msp_percent": dc.MSPPercent}
	return out, params, nil
}

// tally accumulates the per-run counters the mining workloads report.
type tally struct {
	runs, questions, rounds, asked, auto float64
	edgeHits, edgeMiss, nodes            float64
	allocs, allocBytes, allocQuestions   float64
	mining                               time.Duration // wall time inside the engine's runs
}

func (t *tally) add(st core.Stats, sp assign.SpaceStats) {
	t.runs++
	t.questions += float64(st.Questions)
	t.rounds += float64(st.Rounds)
	t.asked += float64(st.Asked)
	t.auto += float64(st.AutoAnswers)
	t.edgeHits += float64(sp.EdgeHits)
	t.edgeMiss += float64(sp.EdgeMisses)
	t.nodes += float64(sp.Nodes)
}

// measureAllocs runs f and, when on, adds its heap allocations to the
// tally against questions(). ReadMemStats stops the world, so traced runs
// measure allocations only on their untraced units.
func (t *tally) measureAllocs(on bool, f func(), questions func() int) {
	if !on {
		f()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	t.allocs += float64(after.Mallocs - before.Mallocs)
	t.allocBytes += float64(after.TotalAlloc - before.TotalAlloc)
	t.allocQuestions += float64(questions())
}

func (t *tally) report(rep *report, p *probe, dags []dagInput, cold0 []int64) {
	rep.layer["core.crowd_questions"] = ratio(t.questions, t.runs)
	rep.layer["core.rounds"] = ratio(t.rounds, t.runs)
	rep.layer["core.asks_per_round"] = ratio(t.asked, t.rounds)
	rep.layer["core.auto_answer_ratio"] = ratio(t.auto, t.questions+t.auto)
	rep.layer["core.allocs_per_question"] = ratio(t.allocs, t.allocQuestions)
	rep.layer["core.bytes_per_question"] = ratio(t.allocBytes, t.allocQuestions)
	rep.layer["assign.edge_cache_hit_ratio"] = ratio(t.edgeHits, t.edgeHits+t.edgeMiss)
	rep.layer["assign.nodes"] = ratio(t.nodes, t.runs)
	rep.layer["crowd.answer_share"] = ratio(float64(p.inCrowd), float64(t.mining))
	var cold int64
	for j, in := range dags {
		cold += in.d.Store.ClosureStats().Cold - cold0[j]
	}
	rep.layer["ontology.closure_cold"] = float64(cold)
}

// setupReps is how many times set-up is timed per DAG. A session build
// takes about 10 ms, too little to time once.
const setupReps = 3

// timeSetups times build setupReps times per DAG, after a GC, so garbage
// from input generation is not collected inside a timed build.
func timeSetups(rep *report, dags []dagInput, build func(dagInput) error) error {
	runtime.GC()
	for r := 0; r < setupReps; r++ {
		for _, in := range dags {
			start := time.Now()
			err := build(in)
			rep.setups = append(rep.setups, time.Since(start))
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func closureCold(dags []dagInput) []int64 {
	out := make([]int64, len(dags))
	for j, in := range dags {
		out[j] = in.d.Store.ClosureStats().Cold
	}
	return out
}

// runMine mines Section 6.4 DAGs through oassis.Session.Run with 64 oracle
// members and the default K=5 mean aggregator. Each op poses the query
// afresh: parse, a new Session (plan-cache compile, streamed WHERE, space
// build), then the run. Set-up is building each DAG's first session.
func runMine(cfg config, tr *tracer) (*report, error) {
	nMembers := mineMembers
	if cfg.smoke {
		nMembers = 8
	}
	dags, params, err := newDAGInputs(cfg, mineWidth, mineDAGs, 0)
	if err != nil {
		return nil, err
	}
	params["members"], params["k"], params["setup_reps"] = nMembers, 5, setupReps
	rep := newReport(params)
	p := &probe{roundGaps: true}

	pose := func(ot *opTrace, root int32, in dagInput) (*oassis.Session, error) {
		s := ot.begin(root, "oassisql.parse")
		q, err := oassisql.Parse(dagQueryText, in.d.Vocab)
		ot.end(s)
		if err != nil {
			return nil, err
		}
		s = ot.begin(root, "assign.space")
		defer ot.end(s)
		return oassis.NewSession(in.d.Store, q, oassis.WithSeed(cfg.seed))
	}
	if err := timeSetups(rep, dags, func(in dagInput) error {
		_, err := pose(nil, -1, in)
		return err
	}); err != nil {
		return nil, err
	}

	var t tally
	cold0 := closureCold(dags)
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		in := dags[tr.input(i, len(dags))]
		members := newMembers(nMembers, in.o, p)
		traced := tr.traceUnit(i)
		ot := tr.startOp(traced)
		root := ot.begin(-1, "op")
		start := time.Now()
		sess, err := pose(ot, root, in)
		var res *oassis.Result
		var runDur time.Duration
		mark := len(p.think)
		if err == nil {
			s := ot.begin(root, "core.run")
			p.reset(ot, s)
			t.measureAllocs(tr.on && !traced, func() {
				runStart := time.Now()
				res, err = sess.Run(members)
				runDur = time.Since(runStart)
			}, func() int { return res.Stats.Questions })
			ot.end(s)
		}
		lat := time.Since(start)
		ot.end(root)

		rep.attempted++
		if err != nil {
			rep.fail(cfg, "mine run %d: %v", i, err)
			continue
		}
		if !sameKeys(res.MSPs, in.want) {
			rep.fail(cfg, "mine run %d: found %d MSPs, want the %d planted", i, len(res.MSPs), len(in.want))
		}
		rep.unit(traced, lat)
		rep.opLat = append(rep.opLat, p.think[mark:])
		rep.queryRates = append(rep.queryRates, 1/lat.Seconds())
		rep.opRates = append(rep.opRates, float64(res.Stats.Questions)/runDur.Seconds())
		t.mining += runDur
		t.add(res.Stats, sess.SpaceStats())
	}
	t.report(rep, p, dags, cold0)
	logf(cfg, "mine: %v runs over %d DAGs, %.0f questions and %.1f rounds per run, %d think samples",
		t.runs, len(dags), ratio(t.questions, t.runs), ratio(t.rounds, t.runs), len(p.think))
	return rep, nil
}

// runSingle mines the same DAG shape with one oracle member through
// core.SingleUser, running Algorithm 1 (Vertical) and the Horizontal and
// Naive baselines in turn (the paper's Fig. 5a). Each strategy run poses
// the query afresh: parse, compile through the plan cache, build a fresh
// space, mine. A cycle of all three strategies on one DAG is one
// traced/untraced unit.
func runSingle(cfg config, tr *tracer) (*report, error) {
	dags, params, err := newDAGInputs(cfg, singleWidth, singleDAGs, 0)
	if err != nil {
		return nil, err
	}
	params["members"], params["strategies"], params["setup_reps"] = 1, "vertical,horizontal,naive", setupReps
	rep := newReport(params)
	p := &probe{}

	pose := func(ot *opTrace, root int32, in dagInput) (*assign.Space, int, error) {
		s := ot.begin(root, "oassisql.parse")
		q, err := oassisql.Parse(dagQueryText, in.d.Vocab)
		ot.end(s)
		if err != nil {
			return nil, 0, err
		}
		ev := sparql.NewEvaluator(in.d.Store).UseSharedCache()
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
	if err := timeSetups(rep, dags, func(in dagInput) error {
		_, _, err := pose(nil, -1, in)
		return err
	}); err != nil {
		return nil, err
	}

	strategies := []core.Strategy{core.Vertical, core.Horizontal, core.Naive}
	think := make([][]time.Duration, len(strategies))
	questions := make([]float64, len(strategies))
	var t tally
	var rows, valid float64
	cache := func() (hits, misses int64) {
		for _, in := range dags {
			h, m, _ := sparql.SharedPlanCache(in.d.Store).Stats()
			hits, misses = hits+h, misses+m
		}
		return hits, misses
	}
	h0, m0 := cache()
	cold0 := closureCold(dags)
	deadline := time.Now().Add(cfg.window)
	for c := 0; time.Now().Before(deadline); c++ {
		in := dags[tr.input(c, len(dags))]
		m := newMembers(1, in.o, p)[0]
		traced := tr.traceUnit(c)
		cycleStart := time.Now()
		cycleMark := len(p.think)
		var cycleQs float64
		var cycleMining time.Duration
		for si, strat := range strategies {
			ot := tr.startOp(traced)
			root := ot.begin(-1, "op")
			space, streamed, err := pose(ot, root, in)
			var res *core.Result
			var runDur time.Duration
			if err == nil {
				s := ot.begin(root, "core."+strat.String())
				p.reset(ot, s)
				mark := len(p.think)
				t.measureAllocs(tr.on && !traced, func() {
					runStart := time.Now()
					res = (&core.SingleUser{
						Space: space, Member: m, Theta: 0.5, Strategy: strat,
						SpecializationRatio: 0.12, Seed: cfg.seed,
					}).Run()
					runDur = time.Since(runStart)
				}, func() int { return res.Stats.Questions })
				ot.end(s)
				think[si] = append(think[si], p.think[mark:]...)
			}
			ot.end(root)

			rep.attempted++
			if err != nil {
				rep.fail(cfg, "single %s: %v", strat, err)
				continue
			}
			if !sameKeys(res.MSPs, in.want) {
				rep.fail(cfg, "single %s: found %d MSPs, want the %d planted", strat, len(res.MSPs), len(in.want))
			}
			cycleQs += float64(res.Stats.Questions)
			cycleMining += runDur
			t.mining += runDur
			questions[si] += float64(res.Stats.Questions)
			rows += float64(streamed)
			sp := space.Stats()
			valid += float64(sp.Valid)
			t.add(res.Stats, sp)
		}
		cycleLat := time.Since(cycleStart)
		rep.unit(traced, cycleLat)
		rep.opLat = append(rep.opLat, p.think[cycleMark:])
		rep.queryRates = append(rep.queryRates, float64(len(strategies))/cycleLat.Seconds())
		rep.opRates = append(rep.opRates, ratio(cycleQs, cycleMining.Seconds()))
	}
	t.report(rep, p, dags, cold0)

	cycles := t.runs / float64(len(strategies))
	for si, strat := range strategies {
		rep.layer["core."+strat.String()+"_think_p50_us"] = float64(median(think[si])) / float64(time.Microsecond)
		rep.layer["core."+strat.String()+"_questions"] = ratio(questions[si], cycles)
	}
	h1, m1 := cache()
	hits, misses := float64(h1-h0), float64(m1-m0)
	rep.layer["sparql.plan_cache_hits"] = hits
	rep.layer["sparql.plan_cache_misses"] = misses
	rep.layer["sparql.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	rep.layer["sparql.rows_streamed"] = rows
	rep.layer["sparql.rows_per_valid"] = ratio(rows, valid)
	logf(cfg, "single: %v cycles over %d DAGs; questions per run V/H/N = %.0f/%.0f/%.0f",
		cycles, len(dags), ratio(questions[0], cycles), ratio(questions[1], cycles), ratio(questions[2], cycles))
	return rep, nil
}
