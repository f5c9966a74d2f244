// Benchmarks regenerating every figure of the OASSIS evaluation (Section 6),
// one per figure, plus micro-benchmarks of the hot paths. The figures use
// moderately scaled configurations so `go test -bench=.` completes in
// minutes; `cmd/oassis-bench` runs the full paper-scale harness and prints
// the data series.
package oassis_test

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"oassis"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/exp"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
)

// benchMembers / benchDAG scale the figure benchmarks.
const (
	benchMembers  = 60
	benchDAGWidth = 150
	benchDAGDepth = 6
	benchTrials   = 2
)

var benchThetas = []float64{0.2, 0.3, 0.4, 0.5}

// BenchmarkFig4aTravelStats regenerates the travel crowd statistics
// (Figure 4a): MSP/valid/question counts and baseline% per threshold.
func BenchmarkFig4aTravelStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.CrowdStats(synth.Travel(benchMembers, 1), benchThetas, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].Questions == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkFig4bCulinaryStats regenerates Figure 4b.
func BenchmarkFig4bCulinaryStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.CrowdStats(synth.Culinary(benchMembers, 2), benchThetas, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Rows[0].MSPs != res.Rows[0].ValidMSPs {
			b.Fatal("culinary MSPs must all be valid")
		}
	}
}

// BenchmarkFig4cSelfTreatmentStats regenerates Figure 4c.
func BenchmarkFig4cSelfTreatmentStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.CrowdStats(synth.SelfTreatment(benchMembers, 3), benchThetas, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4dPaceTravel regenerates the travel pace-of-collection curve
// (Figure 4d).
func BenchmarkFig4dPaceTravel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Pace(synth.Travel(benchMembers, 1), 0.2, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no pace points")
		}
	}
}

// BenchmarkFig4ePaceSelfTreatment regenerates Figure 4e.
func BenchmarkFig4ePaceSelfTreatment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Pace(synth.SelfTreatment(benchMembers, 3), 0.2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4fAnswerTypes regenerates the answer-type study (Figure 4f):
// specialization and pruning ratios on a synthetic DAG.
func BenchmarkFig4fAnswerTypes(b *testing.B) {
	cfg := synth.DAGConfig{Width: benchDAGWidth, Depth: benchDAGDepth, MSPPercent: 0.02}
	for i := 0; i < b.N; i++ {
		if _, err := exp.AnswerTypes(cfg, benchTrials, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Algorithms regenerates the vertical/horizontal/naive
// comparison (Figures 5a–5c) at the three MSP densities.
func BenchmarkFig5Algorithms(b *testing.B) {
	for _, pct := range []float64{0.02, 0.05, 0.10} {
		name := map[float64]string{0.02: "5a-2pct", 0.05: "5b-5pct", 0.10: "5c-10pct"}[pct]
		b.Run(name, func(b *testing.B) {
			cfg := synth.DAGConfig{Width: benchDAGWidth, Depth: benchDAGDepth, MSPPercent: pct}
			for i := 0; i < b.N; i++ {
				curves, err := exp.Algorithms(cfg, benchTrials, 9)
				if err != nil {
					b.Fatal(err)
				}
				if curves[0].QuestionsAt[1] >= curves[1].QuestionsAt[1] {
					b.Fatal("vertical should beat horizontal early")
				}
			}
		})
	}
}

// BenchmarkText63DomainRun regenerates one Section 6.3 domain run end to end.
func BenchmarkText63DomainRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.CrowdStats(synth.SelfTreatment(benchMembers, 3), []float64{0.2}, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkText64Laziness measures the lazy-vs-eager generation claim of
// Section 6.4 on a multiplicity DAG.
func BenchmarkText64Laziness(b *testing.B) {
	// Multiplicity exploration is the expensive regime; a smaller DAG
	// keeps the benchmark under a few seconds while the claim still holds.
	cfg := synth.DAGConfig{
		Width: 80, Depth: 5,
		MSPPercent: 0.02, MultiMSPPercent: 0.02, MultiMSPSize: 2,
	}
	for i := 0; i < b.N; i++ {
		res, err := exp.Laziness(cfg, 3)
		if err != nil {
			b.Fatal(err)
		}
		if res.GeneratedPct > 5 {
			b.Fatalf("laziness claim violated: %.2f%%", res.GeneratedPct)
		}
	}
}

// --- micro-benchmarks of the substrate hot paths ---

// BenchmarkWhereEvaluation measures SPARQL BGP matching on the Figure 2
// query over the Figure 1 ontology.
func BenchmarkWhereEvaluation(b *testing.B) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		b.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.QueryText, v)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oassis.NewSession(store, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryParse measures OASSIS-QL parsing.
func BenchmarkQueryParse(b *testing.B) {
	v, _, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oassis.ParseQuery(paperdata.QueryText, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupportComputation measures fact-set support over a personal DB.
func BenchmarkSupportComputation(b *testing.B) {
	v, _, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		b.Fatal(err)
	}
	du1, _ := paperdata.Table3(v)
	m := oassis.NewSimMember("u1", v, du1, 1)
	fs := oassis.NewFactSet(paperdata.Fact(v, "Sport", "doAt", "Central Park"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := m.TrueSupport(fs); s <= 0 {
			b.Fatal("zero support")
		}
	}
}

// BenchmarkEndToEndQuickstart measures a full multi-user run of the paper's
// running example.
func BenchmarkEndToEndQuickstart(b *testing.B) {
	v, store, err := oassis.LoadOntology(strings.NewReader(paperdata.OntologyText))
	if err != nil {
		b.Fatal(err)
	}
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		b.Fatal(err)
	}
	du1, du2 := paperdata.Table3(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m1 := oassis.NewSimMember("u1", v, du1, 1)
		m1.Scale = nil
		m2 := oassis.NewSimMember("u2", v, du2, 2)
		m2.Scale = nil
		session, err := oassis.NewSession(store, q, oassis.WithSeed(1),
			oassis.WithAggregator(oassis.NewMeanAggregator(2, 0.4)))
		if err != nil {
			b.Fatal(err)
		}
		res, err := session.Run([]oassis.Member{m1, m2})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.ValidMSPs) != 3 {
			b.Fatalf("valid MSPs = %d", len(res.ValidMSPs))
		}
	}
}

// BenchmarkGrowthStudy regenerates the Section 6.3 wall-clock growth claim.
func BenchmarkGrowthStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.CrowdGrowth(synth.SelfTreatment(0, 7),
			[]int{benchMembers / 2, benchMembers}, exp.DefaultLatency, 1)
		if err != nil {
			b.Fatal(err)
		}
		if rows[1].FirstMSPMinutes >= rows[0].FirstMSPMinutes {
			b.Fatal("growth speedup missing")
		}
	}
}

// BenchmarkAggregatorAblation regenerates the spam-robustness ablation.
func BenchmarkAggregatorAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := exp.AggregatorAblation(synth.SelfTreatment(benchMembers/2, 7), 5, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("ablation incomplete")
		}
	}
}

// BenchmarkEngineThroughput measures raw mining-kernel throughput over a
// synthetic oracle crowd: crowd questions processed per second and heap
// allocations per question, with no I/O, latency faults or HTTP in the way.
// The numbers bracket the kernel refactor — the event-driven engine must not
// be slower than the loop it replaced.
//
// OASSIS_BENCH_OBS=1 runs the same workload with an Observer attached —
// its metrics and its journal, which records every kernel event and round
// span — for comparing disabled-vs-enabled observability cost (CI gates
// the disabled mode against its recorded baseline and the enabled mode
// against its overhead ceiling).
func BenchmarkEngineThroughput(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{
		Width: 60, Depth: 4, MSPPercent: 0.05, Places: 3, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	var obsr *oassis.Observer
	if os.Getenv("OASSIS_BENCH_OBS") == "1" {
		obsr = oassis.NewObserver()
	}
	theta := d.Query.Satisfying.Support
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	questions := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := make([]crowd.Member, 4)
		for j := range pool {
			pool[j] = d.Oracle(0, int64(j+1))
		}
		res := core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:               theta,
			Aggregator:          crowd.NewMeanAggregator(3, theta),
			SpecializationRatio: 0.15,
			Seed:                7,
			Obs:                 obsr,
		}).Run()
		if res.Stats.Questions == 0 {
			b.Fatal("engine asked no questions")
		}
		questions += res.Stats.Questions
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(questions)/b.Elapsed().Seconds(), "questions/s")
	b.ReportMetric(float64(ms.Mallocs-startMallocs)/float64(questions), "allocs/question")
}

// BenchmarkRoundSelection isolates the kernel's per-round selection cost:
// a 1000-member crowd over a deep DAG, where most members' turns end in a
// full no-op traversal (everything reachable is already covered in
// flight), so beginRound dominates the run. A small per-member question
// cap bounds each iteration without changing the per-round selection work.
func BenchmarkRoundSelection(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{
		Width: 80, Depth: 6, MSPPercent: 0.04, Places: 2, Seed: 13,
	})
	if err != nil {
		b.Fatal(err)
	}
	theta := d.Query.Satisfying.Support
	const crowdSize = 1000
	selections := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := make([]crowd.Member, crowdSize)
		for j := range pool {
			pool[j] = namedOracle{Member: d.Oracle(0, int64(j+1)), id: fmt.Sprintf("m%03d", j)}
		}
		res := core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:                 theta,
			Aggregator:            crowd.NewMeanAggregator(3, theta),
			SpecializationRatio:   0.15,
			MaxQuestionsPerMember: 4,
			Seed:                  7,
		}).Run()
		if res.Stats.Rounds == 0 {
			b.Fatal("engine ran no rounds")
		}
		selections += res.Stats.Rounds * crowdSize
	}
	b.ReportMetric(float64(selections)/b.Elapsed().Seconds(), "memberselects/s")
}
