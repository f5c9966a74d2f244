package exp

import (
	"fmt"
	"strings"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// Section 6.3 reports wall-clock behaviour: "As our user base kept growing
// between subsequent queries, a speedup was observed in finding the first
// MSP, which dropped from 28 minutes to less than 4, and in completing the
// execution, which dropped from 36 hours to less than 10." The experiment
// here reproduces the shape: the same query runs against growing member
// pools, and question counts are converted to simulated wall-clock time
// under a simple latency model — members answer concurrently, one question
// at a time, with a fixed mean think-time per answer.

// GrowthRow is one crowd size of the growth study.
type GrowthRow struct {
	Members int
	// QuestionsToFirstMSP and QuestionsTotal count crowd questions.
	QuestionsToFirstMSP int
	QuestionsTotal      int
	// FirstMSPMinutes and TotalHours are simulated wall-clock times under
	// the latency model.
	FirstMSPMinutes float64
	TotalHours      float64
}

// LatencyModel converts question counts into simulated time.
type LatencyModel struct {
	// MeanAnswerSeconds is the average time a member takes per answer
	// (browsing to the site, reading, answering).
	MeanAnswerSeconds float64
	// ActiveFraction is the share of the member pool answering at any
	// moment (a crowd is never all online at once).
	ActiveFraction float64
}

// DefaultLatency roughly matches the paper's observed rates: with ~250
// members, ~1400 questions complete in tens of hours.
var DefaultLatency = LatencyModel{MeanAnswerSeconds: 90, ActiveFraction: 0.02}

// seconds converts a question count to simulated seconds for a pool size.
func (m LatencyModel) seconds(questions, members int) float64 {
	active := float64(members) * m.ActiveFraction
	if active < 1 {
		active = 1
	}
	return float64(questions) * m.MeanAnswerSeconds / active
}

// CrowdGrowth runs one domain query against growing member pools and
// reports the questions and simulated time to the first MSP and to
// completion.
func CrowdGrowth(cfg synth.DomainConfig, sizes []int, model LatencyModel, seed int64) ([]GrowthRow, error) {
	var rows []GrowthRow
	for _, n := range sizes {
		dcfg := cfg
		dcfg.Members = n
		dcfg.Obs = obsv
		d, err := synth.NewDomain(dcfg)
		if err != nil {
			return nil, err
		}
		theta := d.Query.Satisfying.Support
		firstMSPAt := -1
		eng := core.NewEngine(d.Space, d.Members, core.EngineConfig{
			Theta:      theta,
			Aggregator: crowd.NewMeanAggregator(aggK, theta),
			Seed:       seed,
			Obs:        obsv,
		})
		res := eng.Run()
		for _, p := range res.Stats.Progress {
			if p.MSPs > 0 {
				firstMSPAt = p.Questions
				break
			}
		}
		if firstMSPAt < 0 {
			firstMSPAt = res.Stats.Questions
		}
		rows = append(rows, GrowthRow{
			Members:             n,
			QuestionsToFirstMSP: firstMSPAt,
			QuestionsTotal:      res.Stats.Questions,
			FirstMSPMinutes:     model.seconds(firstMSPAt, n) / 60,
			TotalHours:          model.seconds(res.Stats.Questions, n) / 3600,
		})
	}
	return rows, nil
}

// RenderGrowth formats the growth study.
func RenderGrowth(domain string, rows []GrowthRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Crowd growth — %s (paper: first MSP 28min → <4min, completion 36h → <10h as the user base grew)\n", domain)
	fmt.Fprintf(&b, "%8s %14s %12s %14s %12s\n",
		"#members", "q(first MSP)", "q(total)", "first MSP", "completion")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14d %12d %11.1f min %9.1f h\n",
			r.Members, r.QuestionsToFirstMSP, r.QuestionsTotal,
			r.FirstMSPMinutes, r.TotalHours)
	}
	return b.String()
}
