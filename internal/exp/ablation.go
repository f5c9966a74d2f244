package exp

import (
	"fmt"
	"strings"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// AblationRow is one configuration of the robustness ablation.
type AblationRow struct {
	Label     string
	Questions int
	MSPs      int
	// Agreement is the fraction of valid assignments classified the same
	// way (significant or not) as in the clean-crowd reference run.
	Agreement float64
	Flagged   int
}

// AggregatorAblation studies the design choices behind the Section 4.2
// black-box: it contaminates a domain crowd with spammers and compares the
// mean, majority and trust-weighted(+consistency filter) aggregators
// against a clean-crowd reference. This is the ablation DESIGN.md calls out
// for the pluggable-aggregation decision.
func AggregatorAblation(cfg synth.DomainConfig, spammers int, seed int64) ([]AblationRow, error) {
	cfg.Obs = obsv
	d, err := synth.NewDomain(cfg)
	if err != nil {
		return nil, err
	}
	theta := d.Query.Satisfying.Support

	// Reference: honest crowd, paper aggregator.
	ref := core.NewEngine(d.Space, d.Members, core.EngineConfig{
		Theta:      theta,
		Aggregator: crowd.NewMeanAggregator(aggK, theta),
		Seed:       seed,
		Obs:        obsv,
	}).Run()
	refClass := classifyValid(d, ref)
	rows := []AblationRow{{
		Label:     "clean crowd / mean",
		Questions: ref.Stats.Questions,
		MSPs:      len(ref.ValidMSPs),
		Agreement: 1,
	}}

	noisy := append([]crowd.Member{}, d.Members...)
	for i := 0; i < spammers; i++ {
		noisy = append(noisy, crowd.NewSpammer(fmt.Sprintf("spam-%d", i), seed+int64(i)))
	}
	type variant struct {
		label       string
		agg         crowd.Aggregator
		consistency bool
		calibration int
	}
	for _, vr := range []variant{
		{"spammed / mean", crowd.NewMeanAggregator(aggK, theta), false, 0},
		{"spammed / majority", crowd.NewMajorityAggregator(aggK, theta), false, 0},
		{"spammed / trust+filter", crowd.NewTrustWeightedAggregator(aggK, theta), true, 6},
	} {
		eng := core.NewEngine(d.Space, noisy, core.EngineConfig{
			Theta:                theta,
			Aggregator:           vr.agg,
			Consistency:          vr.consistency,
			CalibrationQuestions: vr.calibration,
			Seed:                 seed,
			Obs:                  obsv,
		})
		res := eng.Run()
		rows = append(rows, AblationRow{
			Label:     vr.label,
			Questions: res.Stats.Questions,
			MSPs:      len(res.ValidMSPs),
			Agreement: agreement(refClass, classifyValid(d, res)),
			Flagged:   len(eng.FlaggedSpammers()),
		})
	}
	return rows, nil
}

// classifyValid derives, from a run's MSP border, the significance of every
// valid assignment: a is significant iff it generalizes some MSP.
func classifyValid(d *synth.Domain, r *core.Result) []bool {
	out := make([]bool, len(d.Space.Valid()))
	for i, a := range d.Space.Valid() {
		for _, m := range r.MSPs {
			if d.Space.Leq(a, m) {
				out[i] = true
				break
			}
		}
	}
	return out
}

func agreement(a, b []bool) float64 {
	if len(a) == 0 {
		return 1
	}
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// RenderAblation formats the robustness ablation.
func RenderAblation(domain string, spammers int, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Aggregator robustness ablation — %s crowd + %d spammers\n", domain, spammers)
	fmt.Fprintf(&b, "%-26s %11s %6s %10s %8s\n", "configuration", "#questions", "#MSPs", "agreement", "flagged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %11d %6d %9.1f%% %8d\n",
			r.Label, r.Questions, r.MSPs, 100*r.Agreement, r.Flagged)
	}
	return b.String()
}
