package core_test

import (
	"fmt"
	"testing"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/synth"
)

// TestPropertyChaosRunsStaySound is the chaos soundness property: over
// random synthetic spaces (the Section 6.4 DAG generator, as in
// internal/assign/property_test.go) and random fault mixes — members
// departing mid-run, members answering inconsistently, heavy-tailed
// latency — every run terminates and reports a sound antichain: each
// reported MSP carries aggregated support ≥ θ from the answers actually
// collected, and no reported MSP is dominated by another.
func TestPropertyChaosRunsStaySound(t *testing.T) {
	const theta = 0.5
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, err := synth.NewDAG(synth.DAGConfig{
				Width: 14, Depth: 3, MSPPercent: 0.06,
				MultiMSPPercent: 0.02, MultiMSPSize: 2, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			clock := chaos.NewVirtualClock()
			// Six oracle clones; the fault mix rotates with the seed so the
			// six subtests cover departure-heavy, contradiction-heavy and
			// mixed crowds.
			members := make([]crowd.Member, 6)
			for i := range members {
				f := chaos.Faults{
					Seed:       seed*100 + int64(i),
					ID:         fmt.Sprintf("oracle-%d", i),
					LatencyMin: time.Second,
					LatencyMax: time.Minute,
				}
				switch (int(seed) + i) % 3 {
				case 0:
					f.DepartAfter = 3 + i
				case 1:
					f.ContradictProb = 0.2
					f.HeavyTailAlpha = 1.3
				case 2:
					f.DepartProb = 0.02
				}
				members[i] = chaos.Wrap(d.Oracle(0, seed+int64(i)), clock, f)
			}
			eng := core.NewEngine(d.Space, members, core.EngineConfig{
				Theta:      theta,
				Aggregator: crowd.NewMeanAggregator(3, theta),
				Seed:       seed,
			})
			var res *core.Result
			if seed%2 == 0 {
				res = runConcurrent(eng, seed)
			} else {
				res = eng.Run()
			}
			assertSoundAntichain(t, d.Space, res, theta)
			for _, m := range res.MSPs {
				if _, ok := res.SupportOf(m); !ok {
					t.Errorf("MSP %s reported with no recorded support", m.Key())
				}
			}
		})
	}
}
