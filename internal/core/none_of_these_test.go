package core_test

import (
	"fmt"
	"testing"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/synth"
)

// noneMember answers concrete questions like its inner member but always
// replies "none of these" to a specialization question, adding the
// question's free answers (options − 1) to *free.
type noneMember struct {
	crowd.Member
	id   string
	free *int
}

func (m noneMember) ID() string { return m.id }

func (m noneMember) AskSpecialize(_ ontology.FactSet, cands []ontology.FactSet) (int, crowd.Response) {
	*m.free += len(cands) - 1
	return -1, crowd.Response{}
}

// TestNoneOfTheseCountedOnce: one "none of these" reply over n options
// costs one question and settles n answers, so n−1 of them are free. The
// Stats counter and the kernel's inferred metric must both say so, for the
// multi-user engine and for every single-member strategy.
func TestNoneOfTheseCountedOnce(t *testing.T) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 20, Depth: 4, MSPPercent: 0.08, Places: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	theta := d.Query.Satisfying.Support
	check := func(t *testing.T, res *core.Result, o *obs.Observer, free int) {
		t.Helper()
		if res.Stats.NoneOfThese == 0 {
			t.Fatal("no specialization question was answered none of these")
		}
		if res.Stats.AutoAnswers != free {
			t.Errorf("AutoAnswers = %d, want Σ(options−1) = %d", res.Stats.AutoAnswers, free)
		}
		if got := o.Kernel.Inferred.Value(); got != int64(free) {
			t.Errorf("inferred counter = %d, want Σ(options−1) = %d", got, free)
		}
	}
	t.Run("engine", func(t *testing.T) {
		free := 0
		pool := make([]crowd.Member, 3)
		for i := range pool {
			pool[i] = noneMember{Member: d.Oracle(0, int64(i+1)), id: fmt.Sprintf("m%d", i), free: &free}
		}
		o := obs.New()
		res := core.NewEngine(d.Space, pool, core.EngineConfig{
			Theta:               theta,
			Aggregator:          crowd.NewMeanAggregator(2, theta),
			SpecializationRatio: 1,
			Seed:                3,
			Obs:                 o,
		}).Run()
		check(t, res, o, free)
	})
	for _, st := range []core.Strategy{core.Vertical, core.Horizontal, core.Naive} {
		t.Run(st.String(), func(t *testing.T) {
			free := 0
			o := obs.New()
			res := (&core.SingleUser{
				Space:               d.Space,
				Member:              noneMember{Member: d.Oracle(0, 1), id: "solo", free: &free},
				Theta:               theta,
				Strategy:            st,
				SpecializationRatio: 1,
				Seed:                3,
				Obs:                 o,
			}).Run()
			if st != core.Vertical {
				// Only Algorithm 1 poses specialization questions.
				if res.Stats.SpecialQ != 0 || res.Stats.AutoAnswers != 0 {
					t.Errorf("%s: %d specialization questions, %d auto-answers; want none",
						st, res.Stats.SpecialQ, res.Stats.AutoAnswers)
				}
				return
			}
			check(t, res, o, free)
		})
	}
}
