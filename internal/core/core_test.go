package core_test

import (
	"testing"
	"time"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/platform"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// buildSpace builds the assignment space of a query over the Figure 1
// ontology.
func buildSpace(t *testing.T, queryText string, morePool ontology.FactSet) (*assign.Space, *vocab.Vocabulary) {
	t.Helper()
	v, store := paperdata.Build()
	q, err := oassisql.Parse(queryText, v)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(store).Compile(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := assign.NewSpaceFromPlan(q, plan, morePool)
	if err != nil {
		t.Fatal(err)
	}
	return sp, v
}

// avgMember answers with the exact average support of the Table 3 members
// u1 and u2 — the u_avg of Example 4.6.
type avgMember struct {
	v        *vocab.Vocabulary
	du1, du2 []ontology.FactSet
}

func newAvgMember(v *vocab.Vocabulary) *avgMember {
	du1, du2 := paperdata.Table3(v)
	return &avgMember{v: v, du1: du1, du2: du2}
}

func (m *avgMember) ID() string { return "u_avg" }

func (m *avgMember) support(fs ontology.FactSet) float64 {
	return (ontology.Support(m.v, m.du1, fs) + ontology.Support(m.v, m.du2, fs)) / 2
}

func (m *avgMember) AskConcrete(fs ontology.FactSet) crowd.Response {
	return crowd.Response{Support: m.support(fs)}
}

func (m *avgMember) AskSpecialize(_ ontology.FactSet, candidates []ontology.FactSet) (int, crowd.Response) {
	best, bestS := -1, 0.0
	for i, c := range candidates {
		if s := m.support(c); s > bestS {
			best, bestS = i, s
		}
	}
	if best < 0 {
		return -1, crowd.Response{}
	}
	return best, crowd.Response{Support: bestS}
}

// wantMSPs is the ground truth for the simple query at Θ=0.4 with u_avg,
// worked out from Table 3:
//
//	(Central Park, Biking)        avg(1/3, 1/2) = 5/12 ≥ 0.4, no children
//	(Central Park, Ball Game)     avg(1/3, 1/2) = 5/12; Basketball and
//	                              Baseball both fall below 0.4
//	(Bronx Zoo, Feed a monkey)    avg(1/2, 1/2) = 1/2
func wantMSPs(t *testing.T, sp *assign.Space, v *vocab.Vocabulary) map[string]bool {
	t.Helper()
	mk := func(x, y string) string {
		return assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
			"x": {v.Element(x)},
			"y": {v.Element(y)},
		}, nil).Key()
	}
	return map[string]bool{
		mk("Central Park", "Biking"):     true,
		mk("Central Park", "Ball Game"):  true,
		mk("Bronx Zoo", "Feed a monkey"): true,
	}
}

func TestVerticalFindsExactMSPs(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	run := &core.SingleUser{
		Space:  sp,
		Member: newAvgMember(v),
		Theta:  0.4,
		Seed:   1,
	}
	res := run.Run()
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		for _, m := range res.MSPs {
			t.Logf("got MSP: %s", m.String(v, sp.Kinds()))
		}
		t.Fatalf("found %d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP: %s", m.String(v, sp.Kinds()))
		}
	}
	// All three are valid here.
	if len(res.ValidMSPs) != 3 {
		t.Errorf("valid MSPs = %d, want 3", len(res.ValidMSPs))
	}
	if res.Stats.Questions == 0 {
		t.Error("no questions were asked")
	}
}

func TestVerticalAsksFewerThanValidCount(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 1}).Run()
	// The headline claim: far fewer questions than one per valid
	// assignment (the pruning effect of the traversal plus inference).
	if res.Stats.Questions >= len(sp.Valid()) {
		t.Errorf("vertical asked %d questions for %d valid assignments",
			res.Stats.Questions, len(sp.Valid()))
	}
}

func TestHorizontalFindsSameMSPs(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{
		Space: sp, Member: newAvgMember(v), Theta: 0.4,
		Strategy: core.Horizontal, Seed: 1,
	}).Run()
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		t.Fatalf("horizontal found %d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP: %s", m.String(v, sp.Kinds()))
		}
	}
}

func TestNaiveClassifiesValidAssignments(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{
		Space: sp, Member: newAvgMember(v), Theta: 0.4,
		Strategy: core.Naive, Seed: 3,
	}).Run()
	// Naive asks only valid assignments but must still classify them all.
	if res.Stats.Questions > len(sp.Valid()) {
		t.Errorf("naive asked %d questions for %d valid assignments",
			res.Stats.Questions, len(sp.Valid()))
	}
	// The three ground-truth MSPs must be among naive's significant set.
	want := wantMSPs(t, sp, v)
	got := map[string]bool{}
	for _, a := range res.Significant {
		got[a.Key()] = true
	}
	for k := range want {
		if !got[k] {
			t.Error("naive missed a significant valid assignment")
		}
	}
}

func TestVerticalDeterministic(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	r1 := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 7}).Run()
	sp2, v2 := buildSpace(t, paperdata.SimpleQueryText, nil)
	r2 := (&core.SingleUser{Space: sp2, Member: newAvgMember(v2), Theta: 0.4, Seed: 7}).Run()
	if r1.Stats.Questions != r2.Stats.Questions {
		t.Errorf("nondeterministic question counts: %d vs %d",
			r1.Stats.Questions, r2.Stats.Questions)
	}
	if len(r1.MSPs) != len(r2.MSPs) {
		t.Fatal("nondeterministic MSP count")
	}
	for i := range r1.MSPs {
		if r1.MSPs[i].Key() != r2.MSPs[i].Key() {
			t.Fatal("nondeterministic MSP set")
		}
	}
}

func TestVerticalWithSpecializationQuestions(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{
		Space: sp, Member: newAvgMember(v), Theta: 0.4,
		SpecializationRatio: 1.0, Seed: 5,
	}).Run()
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		t.Fatalf("with specialization: %d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP: %s", m.String(v, sp.Kinds()))
		}
	}
	if res.Stats.SpecialQ == 0 {
		t.Error("ratio 1.0 never asked a specialization question")
	}
}

func TestVerticalThresholdSweepMonotone(t *testing.T) {
	// Higher thresholds must never increase the significant set; the
	// MSP count may move either way (footnote 8 of the paper).
	var prevSig int
	first := true
	for _, theta := range []float64{0.2, 0.3, 0.4, 0.5} {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		res := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: theta, Seed: 1}).Run()
		if !first && len(res.Significant) > prevSig {
			t.Errorf("Θ=%v: significant set grew from %d to %d",
				theta, prevSig, len(res.Significant))
		}
		prevSig = len(res.Significant)
		first = false
	}
}

func TestProgressMonotone(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 1}).Run()
	if len(res.Stats.Progress) == 0 {
		t.Fatal("no progress samples")
	}
	var prev core.ProgressPoint
	for i, p := range res.Stats.Progress {
		if i > 0 {
			if p.Questions < prev.Questions || p.ClassifiedValid < prev.ClassifiedValid ||
				p.MSPs < prev.MSPs || p.ValidMSPs < prev.ValidMSPs {
				t.Fatalf("progress not monotone at %d: %+v then %+v", i, prev, p)
			}
		}
		prev = p
	}
	last := res.Stats.Progress[len(res.Stats.Progress)-1]
	if last.ClassifiedValid != len(sp.Valid()) {
		t.Errorf("final classified valid = %d, want all %d",
			last.ClassifiedValid, len(sp.Valid()))
	}
	if last.MSPs != len(res.MSPs) {
		t.Errorf("final MSP progress %d != result %d", last.MSPs, len(res.MSPs))
	}
}

func TestWatchDiscovery(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	watch := []*assign.Assignment{
		assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
			"x": {v.Element("Central Park")}, "y": {v.Element("Biking")},
		}, nil),
		assign.New(v, sp.Kinds(), map[string][]vocab.TermID{
			"x": {v.Element("Madison Square")}, "y": {v.Element("Swimming")},
		}, nil),
	}
	res := (&core.SingleUser{
		Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 1, Watch: watch,
	}).Run()
	if got := res.Stats.WatchDiscoveredAt[0]; got <= 0 {
		t.Errorf("significant watch target discovered at %d, want > 0", got)
	}
	if got := res.Stats.WatchDiscoveredAt[1]; got != -1 {
		t.Errorf("insignificant watch target reported discovered at %d", got)
	}
}

func TestMultiUserEngineMatchesSingle(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	du1, du2 := paperdata.Table3(v)
	m1 := crowd.NewSimMember("u1", v, du1, 1)
	m1.Scale = nil
	m2 := crowd.NewSimMember("u2", v, du2, 2)
	m2.Scale = nil
	eng := core.NewEngine(sp, []crowd.Member{m1, m2}, core.EngineConfig{
		Theta:      0.4,
		Aggregator: crowd.NewMeanAggregator(2, 0.4),
		Seed:       1,
	})
	res := eng.Run()
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		for _, m := range res.MSPs {
			t.Logf("got MSP: %s", m.String(v, sp.Kinds()))
		}
		t.Fatalf("multi-user found %d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP: %s", m.String(v, sp.Kinds()))
		}
	}
}

func TestMultiUserSessionCap(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	du1, du2 := paperdata.Table3(v)
	m1 := crowd.NewSimMember("u1", v, du1, 1)
	m1.Scale = nil
	m2 := crowd.NewSimMember("u2", v, du2, 2)
	m2.Scale = nil
	eng := core.NewEngine(sp, []crowd.Member{m1, m2}, core.EngineConfig{
		Theta:                 0.4,
		Aggregator:            crowd.NewMeanAggregator(2, 0.4),
		MaxQuestionsPerMember: 5,
		Seed:                  1,
	})
	res := eng.Run()
	if res.Stats.Questions > 10 {
		t.Errorf("asked %d questions despite a 5-per-member cap", res.Stats.Questions)
	}
}

func TestMultiUserWithSpammerFilter(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	du1, du2 := paperdata.Table3(v)
	m1 := crowd.NewSimMember("u1", v, du1, 1)
	m1.Scale = nil
	m2 := crowd.NewSimMember("u2", v, du2, 2)
	m2.Scale = nil
	sp3 := crowd.NewSpammer("spam", 99)
	agg := crowd.NewTrustWeightedAggregator(2, 0.4)
	eng := core.NewEngine(sp, []crowd.Member{m1, m2, sp3}, core.EngineConfig{
		Theta:       0.4,
		Aggregator:  agg,
		Consistency: true,
		Seed:        1,
	})
	res := eng.Run()
	if res == nil {
		t.Fatal("nil result")
	}
	// The spammer should eventually be flagged; honest members not.
	for _, id := range eng.FlaggedSpammers() {
		if id != "spam" {
			t.Errorf("honest member %q flagged", id)
		}
	}
}

// TestPlatformThresholdReplay re-runs the engine at a higher threshold on
// the answer platform the first run filled: crowd answers are independent
// of the threshold (Section 6.3), so almost everything replays.
func TestPlatformThresholdReplay(t *testing.T) {
	answers := platform.New(platform.Config{})
	run := func(theta float64) *core.Result {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		member := newAvgMember(v)
		conn := answers.Attach(crowd.NewMemberBroker([]crowd.Member{member}, time.Now))
		defer conn.Detach()
		return core.NewBrokerEngine(sp, []string{member.ID()}, core.EngineConfig{
			Theta: theta, Aggregator: crowd.NewMeanAggregator(1, theta), Seed: 1,
		}).RunWith(conn)
	}

	// First run at Θ=0.2 fills the store.
	res1 := run(0.2)
	first := answers.Stats()
	if first.Misses == 0 {
		t.Fatal("first run hit an empty store")
	}

	// Re-run at Θ=0.4. A few live questions are legitimate: an assignment
	// classified purely by inference at Θ=0.2 can require a direct answer
	// at Θ=0.4.
	res2 := run(0.4)
	second := answers.Stats()
	t.Logf("Θ=0.2: %d live questions; Θ=0.4: %d live, %d replayed",
		first.Misses, second.Misses-first.Misses, second.Hits-first.Hits)
	if newMisses := second.Misses - first.Misses; newMisses*5 > first.Misses {
		t.Errorf("threshold re-run asked %d live questions (first run: %d), want mostly replayed",
			newMisses, first.Misses)
	}
	if second.Hits == 0 {
		t.Error("no store hits on replay")
	}
	// The higher threshold needs at most as many answers.
	if res2.Stats.Questions > res1.Stats.Questions {
		t.Errorf("Θ=0.4 used %d answers, more than Θ=0.2's %d",
			res2.Stats.Questions, res1.Stats.Questions)
	}
}

// TestVerticalWithMultiplicitiesAndMore runs the full Figure 2 query with a
// MORE pool, checking that the engine discovers the paper's flagship answer:
// biking in Central Park, eating at Maoz Veg., with the rent-bikes tip.
func TestVerticalWithMultiplicitiesAndMore(t *testing.T) {
	v, _ := paperdata.Build()
	pool := ontology.NewFactSet(paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse"))
	sp, v := buildSpace(t, paperdata.QueryText, pool)
	res := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 1}).Run()
	if len(res.MSPs) == 0 {
		t.Fatal("no MSPs found")
	}
	foundTip := false
	for _, m := range res.MSPs {
		fs := sp.Instantiate(m)
		if fs.Contains(paperdata.Fact(v, "Biking", "doAt", "Central Park")) &&
			fs.Contains(paperdata.Fact(v, "Rent Bikes", "doAt", "Boathouse")) {
			foundTip = true
		}
	}
	if !foundTip {
		for _, m := range res.MSPs {
			t.Logf("MSP: %s", sp.Instantiate(m).String(v))
		}
		t.Error("the biking+rent-bikes MSP of the Introduction was not found")
	}
}

func TestStatsLaziness(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	res := (&core.SingleUser{Space: sp, Member: newAvgMember(v), Theta: 0.4, Seed: 1}).Run()
	if res.Stats.Generated == 0 {
		t.Fatal("laziness counter never incremented")
	}
}
