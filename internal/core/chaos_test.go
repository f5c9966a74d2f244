package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"oassis/internal/assign"
	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/paperdata"
	"oassis/internal/vocab"
)

// chaosCrowd builds n members that all answer like u_avg (so the ground
// truth of wantMSPs holds for any surviving subset), wrapped with the given
// per-member fault configurations on a shared virtual clock.
func chaosCrowd(v *vocab.Vocabulary, clock chaos.Clock, faults []chaos.Faults) []crowd.Member {
	members := make([]crowd.Member, len(faults))
	for i, f := range faults {
		f.ID = fmt.Sprintf("m%02d", i)
		if f.Seed == 0 {
			f.Seed = int64(100 + i)
		}
		members[i] = chaos.Wrap(newAvgMember(v), clock, f)
	}
	return members
}

// mspKeys renders a result's MSP key set for comparison.
func mspKeys(res *core.Result) string {
	keys := make([]string, len(res.MSPs))
	for i, m := range res.MSPs {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// TestChaosQuarterOfCrowdDeparts is the acceptance scenario: 3 of 8 members
// (37%, ≥ the required 25%) depart mid-run. The run must still terminate
// and report exactly the correct, maximal significant patterns for the
// surviving crowd — which, because every member answers identically, is the
// wantMSPs ground truth.
func TestChaosQuarterOfCrowdDeparts(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	clock := chaos.NewVirtualClock()
	faults := make([]chaos.Faults, 8)
	for i := range faults {
		faults[i].LatencyMin = 30 * time.Second // think time, virtual
	}
	faults[1].DepartAfter = 1
	faults[4].DepartAfter = 2
	faults[6].DepartAfter = 3
	members := chaosCrowd(v, clock, faults)
	res := core.NewEngine(sp, members, core.EngineConfig{
		Theta:      0.4,
		Aggregator: crowd.NewMeanAggregator(5, 0.4),
		Seed:       1,
	}).Run()

	if res.Stats.Departures != 3 {
		t.Fatalf("Departures = %d, want 3", res.Stats.Departures)
	}
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		t.Fatalf("chaos run found %d MSPs, want %d:\n%s", len(res.MSPs), len(want), mspKeys(res))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("incorrect MSP %s", m.String(v, sp.Kinds()))
		}
	}
	// Soundness: the reported MSPs are an antichain and each one is
	// significant per the collected answers.
	assertSoundAntichain(t, sp, res, 0.4)
	if clock.Elapsed() == 0 {
		t.Fatal("virtual clock never advanced: latency faults not exercised")
	}
}

// TestChaosConcurrentBrokerDepartures runs the same departure scenario
// through concurrent brokers with adversarial schedules (go test -race
// makes this a race hunt as much as a correctness check).
func TestChaosConcurrentBrokerDepartures(t *testing.T) {
	for _, jitter := range []int64{1, 2, 3} {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		clock := chaos.NewVirtualClock()
		faults := make([]chaos.Faults, 8)
		faults[0].DepartAfter = 2
		faults[3].DepartAfter = 1
		faults[5].DepartAfter = 3
		members := chaosCrowd(v, clock, faults)
		res := runConcurrent(core.NewEngine(sp, lockCrowd(t, members), core.EngineConfig{
			Theta:      0.4,
			Aggregator: crowd.NewMeanAggregator(5, 0.4),
			Seed:       1,
		}), jitter)
		if res.Stats.Departures != 3 {
			t.Fatalf("jitter=%d: Departures = %d, want 3", jitter, res.Stats.Departures)
		}
		want := wantMSPs(t, sp, v)
		if len(res.MSPs) != len(want) {
			t.Fatalf("jitter=%d: %d MSPs, want %d", jitter, len(res.MSPs), len(want))
		}
		for _, m := range res.MSPs {
			if !want[m.Key()] {
				t.Errorf("jitter=%d: incorrect MSP %s", jitter, m.String(v, sp.Kinds()))
			}
		}
	}
}

// TestChaosFaultsThroughBroker reruns the quarter-of-the-crowd-departs
// scenario with the faulty members reached through a concurrent broker
// instead of the inline MemberBroker. Member-level injection travels with
// the member, so the results must match Run's — same MSP set, same
// departure count — and every member configured to leave reports it.
func TestChaosFaultsThroughBroker(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	cfg := core.EngineConfig{
		Theta:      0.4,
		Aggregator: crowd.NewMeanAggregator(5, 0.4),
		Seed:       1,
	}
	mkFaults := func() []chaos.Faults {
		faults := make([]chaos.Faults, 8)
		for i := range faults {
			faults[i].LatencyMin = 30 * time.Second
		}
		faults[1].DepartAfter = 1
		faults[4].DepartAfter = 2
		faults[6].DepartAfter = 3
		return faults
	}

	ref := core.NewEngine(sp, chaosCrowd(v, chaos.NewVirtualClock(), mkFaults()), cfg).Run()

	clock := chaos.NewVirtualClock()
	members := chaosCrowd(v, clock, mkFaults())
	res := runConcurrent(core.NewEngine(sp, members, cfg), 1)

	if res.Stats.Departures != ref.Stats.Departures {
		t.Fatalf("Departures = %d via the concurrent broker, %d via Run",
			res.Stats.Departures, ref.Stats.Departures)
	}
	if got, want := mspKeys(res), mspKeys(ref); got != want {
		t.Fatalf("the concurrent broker changed the MSP set:\n%s\nvs\n%s", got, want)
	}
	for _, i := range []int{1, 4, 6} {
		if !members[i].(*chaos.FaultyMember).Departed() {
			t.Errorf("member %s does not report departed", members[i].ID())
		}
	}
	if clock.Elapsed() == 0 {
		t.Fatal("virtual clock never advanced — latency was not injected")
	}
}

// TestChaosDeterministicReplay: a full chaos scenario (latency, departures,
// contradictions) on a virtual clock replays bit-identically from its seeds.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func() (*core.Result, time.Duration) {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		clock := chaos.NewVirtualClock()
		faults := make([]chaos.Faults, 6)
		for i := range faults {
			faults[i].LatencyMin = 10 * time.Second
			faults[i].LatencyMax = 3 * time.Minute
			faults[i].HeavyTailAlpha = 1.2
		}
		faults[2].DepartProb = 0.1
		faults[4].ContradictProb = 0.25
		members := chaosCrowd(v, clock, faults)
		res := core.NewEngine(sp, members, core.EngineConfig{
			Theta:               0.4,
			Aggregator:          crowd.NewMeanAggregator(4, 0.4),
			SpecializationRatio: 0.12,
			Seed:                7,
		}).Run()
		return res, clock.Elapsed()
	}
	r1, e1 := run()
	r2, e2 := run()
	if e1 != e2 {
		t.Fatalf("virtual elapsed diverged: %v vs %v", e1, e2)
	}
	if r1.Stats.Questions != r2.Stats.Questions ||
		r1.Stats.Departures != r2.Stats.Departures ||
		r1.Stats.AutoAnswers != r2.Stats.AutoAnswers {
		t.Fatalf("counters diverged: %+v vs %+v", r1.Stats, r2.Stats)
	}
	if mspKeys(r1) != mspKeys(r2) {
		t.Fatalf("MSP sets diverged:\n%s\nvs\n%s", mspKeys(r1), mspKeys(r2))
	}
}

// TestChaosTimeoutThenReturn: a member that blows the answer deadline once
// and then recovers is retried, keeps contributing, and the run ends with
// the exact ground truth.
func TestChaosTimeoutThenReturn(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	clock := chaos.NewVirtualClock()
	faults := make([]chaos.Faults, 5)
	faults[2].TimeoutOnce = 10 * time.Minute // one answer past the deadline
	members := chaosCrowd(v, clock, faults)
	res := core.NewEngine(sp, members, core.EngineConfig{
		Theta:          0.4,
		Aggregator:     crowd.NewMeanAggregator(5, 0.4),
		Seed:           1,
		AnswerDeadline: 5 * time.Minute,
		Clock:          clock,
	}).Run()
	if res.Stats.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", res.Stats.TimedOut)
	}
	if res.Stats.Departures != 0 {
		t.Fatalf("Departures = %d, want 0 (the member returned)", res.Stats.Departures)
	}
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		t.Fatalf("%d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("incorrect MSP %s", m.String(v, sp.Kinds()))
		}
	}
}

// TestChaosChronicallySlowMemberDropped: a member whose every answer
// overruns the deadline exhausts the consecutive-timeout budget and is
// treated as departed; the survivors still finish correctly.
func TestChaosChronicallySlowMemberDropped(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	clock := chaos.NewVirtualClock()
	faults := make([]chaos.Faults, 6)
	faults[3].LatencyMin = 20 * time.Minute // every answer past the deadline
	members := chaosCrowd(v, clock, faults)
	res := core.NewEngine(sp, members, core.EngineConfig{
		Theta:          0.4,
		Aggregator:     crowd.NewMeanAggregator(5, 0.4),
		Seed:           1,
		AnswerDeadline: 5 * time.Minute,
		Clock:          clock,
	}).Run()
	if res.Stats.TimedOut != 3 {
		t.Fatalf("TimedOut = %d, want 3 (the strike budget)", res.Stats.TimedOut)
	}
	if res.Stats.Departures != 1 {
		t.Fatalf("Departures = %d, want 1", res.Stats.Departures)
	}
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		t.Fatalf("%d MSPs, want %d", len(res.MSPs), len(want))
	}
	assertSoundAntichain(t, sp, res, 0.4)
}

// TestChaosEveryoneDeparts: the degenerate scenario must still terminate
// and report nothing confidently wrong (whatever was settled before the
// exodus remains sound).
func TestChaosEveryoneDeparts(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	clock := chaos.NewVirtualClock()
	faults := make([]chaos.Faults, 4)
	for i := range faults {
		faults[i].DepartAfter = i + 1 // m00 departs after one answer
	}
	members := chaosCrowd(v, clock, faults)
	res := core.NewEngine(sp, members, core.EngineConfig{
		Theta:      0.4,
		Aggregator: crowd.NewMeanAggregator(4, 0.4),
		Seed:       1,
	}).Run()
	if res.Stats.Departures != 4 {
		t.Fatalf("Departures = %d, want 4", res.Stats.Departures)
	}
	assertSoundAntichain(t, sp, res, 0.4)
}

// assertSoundAntichain checks the chaos soundness contract: reported MSPs
// are pairwise incomparable, and every reported MSP is significant per the
// aggregated answers actually collected (when any were).
func assertSoundAntichain(t *testing.T, sp *assign.Space, res *core.Result, theta float64) {
	t.Helper()
	for i, a := range res.MSPs {
		for j, b := range res.MSPs {
			if i != j && sp.Leq(a, b) {
				t.Fatalf("reported MSP %s is dominated by reported MSP %s", a.Key(), b.Key())
			}
		}
	}
	for _, a := range res.MSPs {
		if s, ok := res.SupportOf(a); ok && s < theta {
			t.Fatalf("reported MSP %s has aggregated support %.3f < θ=%.3f", a.Key(), s, theta)
		}
	}
}
