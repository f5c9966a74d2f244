package core_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
	"oassis/internal/synth"
)

// concurrentBroker stands in for a crowd reached over the network: every
// ask is answered on its own goroutine through the inner broker, after a
// number of scheduler yields drawn from jitter and the ask ID, so each
// round's members are served concurrently and their replies reach the
// engine in a scrambled order, as from an HTTP crowd. Under -race it
// hunts data races on the paths concurrent delivery reaches.
type concurrentBroker struct {
	inner  crowd.Broker
	jitter int64
}

// runConcurrent drives e through a concurrentBroker over its members.
func runConcurrent(e *core.Engine, jitter int64) *core.Result {
	return e.RunWith(concurrentBroker{inner: e.MemberBroker(), jitter: jitter})
}

func (b concurrentBroker) Post(ask *crowd.Ask, deliver func(crowd.Reply)) {
	h := (uint64(b.jitter) ^ uint64(ask.ID)*0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	yields := int(h >> 60)
	go func() {
		for i := 0; i < yields; i++ {
			runtime.Gosched()
		}
		b.inner.Post(ask, deliver)
	}()
}

// lockedMember wraps a member with its own mutex and records concurrent
// access, validating the one-goroutine-per-member guarantee.
type lockedMember struct {
	inner  crowd.Member
	mu     sync.Mutex
	active bool
	t      *testing.T
}

// lockCrowd wraps every member in a lockedMember.
func lockCrowd(t *testing.T, members []crowd.Member) []crowd.Member {
	out := make([]crowd.Member, len(members))
	for i, m := range members {
		out[i] = &lockedMember{inner: m, t: t}
	}
	return out
}

func (m *lockedMember) enter() {
	m.mu.Lock()
	if m.active {
		m.t.Error("member served by two goroutines at once")
	}
	m.active = true
	m.mu.Unlock()
}

func (m *lockedMember) leave() {
	m.mu.Lock()
	m.active = false
	m.mu.Unlock()
}

func (m *lockedMember) ID() string { return m.inner.ID() }

func (m *lockedMember) AskConcrete(fs ontology.FactSet) crowd.Response {
	m.enter()
	defer m.leave()
	return m.inner.AskConcrete(fs)
}

func (m *lockedMember) AskSpecialize(base ontology.FactSet, cands []ontology.FactSet) (int, crowd.Response) {
	m.enter()
	defer m.leave()
	return m.inner.AskSpecialize(base, cands)
}

// TestRunParallelMatchesSequential runs a domain crowd through Run and
// through concurrent brokers, which serve a round's members in parallel:
// replies fold in ask order at the round barrier, so the MSP sets,
// supports, transcripts and Stats must match exactly, and no member may be
// served by two goroutines at once.
func TestRunParallelMatchesSequential(t *testing.T) {
	run := func(jitter int64) *core.Result {
		d, err := synth.NewDomain(synth.SelfTreatment(24, 4))
		if err != nil {
			t.Fatal(err)
		}
		e := core.NewEngine(d.Space, lockCrowd(t, d.Members), core.EngineConfig{
			Theta: 0.2, Aggregator: crowd.NewMeanAggregator(5, 0.2), Seed: 1,
			RecordTranscript: true,
		})
		if jitter == 0 {
			return e.Run()
		}
		return runConcurrent(e, jitter)
	}
	ref := fingerprint(run(0))
	if ref.msps == "" || ref.stats.Questions == 0 {
		t.Fatalf("degenerate run: %d questions, MSPs %q", ref.stats.Questions, ref.msps)
	}
	for _, jitter := range []int64{1, 2, 3} {
		if got := fingerprint(run(jitter)); !reflect.DeepEqual(got, ref) {
			t.Fatalf("jitter %d: concurrent broker diverged from Run: %s", jitter, diffFingerprints(got, ref))
		}
	}
}

// TestRunParallelSingleWorkerIsSequential runs the running example
// through RunWith over the engine's own MemberBroker, which serves one ask
// at a time on the caller's goroutine: it must be Run, transcript and all.
func TestRunParallelSingleWorkerIsSequential(t *testing.T) {
	run := func(serial bool) *core.Result {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		du1, du2 := paperdata.Table3(v)
		m1 := crowd.NewSimMember("u1", v, du1, 1)
		m1.Scale = nil
		m2 := crowd.NewSimMember("u2", v, du2, 2)
		m2.Scale = nil
		e := core.NewEngine(sp, lockCrowd(t, []crowd.Member{m1, m2}), core.EngineConfig{
			Theta: 0.4, Aggregator: crowd.NewMeanAggregator(2, 0.4), Seed: 1,
			RecordTranscript: true,
		})
		if serial {
			return e.RunWith(e.MemberBroker())
		}
		return e.Run()
	}
	ref := fingerprint(run(false))
	if ref.stats.Questions == 0 {
		t.Fatal("degenerate run: no questions")
	}
	if got := fingerprint(run(true)); !reflect.DeepEqual(got, ref) {
		t.Fatalf("serial broker diverged from Run: %s", diffFingerprints(got, ref))
	}
}

// TestConcurrentBrokerPaperExample checks the ground-truth MSPs survive a
// concurrent run of the running example.
func TestConcurrentBrokerPaperExample(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	du1, du2 := paperdata.Table3(v)
	m1 := crowd.NewSimMember("u1", v, du1, 1)
	m1.Scale = nil
	m2 := crowd.NewSimMember("u2", v, du2, 2)
	m2.Scale = nil
	res := runConcurrent(core.NewEngine(sp, lockCrowd(t, []crowd.Member{m1, m2}), core.EngineConfig{
		Theta: 0.4, Aggregator: crowd.NewMeanAggregator(2, 0.4), Seed: 1,
	}), 1)
	want := wantMSPs(t, sp, v)
	if len(res.MSPs) != len(want) {
		for _, m := range res.MSPs {
			t.Logf("MSP: %s", m.String(v, sp.Kinds()))
		}
		t.Fatalf("concurrent run found %d MSPs, want %d", len(res.MSPs), len(want))
	}
	for _, m := range res.MSPs {
		if !want[m.Key()] {
			t.Errorf("unexpected MSP %s", m.String(v, sp.Kinds()))
		}
	}
}
