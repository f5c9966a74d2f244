package chaos_test

import (
	"fmt"
	"testing"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/crowd"
	"oassis/internal/ontology"
	"oassis/internal/paperdata"
)

func TestVirtualClockAdvanceAndSleep(t *testing.T) {
	c := chaos.NewVirtualClock()
	t0 := c.Now()
	c.Sleep(90 * time.Second)
	if got := c.Now().Sub(t0); got != 90*time.Second {
		t.Fatalf("Sleep advanced %v, want 90s", got)
	}
	c.Advance(30 * time.Second)
	if got := c.Elapsed(); got != 2*time.Minute {
		t.Fatalf("Elapsed = %v, want 2m", got)
	}
	c.Advance(-time.Second) // negative advances are ignored
	if got := c.Elapsed(); got != 2*time.Minute {
		t.Fatalf("Elapsed after negative advance = %v, want 2m", got)
	}
}

func TestVirtualClockAfter(t *testing.T) {
	c := chaos.NewVirtualClock()
	ch := c.After(time.Minute)
	select {
	case <-ch:
		t.Fatal("timer fired before its deadline")
	default:
	}
	c.Advance(59 * time.Second)
	select {
	case <-ch:
		t.Fatal("timer fired 1s early")
	default:
	}
	c.Advance(time.Second)
	select {
	case at := <-ch:
		if want := c.Now(); !at.Equal(want) {
			t.Fatalf("timer fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer did not fire at its deadline")
	}
	// Zero and negative deadlines fire immediately.
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case <-c.After(d):
		default:
			t.Fatalf("After(%v) did not fire immediately", d)
		}
	}
	// Several timers fire in deadline order on one big advance.
	a, b := c.After(time.Minute), c.After(time.Second)
	c.Advance(time.Hour)
	select {
	case <-a:
	default:
		t.Fatal("long timer did not fire")
	}
	select {
	case <-b:
	default:
		t.Fatal("short timer did not fire")
	}
}

func TestVirtualClockDeterministicEpoch(t *testing.T) {
	if !chaos.NewVirtualClock().Now().Equal(chaos.NewVirtualClock().Now()) {
		t.Fatal("two virtual clocks disagree on the epoch")
	}
}

// table3Member builds a deterministic honest member over Table 3.
func table3Member(t *testing.T, id string) *crowd.SimMember {
	t.Helper()
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	m := crowd.NewSimMember(id, v, du1, 7)
	m.Scale = nil
	return m
}

// askAll asks the member n concrete questions over its own transactions and
// returns the trace of (support, departed) pairs plus the virtual times at
// which each answer arrived.
func trace(t *testing.T, m crowd.Member, clock *chaos.VirtualClock, fs ontology.FactSet, n int) string {
	t.Helper()
	out := ""
	for i := 0; i < n; i++ {
		resp := m.AskConcrete(fs)
		out += fmt.Sprintf("%v|%.3f|%v;", clock.Elapsed(), resp.Support, resp.Departed)
	}
	return out
}

func TestFaultyMemberReplaysBitIdentically(t *testing.T) {
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	fs := du1[0]
	mk := func() (*chaos.FaultyMember, *chaos.VirtualClock) {
		clock := chaos.NewVirtualClock()
		inner := table3Member(t, "u1")
		return chaos.Wrap(inner, clock, chaos.Faults{
			Seed:           42,
			LatencyMin:     5 * time.Second,
			LatencyMax:     2 * time.Minute,
			HeavyTailAlpha: 1.1,
			ContradictProb: 0.3,
			DepartProb:     0.05,
		}), clock
	}
	m1, c1 := mk()
	m2, c2 := mk()
	t1 := trace(t, m1, c1, fs, 50)
	t2 := trace(t, m2, c2, fs, 50)
	if t1 != t2 {
		t.Fatalf("identically-seeded chaos runs diverged:\n%s\nvs\n%s", t1, t2)
	}
	if c1.Elapsed() != c2.Elapsed() {
		t.Fatalf("virtual elapsed diverged: %v vs %v", c1.Elapsed(), c2.Elapsed())
	}
	// A different seed must produce a different trace (the faults are live).
	clock := chaos.NewVirtualClock()
	m3 := chaos.Wrap(table3Member(t, "u1"), clock, chaos.Faults{
		Seed:           43,
		LatencyMin:     5 * time.Second,
		LatencyMax:     2 * time.Minute,
		HeavyTailAlpha: 1.1,
		ContradictProb: 0.3,
		DepartProb:     0.05,
	})
	if t3 := trace(t, m3, clock, fs, 50); t3 == t1 {
		t.Fatal("different seeds produced identical chaos traces")
	}
}

func TestFaultyMemberDepartAfter(t *testing.T) {
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	fs := du1[0]
	clock := chaos.NewVirtualClock()
	m := chaos.Wrap(table3Member(t, "u1"), clock, chaos.Faults{Seed: 1, DepartAfter: 3})
	for i := 0; i < 3; i++ {
		if resp := m.AskConcrete(fs); resp.Departed {
			t.Fatalf("departed on question %d, want after 3", i+1)
		}
	}
	if m.Departed() {
		t.Fatal("Departed() true before the departure question")
	}
	for i := 0; i < 2; i++ {
		if resp := m.AskConcrete(fs); !resp.Departed {
			t.Fatal("member answered after departing")
		}
	}
	if !m.Departed() {
		t.Fatal("Departed() false after departure")
	}
	if _, resp := m.AskSpecialize(fs, []ontology.FactSet{fs}); !resp.Departed {
		t.Fatal("departed member answered a specialization question")
	}
}

func TestFaultyMemberTimeoutOnce(t *testing.T) {
	clock := chaos.NewVirtualClock()
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	fs := du1[0]
	m := chaos.Wrap(table3Member(t, "u1"), clock, chaos.Faults{
		Seed: 1, LatencyMin: time.Second, TimeoutOnce: 10 * time.Minute,
	})
	m.AskConcrete(fs)
	first := clock.Elapsed()
	if first < 10*time.Minute {
		t.Fatalf("first answer took %v, want ≥ 10m", first)
	}
	m.AskConcrete(fs)
	if second := clock.Elapsed() - first; second != time.Second {
		t.Fatalf("second answer took %v, want the normal 1s", second)
	}
}

func TestFaultyMemberHeavyTailBounded(t *testing.T) {
	clock := chaos.NewVirtualClock()
	m := chaos.Wrap(table3Member(t, "u1"), clock, chaos.Faults{
		Seed:           9,
		LatencyMin:     time.Second,
		LatencyMax:     time.Minute,
		HeavyTailAlpha: 0.8,
	})
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	prev := time.Duration(0)
	for i := 0; i < 200; i++ {
		m.AskConcrete(du1[0])
		d := clock.Elapsed() - prev
		prev = clock.Elapsed()
		if d < time.Second || d > time.Minute {
			t.Fatalf("latency %v escaped [1s, 1m]", d)
		}
	}
}

func TestFaultyMemberPassthrough(t *testing.T) {
	inner := table3Member(t, "honest")
	inner.Attrs = map[string]string{"city": "NYC"}
	clock := chaos.NewVirtualClock()
	m := chaos.Wrap(inner, clock, chaos.Faults{Seed: 1})
	if m.ID() != "honest" {
		t.Fatalf("ID = %q", m.ID())
	}
	if city, ok := m.Attribute("city"); !ok || city != "NYC" {
		t.Fatal("Attributed passthrough broken")
	}
	over := chaos.Wrap(inner, clock, chaos.Faults{Seed: 1, ID: "clone-7"})
	if over.ID() != "clone-7" {
		t.Fatalf("ID override = %q", over.ID())
	}
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	for _, fs := range du1 {
		want := inner.AskConcrete(fs)
		got := m.AskConcrete(fs)
		if got.Support != want.Support {
			t.Fatalf("faultless wrapper changed an answer: %v vs %v", got, want)
		}
	}
}

// postFaulty posts n concrete asks for member u1, wrapped with faults f,
// through the in-process broker on the same virtual clock, and returns the
// replies as the engine sees them.
func postFaulty(t *testing.T, f chaos.Faults, n int) []crowd.Reply {
	t.Helper()
	v, _ := paperdata.Build()
	du1, _ := paperdata.Table3(v)
	clock := chaos.NewVirtualClock()
	b := crowd.NewMemberBroker([]crowd.Member{chaos.Wrap(table3Member(t, "u1"), clock, f)}, clock.Now)
	out := make([]crowd.Reply, n)
	for i := range out {
		b.Post(&crowd.Ask{ID: int64(i + 1), Member: "u1", Kind: crowd.ConcreteAsk, Target: du1[0]},
			func(r crowd.Reply) { out[i] = r })
	}
	return out
}

// TestFaultyBrokerDepartAfter checks a departure as the engine sees it
// through a broker: the asks after DepartAfter come back as Departed
// outcomes, for good.
func TestFaultyBrokerDepartAfter(t *testing.T) {
	for i, r := range postFaulty(t, chaos.Faults{Seed: 1, DepartAfter: 2}, 4) {
		want := crowd.Answered
		if i >= 2 {
			want = crowd.Departed
		}
		if r.Outcome != want {
			t.Fatalf("ask %d: outcome %v, want %v", i+1, r.Outcome, want)
		}
	}
}

// TestFaultyBrokerElapsedIncludesLatency checks that a reply's Elapsed,
// read on the broker's clock, carries the injected latency, with
// TimeoutOnce stacked on the first ask only.
func TestFaultyBrokerElapsedIncludesLatency(t *testing.T) {
	if r := postFaulty(t, chaos.Faults{Seed: 1, LatencyMin: 45 * time.Second}, 1)[0]; r.Elapsed != 45*time.Second {
		t.Fatalf("Elapsed = %v, want the injected 45s", r.Elapsed)
	}
	rs := postFaulty(t, chaos.Faults{Seed: 1, LatencyMin: time.Second, TimeoutOnce: 10 * time.Minute}, 2)
	if rs[0].Elapsed != 10*time.Minute+time.Second || rs[1].Elapsed != time.Second {
		t.Fatalf("Elapsed = %v then %v, want 10m1s then 1s", rs[0].Elapsed, rs[1].Elapsed)
	}
}

// TestFaultyMemberBehindMemberBroker checks that a contradiction seen
// through the broker is still an Answered reply on the UI scale.
func TestFaultyMemberBehindMemberBroker(t *testing.T) {
	onScale := map[float64]bool{}
	for _, s := range crowd.UIScale {
		onScale[s] = true
	}
	for i, r := range postFaulty(t, chaos.Faults{Seed: 3, ContradictProb: 1}, 20) {
		if r.Outcome != crowd.Answered || !onScale[r.Support] {
			t.Fatalf("contradicting ask %d: outcome %v, support %v", i+1, r.Outcome, r.Support)
		}
	}
}
