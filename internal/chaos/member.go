package chaos

import (
	"math"
	"math/rand"
	"sync"
	"time"

	"oassis/internal/crowd"
	"oassis/internal/ontology"
)

// Faults configures the misbehaviours a FaultyMember injects. The zero
// value injects nothing; every enabled fault draws its decisions from the
// member's seeded RNG, so a configuration replays identically.
type Faults struct {
	// Seed drives every fault decision (latency samples, departure rolls,
	// contradiction rolls). Two members with the same seed and config
	// misbehave identically.
	Seed int64

	// LatencyMin and LatencyMax bound a uniform per-answer think time,
	// slept on the injected clock before answering. With only LatencyMin
	// set the latency is fixed.
	LatencyMin, LatencyMax time.Duration
	// HeavyTailAlpha, when > 0, replaces the uniform draw with a Pareto
	// tail over LatencyMin (latency = LatencyMin · U^(-1/α)): answer
	// arrival in real crowds is heavy-tailed (Trushkowsky et al.), and a
	// small α produces the occasional extreme straggler. LatencyMax, if
	// set, caps the tail.
	HeavyTailAlpha float64

	// DepartAfter makes the member leave for good after answering that
	// many questions (Section 4.2 lets members depart at any point);
	// 0 means never.
	DepartAfter int
	// DepartProb is a per-question probability of departing instead of
	// answering.
	DepartProb float64

	// ContradictProb is a per-question probability of answering a
	// uniformly random UI-scale support instead of the wrapped member's
	// answer — an inconsistent (but present) member.
	ContradictProb float64

	// TimeoutOnce, when > 0, makes the member's first question take this
	// long (on top of the normal latency) and then behave normally — the
	// timeout-then-return scenario that exercises engine/server retry
	// paths.
	TimeoutOnce time.Duration

	// ID, when non-empty, overrides the wrapped member's ID (useful when
	// cloning one oracle into many distinct faulty members).
	ID string
}

// FaultyMember decorates a crowd.Member with the configured faults. It
// implements crowd.Member (and passes crowd.Attributed through); once
// departed it answers every question with a Departed response, which the
// hardened engine treats as the member leaving the crowd.
type FaultyMember struct {
	inner crowd.Member
	clock Clock
	f     Faults

	mu        sync.Mutex
	rng       *rand.Rand
	asked     int
	departed  bool
	timedOnce bool
}

// Wrap builds a FaultyMember over inner, sleeping on clock.
func Wrap(inner crowd.Member, clock Clock, f Faults) *FaultyMember {
	if clock == nil {
		clock = Real()
	}
	return &FaultyMember{
		inner: inner,
		clock: clock,
		f:     f,
		rng:   rand.New(rand.NewSource(f.Seed)),
	}
}

// ID implements crowd.Member.
func (m *FaultyMember) ID() string {
	if m.f.ID != "" {
		return m.f.ID
	}
	return m.inner.ID()
}

// Attribute implements crowd.Attributed when the wrapped member does.
func (m *FaultyMember) Attribute(name string) (string, bool) {
	if a, ok := m.inner.(crowd.Attributed); ok {
		return a.Attribute(name)
	}
	return "", false
}

// Departed reports whether the member has left the crowd.
func (m *FaultyMember) Departed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.departed
}

// Asked returns how many questions the member answered (or departed on).
func (m *FaultyMember) Asked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.asked
}

// preamble runs the shared per-question fault sequence: departure roll,
// latency sleep, contradiction roll. It reports (departed, contradict).
func (m *FaultyMember) preamble() (bool, bool) {
	m.mu.Lock()
	if m.departed {
		m.mu.Unlock()
		return true, false
	}
	m.asked++
	if (m.f.DepartAfter > 0 && m.asked > m.f.DepartAfter) ||
		(m.f.DepartProb > 0 && m.rng.Float64() < m.f.DepartProb) {
		m.departed = true
		m.mu.Unlock()
		return true, false
	}
	delay := m.f.latency(m.rng)
	if m.f.TimeoutOnce > 0 && !m.timedOnce {
		m.timedOnce = true
		delay += m.f.TimeoutOnce
	}
	contradict := m.f.ContradictProb > 0 && m.rng.Float64() < m.f.ContradictProb
	m.mu.Unlock()
	if delay > 0 {
		m.clock.Sleep(delay)
	}
	return false, contradict
}

// latency samples the configured think-time distribution from the given
// RNG.
func (f Faults) latency(rng *rand.Rand) time.Duration {
	min, max := f.LatencyMin, f.LatencyMax
	if f.HeavyTailAlpha > 0 && min > 0 {
		u := rng.Float64()
		if u < 1e-12 {
			u = 1e-12
		}
		d := time.Duration(float64(min) * math.Pow(u, -1/f.HeavyTailAlpha))
		if max > 0 && d > max {
			d = max
		}
		return d
	}
	if max > min {
		return min + time.Duration(rng.Int63n(int64(max-min)))
	}
	return min
}

// AskConcrete implements crowd.Member.
func (m *FaultyMember) AskConcrete(fs ontology.FactSet) crowd.Response {
	departed, contradict := m.preamble()
	if departed {
		return crowd.Response{Departed: true}
	}
	if contradict {
		return crowd.Response{Support: m.randomScale()}
	}
	return m.inner.AskConcrete(fs)
}

// AskSpecialize implements crowd.Member.
func (m *FaultyMember) AskSpecialize(base ontology.FactSet, cands []ontology.FactSet) (int, crowd.Response) {
	departed, contradict := m.preamble()
	if departed {
		return -1, crowd.Response{Departed: true}
	}
	if contradict {
		m.mu.Lock()
		idx := m.rng.Intn(len(cands)+1) - 1
		m.mu.Unlock()
		if idx < 0 {
			return -1, crowd.Response{}
		}
		return idx, crowd.Response{Support: m.randomScale()}
	}
	return m.inner.AskSpecialize(base, cands)
}

func (m *FaultyMember) randomScale() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return crowd.UIScale[m.rng.Intn(len(crowd.UIScale))]
}

var (
	_ crowd.Member     = (*FaultyMember)(nil)
	_ crowd.Attributed = (*FaultyMember)(nil)
)
