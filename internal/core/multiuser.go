package core

import (
	"sort"
	"time"

	"oassis/internal/assign"
	"oassis/internal/chaos"
	"oassis/internal/crowd"
	"oassis/internal/obs"
)

// EngineConfig parameterizes the multi-user evaluation of Section 4.2.
type EngineConfig struct {
	// Theta is the query's support threshold.
	Theta float64
	// Aggregator is the black-box decision mechanism; nil uses the
	// paper's 5-answer mean rule.
	Aggregator crowd.Aggregator
	// SpecializationRatio is the probability that a descend step uses a
	// specialization question instead of a concrete one (the paper
	// observed members choosing specialization ~12% of the time).
	SpecializationRatio float64
	// MaxQuestionsPerMember caps one member's session ("the outer loop
	// ... can be terminated at any point"); 0 means unlimited.
	MaxQuestionsPerMember int
	// Consistency enables the Section 4.2 spammer filter; flagged
	// members stop receiving questions and their answers are dropped
	// from a TrustWeightedAggregator (if one is configured).
	Consistency bool
	// CalibrationQuestions, with Consistency, probes each member on a
	// chain of comparable assignments before mining starts — the
	// "preliminary step to filter the crowd members" of Section 4.2 —
	// so spammers are caught before their answers settle decisions.
	CalibrationQuestions int
	// MaxMSPs stops the run once this many MSPs are confirmed (the
	// top-k extension; 0 = mine to completion).
	MaxMSPs int
	// OnMSP, when set, streams each MSP the moment it is confirmed —
	// the incremental answer delivery the paper emphasizes ("answers
	// can be returned ... as soon as they are identified").
	OnMSP func(*assign.Assignment)
	// Seed drives question-type choices.
	Seed int64
	// AnswerDeadline bounds how long one answer may take, as measured by
	// the broker carrying the question (Reply.Elapsed). An answer
	// arriving later is discarded (it is stale: the member may have seen
	// a question whose context has moved on) and the member is re-asked
	// on their next turn; after MaxAnswerTimeouts consecutive overruns
	// the member is treated as departed. 0 waits forever (the pre-chaos
	// behaviour).
	AnswerDeadline time.Duration
	// MaxAnswerTimeouts is the consecutive-overrun budget before a slow
	// member is dropped; 0 means the default of 3.
	MaxAnswerTimeouts int
	// Clock is the time source the in-process member broker uses to
	// measure answer latency; nil uses the wall clock. Chaos tests
	// inject a chaos.VirtualClock so slow-member scenarios replay
	// deterministically in zero wall time. The kernel itself never
	// reads a clock — external brokers time their own exchanges.
	Clock chaos.Clock
	// RecordTranscript collects a per-member interview log into
	// Result.Transcripts, for differential testing across drivers.
	RecordTranscript bool
	// Obs, when set, receives kernel metrics, per-round trace spans and
	// (for Run/RunParallel) broker metrics. Nil disables observability:
	// the kernel pays one nil check per event, nothing more.
	Obs *obs.Observer
}

// Engine is the multi-user query evaluator: one event-driven mining
// kernel (see kernel.go) plus interchangeable drivers. Run serves
// members sequentially and deterministically; RunParallel serves them
// through a worker pool; RunWith drives any Broker — including
// asynchronous ones like the HTTP platform. All drivers execute the
// same bulk-synchronous round protocol (select one question per live
// member, dispatch, fold replies back in ask order at the barrier), so
// they produce identical transcripts on the same crowd.
type Engine struct {
	k       *kernel
	members []crowd.Member
	clock   chaos.Clock
}

// NewEngine builds a multi-user evaluator over the space and member pool.
func NewEngine(sp *assign.Space, members []crowd.Member, cfg EngineConfig) *Engine {
	ids := make([]string, len(members))
	for i, m := range members {
		ids[i] = m.ID()
	}
	e := newBrokerEngine(sp, ids, cfg)
	e.members = members
	return e
}

// NewBrokerEngine builds an evaluator for a crowd known only by member
// IDs — the members live behind a Broker (an HTTP platform, a worker
// fleet) and are reached exclusively through RunWith.
func NewBrokerEngine(sp *assign.Space, ids []string, cfg EngineConfig) *Engine {
	return newBrokerEngine(sp, ids, cfg)
}

func newBrokerEngine(sp *assign.Space, ids []string, cfg EngineConfig) *Engine {
	clock := cfg.Clock
	if clock == nil {
		clock = chaos.Real()
	}
	return &Engine{k: newKernel(sp, ids, cfg), clock: clock}
}

// Run drives member sessions in bulk-synchronous rounds until no member
// can contribute, then finalizes undecided assignments from the answers
// gathered so far. Questions are posed inline, one member at a time in
// member order, so a run over deterministic members (and, with a virtual
// clock, deterministic faults) replays bit-identically. A member with
// nothing to answer in one round is retried in later rounds: other
// members' answers can settle assignments and unlock new regions.
func (e *Engine) Run() *Result {
	b := crowd.NewMemberBroker(e.members, e.clock.Now)
	b.Metrics = e.k.cfg.Obs.BrokerSet()
	return e.drive(func(asks []*crowd.Ask) []crowd.Reply {
		replies := make([]crowd.Reply, 0, len(asks))
		for _, a := range asks {
			b.Post(a, func(r crowd.Reply) {
				replies = append(replies, r)
			})
		}
		return replies
	})
}

// RunWith drives the kernel over an arbitrary broker: each round's asks
// are posted without waiting, replies are collected as they come, and
// the round closes when every ask has resolved. This is the driver
// behind the HTTP platform, where answers arrive from the network in
// any order.
func (e *Engine) RunWith(b crowd.Broker) *Result {
	return e.drive(func(asks []*crowd.Ask) []crowd.Reply {
		ch := make(chan crowd.Reply, len(asks))
		for _, a := range asks {
			b.Post(a, func(r crowd.Reply) { ch <- r })
		}
		replies := make([]crowd.Reply, 0, len(asks))
		for range asks {
			replies = append(replies, <-ch)
		}
		return replies
	})
}

// drive is the round loop every driver shares: select, dispatch, fold.
// Replies are applied in ask order regardless of arrival order, which is
// what makes the drivers behaviorally identical.
//
// When the config carries an Observer, each round becomes one trace span
// ("round", with ask/reply/border attributes) timed on the engine clock —
// chaos runs with a virtual clock therefore trace virtual durations, the
// same ones their deadlines are judged by.
func (e *Engine) drive(dispatch func([]*crowd.Ask) []crowd.Reply) *Result {
	observed := e.k.cfg.Obs != nil
	km := e.k.km // non-nil; all fields no-ops when unobserved
	tr := e.k.cfg.Obs.Trace()
	runStart := e.clock.Now()
	if jr := e.k.jr; jr != nil {
		// The journal records on the engine clock: a chaos VirtualClock
		// run journals deterministic timestamps. The run scope opens here
		// so every kernel emission below carries this run's ID.
		jr.BindClock(e.clock.Now)
		ids := make([]string, len(e.k.users))
		for i, u := range e.k.users {
			ids[i] = u.id
		}
		e.k.jrRun = jr.StartRun(ids, e.k.cfg.Seed, e.k.cfg.Theta)
	}
	for {
		roundStart := e.clock.Now()
		asks := e.k.beginRound()
		if len(asks) == 0 {
			break
		}
		if observed {
			tr.Record("selection", roundStart.Sub(runStart), e.clock.Now().Sub(roundStart),
				obs.Attr{Key: "asks", Val: int64(len(asks))})
		}
		km.InFlight.Set(int64(len(asks)))
		replies := dispatch(asks)
		sort.Slice(replies, func(i, j int) bool {
			return replies[i].Ask.ID < replies[j].Ask.ID
		})
		for _, r := range replies {
			e.k.apply(r)
			km.InFlight.Add(-1)
		}
		km.Replies.Add(int64(len(replies)))
		km.InFlight.Set(0)
		if observed {
			border := e.k.global.SignificantBorderSize()
			now := e.clock.Now()
			dur := now.Sub(roundStart)
			km.RoundComplete(len(asks), border, dur)
			tr.Record("round", roundStart.Sub(runStart), dur,
				obs.Attr{Key: "asks", Val: int64(len(asks))},
				obs.Attr{Key: "replies", Val: int64(len(replies))},
				obs.Attr{Key: "border", Val: int64(border)})
			e.k.jr.RoundEnd(e.k.jrRun, e.k.stats.Rounds, len(asks), len(replies),
				border, int64(e.k.stats.Questions))
		}
	}
	e.k.finalize()
	if e.k.jr != nil {
		// finalize-time settles land in the curve's final bucket.
		e.k.jr.EndRun(e.k.jrRun, e.k.stats.Rounds, int64(e.k.stats.Questions))
	}
	return e.k.result()
}

// Provenance reports which members contributed answers to an assignment
// and with what support — the transparency hook for downstream review of
// an answer ("who said this?").
type Provenance struct {
	MemberID string
	Support  float64
}

// Explain returns the per-member answers behind an assignment, sorted by
// member ID, plus the frozen aggregate decision if any.
func (e *Engine) Explain(a *assign.Assignment) []Provenance {
	return e.k.explain(a)
}

// FlaggedSpammers lists members the consistency filter banned.
func (e *Engine) FlaggedSpammers() []string {
	return e.k.flaggedSpammers()
}
