package crowd

import (
	"time"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// The broker layer turns crowd interaction into explicit ask/deliver
// events. The mining kernel emits Asks and consumes Replies; how a
// question physically reaches a member — an in-process Member call, an
// answer-store hit, an HTTP long-poll — is entirely the broker's business.
// This is the QueueManager split of Section 6.1: one component decides
// what to ask, another decides how to ask it.

// AskKind distinguishes the two question forms of Section 5.2.
type AskKind uint8

const (
	// ConcreteAsk requests the member's support for a single fact-set.
	ConcreteAsk AskKind = iota
	// SpecializeAsk shows a base pattern plus candidate specializations
	// and requests the best-supported one ("none of these" is choice -1).
	SpecializeAsk
)

// Ask is one question event emitted by the kernel.
type Ask struct {
	// ID is unique within a run, in emission order.
	ID int64
	// Member is the crowd member the question is addressed to; Index is
	// that member's position in the run's member list.
	Member string
	Index  int
	Kind   AskKind
	// Target is the fact-set of a ConcreteAsk.
	Target ontology.FactSet
	// Base and Options carry a SpecializeAsk: the supported pattern and
	// its candidate specializations.
	Base    ontology.FactSet
	Options []ontology.FactSet
}

// Outcome classifies how an Ask resolved.
type Outcome uint8

const (
	// Answered: the member responded; Support/Choice/Pruned are valid.
	Answered Outcome = iota
	// TimedOut: the broker gave up waiting but the member may yet return.
	TimedOut
	// Departed: the member is gone and must not be asked again.
	Departed
)

// String returns the journal wire spelling of the outcome.
func (o Outcome) String() string {
	switch o {
	case TimedOut:
		return "timedout"
	case Departed:
		return "departed"
	default:
		return "answered"
	}
}

// Reply is the resolution event for one Ask.
type Reply struct {
	Ask     *Ask
	Outcome Outcome
	// Support is the reported support in [0,1] (ConcreteAsk, or the
	// chosen option of a SpecializeAsk).
	Support float64
	// Choice indexes Ask.Options for a SpecializeAsk; any out-of-range
	// value (canonically -1) means "none of these".
	Choice int
	// Pruned lists ontology terms the member marked irrelevant.
	Pruned []vocab.TermID
	// Elapsed is how long the member took, as measured by the broker;
	// the kernel compares it against the configured answer deadline.
	Elapsed time.Duration
}

// Broker delivers Asks to a crowd and hands back Replies. Post must
// eventually call deliver exactly once for the given ask; it may do so
// synchronously (in-process members) or from another goroutine (an HTTP
// platform). Delivery order across concurrent asks is unconstrained —
// the engine's round loop re-orders replies at the round barrier.
type Broker interface {
	Post(ask *Ask, deliver func(Reply))
}

// MemberBroker is the in-process broker: it resolves each Ask by calling
// the corresponding Member synchronously and timing the exchange with
// the injected clock.
type MemberBroker struct {
	members []Member
	now     func() time.Time

	// Metrics, when set, records each posted question and each reply's
	// outcome and round-trip latency. Nil costs a branch.
	Metrics *obs.BrokerMetrics
}

// NewMemberBroker builds a broker over the run's member list. now
// supplies the clock used to measure answer latency (chaos runs pass a
// virtual clock's Now).
func NewMemberBroker(members []Member, now func() time.Time) *MemberBroker {
	return &MemberBroker{members: members, now: now}
}

// Post resolves the ask against members[ask.Index] and delivers the
// reply synchronously. A Response with Departed set becomes a Departed
// outcome, matching the member-level fault contract.
func (b *MemberBroker) Post(ask *Ask, deliver func(Reply)) {
	m := b.members[ask.Index]
	start := b.now()
	r := Reply{Ask: ask, Choice: -1}
	switch ask.Kind {
	case ConcreteAsk:
		resp := m.AskConcrete(ask.Target)
		r.Support = resp.Support
		r.Pruned = resp.Pruned
		if resp.Departed {
			r.Outcome = Departed
		}
	case SpecializeAsk:
		choice, resp := m.AskSpecialize(ask.Base, ask.Options)
		r.Choice = choice
		r.Support = resp.Support
		r.Pruned = resp.Pruned
		if resp.Departed {
			r.Outcome = Departed
		}
	}
	r.Elapsed = b.now().Sub(start)
	if b.Metrics != nil {
		b.Metrics.Posted.Inc()
		b.Metrics.Reply(int(r.Outcome), r.Elapsed)
	}
	deliver(r)
}
