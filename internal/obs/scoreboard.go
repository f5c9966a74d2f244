package obs

// The scoreboard maintains per-member quality and latency profiles — the
// inputs OASSIS-style question routing needs at production scale: who
// answers fast, who times out, who departs mid-run, who is banned, who
// contradicts the aggregate. It is a pure fold of the journal: a board
// attached to a journal (Observer.EnableScorecards) folds every event as
// it is recorded, and FoldScoreboard folds a recorded stream, so the two
// read the same numbers. Each member's tallies live in its oassis_member_*
// Prometheus children, which the board fetches once per member and reads
// back for the JSON snapshot (the server's GET /members).

import (
	"sort"
	"sync"
	"time"
)

// memberCard is one member's accumulator. Each child counter and the
// latency histogram are fetched from their family the first time the
// member needs them, so a series a member never reaches is not exported.
type memberCard struct {
	asked  int64
	supSum float64

	answered, timedout, departed *Counter // oassis_member_replies_total
	agreed, disagreed            *Counter // oassis_member_agreement_total
	strikes, bans                *Counter
	latency                      *Histogram // seconds
}

// MemberScorecard is one member's profile snapshot.
type MemberScorecard struct {
	Member      string  `json:"member"`
	Asked       int64   `json:"asked"`
	Answered    int64   `json:"answered"`
	Timeouts    int64   `json:"timeouts"`
	Strikes     int64   `json:"strikes"`
	Departed    bool    `json:"departed"`
	Banned      bool    `json:"banned"`
	TimeoutRate float64 `json:"timeout_rate"` // timeouts / asked
	MeanSupport float64 `json:"mean_support"` // over usable answers
	// Agreement is the fraction of settled questions where the member's
	// verdict (support >= theta) matched the aggregate decision; -1 when
	// no question the member answered has settled yet.
	Agreement   float64 `json:"agreement"`
	MeanLatency float64 `json:"mean_latency_s"`
	P50Latency  float64 `json:"p50_latency_s"`
	P95Latency  float64 `json:"p95_latency_s"`
	P99Latency  float64 `json:"p99_latency_s"`
}

// Scoreboard tracks per-member scorecards. A nil *Scoreboard snapshots to
// nil.
type Scoreboard struct {
	mu      sync.Mutex
	members map[string]*memberCard

	latencyVec *HistogramVec // label: member
	repliesVec *CounterVec   // labels: member, outcome
	agreeVec   *CounterVec   // labels: member, verdict
	strikesVec *CounterVec   // label: member
	bansVec    *CounterVec   // label: member
}

// newScoreboard returns an empty board exporting its families on r.
func newScoreboard(r *Registry) *Scoreboard {
	return &Scoreboard{
		members: make(map[string]*memberCard),
		latencyVec: r.HistogramVec("oassis_member_round_trip_seconds",
			"Per-member question round-trip latency.", DefaultLatencyBuckets, "member"),
		repliesVec: r.CounterVec("oassis_member_replies_total",
			"Per-member reply outcomes folded by the kernel.", "member", "outcome"),
		agreeVec: r.CounterVec("oassis_member_agreement_total",
			"Per-member settled-question verdicts vs the aggregate decision.", "member", "verdict"),
		strikesVec: r.CounterVec("oassis_member_strikes_total",
			"Per-member timeout strikes.", "member"),
		bansVec: r.CounterVec("oassis_member_bans_total",
			"Members banned for contradictory answer patterns.", "member"),
	}
}

// FoldScoreboard folds a recorded journal stream (ReadJournalJSONL) into a
// fresh board exporting its families on r: the board a journal attached
// to it would have built live.
func FoldScoreboard(r *Registry, events []Event) *Scoreboard {
	b := newScoreboard(r)
	for i := range events {
		b.fold(&events[i])
	}
	return b
}

// child returns *p, fetching it from vec on first use.
func child(p **Counter, vec *CounterVec, values ...string) *Counter {
	if *p == nil {
		*p = vec.With(values...)
	}
	return *p
}

// fold tallies one journal event. Only member events count: ask, a
// folded reply (disp ""), timeout, departure, ban and settle.
func (b *Scoreboard) fold(e *Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	m := e.Member
	switch e.Kind {
	case EvAsk:
		b.card(m).asked++
	case EvReply:
		if e.Disp != "" {
			return
		}
		c := b.card(m)
		c.supSum += e.Support
		child(&c.answered, b.repliesVec, m, "answered").Inc()
		if c.latency == nil {
			c.latency = b.latencyVec.With(m)
		}
		c.latency.Observe(time.Duration(e.Elapsed).Seconds())
	case EvTimeout:
		c := b.card(m)
		child(&c.timedout, b.repliesVec, m, "timedout").Inc()
		if e.Struck {
			child(&c.strikes, b.strikesVec, m).Inc()
			child(&c.departed, b.repliesVec, m, "departed").Inc()
		}
	case EvDeparture:
		c := b.card(m)
		child(&c.departed, b.repliesVec, m, "departed").Inc()
	case EvBan:
		if c := b.card(m); c.bans == nil {
			c.bans = b.bansVec.With(m)
			c.bans.Inc()
		}
	case EvSettle:
		for _, m := range e.Agreed {
			c := b.card(m)
			child(&c.agreed, b.agreeVec, m, "agreed").Inc()
		}
		for _, m := range e.Disagreed {
			c := b.card(m)
			child(&c.disagreed, b.agreeVec, m, "disagreed").Inc()
		}
	}
}

// card returns the member's accumulator, creating it on first sight.
// Caller holds b.mu.
func (b *Scoreboard) card(member string) *memberCard {
	c := b.members[member]
	if c == nil {
		c = &memberCard{}
		b.members[member] = c
	}
	return c
}

// Snapshot returns every member's scorecard, sorted by member name.
func (b *Scoreboard) Snapshot() []MemberScorecard {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]MemberScorecard, 0, len(b.members))
	for name, c := range b.members {
		sc := MemberScorecard{
			Member:    name,
			Asked:     c.asked,
			Answered:  c.answered.Value(),
			Timeouts:  c.timedout.Value(),
			Strikes:   c.strikes.Value(),
			Departed:  c.departed.Value() > 0,
			Banned:    c.bans.Value() > 0,
			Agreement: -1,
		}
		if c.asked > 0 {
			sc.TimeoutRate = float64(sc.Timeouts) / float64(c.asked)
		}
		if sc.Answered > 0 {
			sc.MeanSupport = c.supSum / float64(sc.Answered)
		}
		agreed := c.agreed.Value()
		if settled := agreed + c.disagreed.Value(); settled > 0 {
			sc.Agreement = float64(agreed) / float64(settled)
		}
		if n := c.latency.Count(); n > 0 {
			sc.MeanLatency = c.latency.Sum() / float64(n)
			sc.P50Latency = c.latency.Quantile(0.50)
			sc.P95Latency = c.latency.Quantile(0.95)
			sc.P99Latency = c.latency.Quantile(0.99)
		}
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Member < out[j].Member })
	return out
}
