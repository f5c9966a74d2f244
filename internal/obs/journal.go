package obs

// The journal is the engine's one event stream: an append-only,
// sequence-numbered record of "what happened" (run start, every ask,
// every reply/timeout/departure with its raw payload, bans, settled
// questions, MSP confirmations, round barriers, store events) and of "how
// long" (span events:
// a query's space build, an engine round, a figure's mining phase). One
// mutex guards a ring that grows on demand up to its capacity and then
// overwrites the oldest event, an optional JSONL sink sees every event,
// the hand-rolled encoder writes a stable field order so output is
// byte-deterministic, and each run is stamped on the clock it was started
// with, so chaos VirtualClock runs journal reproducible timestamps. Span
// counts and totals are kept per (phase, name) as they are recorded, so
// Summary stays exact after the ring wraps. A nil *Journal is a no-op on
// every method, preserving the package's disabled-costs-a-nil-check
// contract. An observer's journal folds each event as it is recorded into
// the observer's kernel and platform counters, and into its scoreboard
// (Observer.EnableScorecards) when it has one: a counter of journaled
// events is a fold of the journal, never a second write.
//
// Because the mining kernel is a pure event fold, the recorded reply
// payloads are sufficient to re-run it: internal/journal.Replay feeds the
// stream back through the kernel and asserts the reconstruction is
// byte-identical to the live run. Replay identity deliberately does not
// depend on the At timestamps or on span events — they are observability,
// not state. Replay reads only asks and replies, so it ignores the ban
// and settle events, which exist for the scoreboard.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Event kinds. The string values are the wire format of the "kind" field.
const (
	EvRunStart     = "run_start"
	EvAsk          = "ask"
	EvReply        = "reply"
	EvTimeout      = "timeout"
	EvDeparture    = "departure"
	EvBan          = "ban"
	EvSettle       = "settle"
	EvMSP          = "msp_confirmed"
	EvRoundEnd     = "round_end"
	EvRunEnd       = "run_end"
	EvStoreHit     = "store_hit"
	EvStoreMiss    = "store_miss"
	EvStoreJoin    = "store_join"
	EvStoreExpired = "store_expired"
	EvSpan         = "span"
)

// Event is one journal entry. The struct is flat across all kinds: each
// kind populates its subset of fields and the encoder skips zero values,
// so decoding with encoding/json round-trips exactly (a missing field is
// the zero value). At is taken when the event is recorded (a span's end):
// for an event of a run, nanoseconds since the run started, on the clock
// the run was started with; for a run-0 event, or one of a run whose
// record was evicted, wall-clock nanoseconds since the journal's first
// StartRun (0 before it). It is informational only; replay identity never
// reads it.
type Event struct {
	Seq  int64  `json:"seq"`
	Run  int64  `json:"run"`
	At   int64  `json:"at_ns"`
	Kind string `json:"kind"`

	// run_start
	Members  []string `json:"members,omitempty"`
	Seed     int64    `json:"seed,omitempty"`
	Theta    float64  `json:"theta,omitempty"`
	Strategy string   `json:"strategy,omitempty"` // single-member runs only

	// ask / reply / timeout / departure
	Round   int    `json:"round,omitempty"`
	Ask     int64  `json:"ask,omitempty"`
	Member  string `json:"member,omitempty"`
	QKind   string `json:"qkind,omitempty"`   // "concrete" | "specialize"
	Key     string `json:"key,omitempty"`     // node / question / MSP key, span name
	Probe   bool   `json:"probe,omitempty"`   // probe concrete ask
	Options int    `json:"options,omitempty"` // specialization option count

	// reply payload (raw broker fields, required for replay)
	Outcome string  `json:"outcome,omitempty"` // "answered" | "timedout" | "departed"
	Support float64 `json:"support,omitempty"`
	Choice  int     `json:"choice,omitempty"`
	Pruned  []int32 `json:"pruned,omitempty"`
	Elapsed int64   `json:"elapsed_ns,omitempty"`
	Disp    string  `json:"disp,omitempty"`   // "discarded" when folded after stop
	Struck  bool    `json:"struck,omitempty"` // timeout that struck the member out

	// settle: the node goes in Key; the members whose own answer agreed
	// and disagreed with the decision, each in member order
	Decision  string   `json:"decision,omitempty"` // "significant" | "insignificant"
	Agreed    []string `json:"agreed,omitempty"`
	Disagreed []string `json:"disagreed,omitempty"`

	// round_end / run_end / msp_confirmed; a round_end's duration goes in
	// Elapsed, and Inferred counts the answers inferred since the
	// previous barrier
	Asks       int   `json:"asks,omitempty"`
	Replies    int   `json:"replies,omitempty"`
	Border     int   `json:"border,omitempty"`
	Questions  int64 `json:"questions,omitempty"`
	NewMSPs    int   `json:"new_msps,omitempty"`
	NewAnswers int   `json:"new_answers,omitempty"`
	Rounds     int   `json:"rounds,omitempty"`
	Inferred   int64 `json:"inferred,omitempty"`

	// span: the name goes in Key and the duration in Elapsed
	Phase string `json:"phase,omitempty"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Attr is one key/value annotation on a span event. Values are int64
// because every span attribute the engine records is a count or an ID;
// keeping the type closed avoids interface boxing on the record path.
type Attr struct {
	Key string `json:"k"`
	Val int64  `json:"v"`
}

// CurvePoint is one round bucket of a run's answer-arrival curve: how many
// new MSP confirmations and new distinct answers the round's questions
// bought, plus the cumulative totals — the raw material for the
// species-style completeness estimators of "Getting It All from the Crowd".
type CurvePoint struct {
	Round      int   `json:"round"`
	Questions  int64 `json:"questions"` // cumulative usable answers at round end
	NewMSPs    int   `json:"new_msps"`
	NewAnswers int   `json:"new_answers"`
	MSPs       int   `json:"msps"`    // cumulative confirmed MSPs
	Answers    int   `json:"answers"` // cumulative distinct questions answered
}

// runRec is the journal's record of one run: the clock its events are
// stamped on, and its arrival curve, one point per barrier.
type runRec struct {
	now    func() time.Time
	origin time.Time // now() at StartRun
	points []CurvePoint
}

// DefaultJournalCapacity is the ring capacity of an observer's journal.
// The ring grows on demand up to it, so a journal that records little
// costs little.
const DefaultJournalCapacity = 65536

// minJournalRing is the ring's first allocation.
const minJournalRing = 64

// maxJournalCurves bounds the per-run records held in memory; the oldest
// run's record (its curve and clock) is evicted when a newer run starts
// past the bound.
const maxJournalCurves = 64

// Journal records events. Every Observer carries one, built with it by
// New (Observer.JournalSet); attach a JSONL sink with SetSink. All
// methods are safe for concurrent use and are no-ops on a nil receiver.
type Journal struct {
	mu        sync.Mutex
	wallEpoch time.Time // wall clock at the first StartRun; zero before
	ring      []Event
	limit     int // ring capacity; the ring grows on demand up to it
	next      int
	total     int64
	dropped   int64
	seq       int64
	runSeq    int64
	sink      *bufio.Writer
	sinkErr   error
	scratch   []byte
	runs      map[int64]*runRec
	runIDs    []int64 // insertion order, for bounded eviction
	phase     string
	spanIdx   map[spanKey]int // (phase, name) -> index into spanSums
	spanSums  []TraceEntry
	// the folds of every recorded event; board is nil without scorecards
	kernel   *KernelMetrics
	platform *PlatformMetrics
	board    *Scoreboard
}

type spanKey struct{ phase, name string }

// newJournal returns a journal with ring capacity n.
func newJournal(n int) *Journal {
	return &Journal{
		limit:   n,
		runs:    make(map[int64]*runRec),
		spanIdx: make(map[spanKey]int),
	}
}

// SetSink attaches a JSONL sink: every event is additionally encoded and
// buffered to w as it is recorded, so a run longer than the ring is still
// fully journaled on disk. EndRun flushes the buffer; call Flush for
// mid-run durability. The first write error is sticky (see Err).
func (j *Journal) SetSink(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = bufio.NewWriterSize(w, 1<<16)
	j.sinkErr = nil
	j.mu.Unlock()
}

// Flush flushes the JSONL sink buffer, returning the sticky sink error.
func (j *Journal) Flush() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.sink != nil && j.sinkErr == nil {
		j.sinkErr = j.sink.Flush()
	}
	return j.sinkErr
}

// Err returns the first sink write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinkErr
}

// at returns the timestamp of an event of run recorded now (see
// Event.At). Caller holds j.mu.
func (j *Journal) at(run int64) int64 {
	if r := j.runs[run]; r != nil {
		return r.now().Sub(r.origin).Nanoseconds()
	}
	if j.wallEpoch.IsZero() {
		return 0
	}
	return time.Since(j.wallEpoch).Nanoseconds()
}

// record stamps, rings and sinks one event. Caller must NOT hold j.mu.
func (j *Journal) record(e Event) {
	j.mu.Lock()
	j.recordLocked(e)
	j.mu.Unlock()
}

// recordLocked is record for a caller holding j.mu. While the ring is
// below its limit, next equals its length; from then on next cycles
// through it, pointing at the oldest event.
func (j *Journal) recordLocked(e Event) {
	e.Seq = j.seq
	j.seq++
	e.At = j.at(e.Run)
	if len(j.ring) < j.limit {
		if len(j.ring) == cap(j.ring) {
			grown := make([]Event, len(j.ring), min(max(2*cap(j.ring), minJournalRing), j.limit))
			copy(grown, j.ring)
			j.ring = grown
		}
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
		j.dropped++
	}
	j.next++
	if j.next == j.limit {
		j.next = 0
	}
	j.total++
	j.kernel.fold(&e)
	j.platform.fold(&e)
	if j.board != nil {
		j.board.fold(&e)
	}
	if j.sink != nil && j.sinkErr == nil {
		j.scratch = appendEventJSON(j.scratch[:0], &e)
		j.scratch = append(j.scratch, '\n')
		if _, err := j.sink.Write(j.scratch); err != nil {
			j.sinkErr = err
		}
	}
}

// SetPhase stamps the phase that spans recorded afterwards carry — a
// figure ID, "explain" — so the summary groups them per stage.
func (j *Journal) SetPhase(phase string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.phase = phase
	j.mu.Unlock()
}

// Begin returns the start of a wall-clock span, for End. A nil journal
// returns the zero Time without reading the clock.
func (j *Journal) Begin() time.Time {
	if j == nil {
		return time.Time{}
	}
	return time.Now()
}

// End records a span named name that began at start (from Begin), timed
// on the wall clock, outside any run.
func (j *Journal) End(name string, start time.Time, attrs ...Attr) {
	if j == nil {
		return
	}
	j.Span(0, name, time.Since(start), attrs...)
}

// Span records a span of an explicit duration under run (0 outside a
// run). The engine's round loop times its round and selection spans on the
// engine clock — virtual under chaos, the clock their deadlines are
// judged by — and pass the duration here. attrs is stored as given, not
// copied.
func (j *Journal) Span(run int64, name string, dur time.Duration, attrs ...Attr) {
	if j == nil {
		return
	}
	j.mu.Lock()
	k := spanKey{j.phase, name}
	i, ok := j.spanIdx[k]
	if !ok {
		i = len(j.spanSums)
		j.spanIdx[k] = i
		j.spanSums = append(j.spanSums, TraceEntry{Phase: k.phase, Name: name})
	}
	j.spanSums[i].Count++
	j.spanSums[i].Total += dur
	j.recordLocked(Event{
		Run: run, Kind: EvSpan, Key: name, Elapsed: dur.Nanoseconds(),
		Phase: j.phase, Attrs: attrs,
	})
	j.mu.Unlock()
}

// TraceEntry is one (phase, name) aggregate in a TraceSummary.
type TraceEntry struct {
	Phase string
	Name  string
	Count int64
	Total time.Duration
}

// TraceSummary condenses the journal's spans into per-(phase, name)
// counts and totals — the form attached to a Result so callers see where
// a run's time went without holding every span.
type TraceSummary struct {
	Entries []TraceEntry
}

// String renders the summary as an aligned table, one line per entry.
func (s *TraceSummary) String() string {
	if s == nil || len(s.Entries) == 0 {
		return "(no spans)"
	}
	var sb strings.Builder
	for _, e := range s.Entries {
		name := e.Name
		if e.Phase != "" {
			name = e.Phase + "/" + e.Name
		}
		fmt.Fprintf(&sb, "%-32s %6d × %12s total\n", name, e.Count, e.Total.Round(time.Microsecond))
	}
	return sb.String()
}

// Summary returns the count and total duration of every span the journal
// ever recorded, per (phase, name), sorted by phase then name. It is
// exact however far the ring has wrapped. A nil journal returns nil.
func (j *Journal) Summary() *TraceSummary {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	sum := &TraceSummary{Entries: append([]TraceEntry(nil), j.spanSums...)}
	j.mu.Unlock()
	sort.Slice(sum.Entries, func(a, b int) bool {
		ea, eb := sum.Entries[a], sum.Entries[b]
		if ea.Phase != eb.Phase {
			return ea.Phase < eb.Phase
		}
		return ea.Name < eb.Name
	})
	return sum
}

// StartRun opens a new run scope and returns its journal-local run ID
// (1-based, monotonic). now is the run's clock — the engine's, virtual
// under chaos — and the run's events are stamped with their offset from
// its reading here. members is the run's member list in index order; seed
// and theta pin the kernel configuration the stream was recorded under,
// so a replay can cross-check it. strategy names a single-member run's
// selection policy ("" for a multi-user run), which a multi-user replay
// refuses.
func (j *Journal) StartRun(now func() time.Time, members []string, seed int64, theta float64, strategy string) int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	if j.wallEpoch.IsZero() {
		j.wallEpoch = time.Now()
	}
	j.runSeq++
	run := j.runSeq
	j.runs[run] = &runRec{now: now, origin: now()}
	j.runIDs = append(j.runIDs, run)
	if len(j.runIDs) > maxJournalCurves {
		delete(j.runs, j.runIDs[0])
		j.runIDs = j.runIDs[1:]
	}
	j.mu.Unlock()
	j.record(Event{
		Run:      run,
		Kind:     EvRunStart,
		Members:  append([]string(nil), members...),
		Seed:     seed,
		Theta:    theta,
		Strategy: strategy,
	})
	return run
}

// EndRun closes a run scope and flushes the JSONL sink. msps and answers
// are the run's cumulative counts: what they grew since the last round
// barrier (finalize-time settles) lands in one final curve bucket, which
// run_end carries too, with the answers inferred since that barrier.
func (j *Journal) EndRun(run int64, rounds int, questions int64, msps, answers, inferred int) {
	if j == nil || run == 0 {
		return
	}
	j.mu.Lock()
	j.barrierLocked(Event{Run: run, Kind: EvRunEnd, Rounds: rounds, Questions: questions,
		Inferred: int64(inferred)}, rounds, msps, answers)
	j.mu.Unlock()
	j.Flush()
}

// barrierLocked records e, the round_end or run_end event of a barrier
// after round, given the run's cumulative MSP and distinct-answer counts:
// it appends the run's curve point (a run_end's only when the curve grew
// since the last point) and e carries the point's increments. Caller
// holds j.mu.
func (j *Journal) barrierLocked(e Event, round, msps, answers int) {
	if c := j.runs[e.Run]; c != nil {
		var last CurvePoint
		if n := len(c.points); n > 0 {
			last = c.points[n-1]
		}
		e.NewMSPs, e.NewAnswers = msps-last.MSPs, answers-last.Answers
		if e.Kind == EvRoundEnd || e.NewMSPs > 0 || e.NewAnswers > 0 {
			c.points = append(c.points, CurvePoint{Round: round, Questions: e.Questions,
				NewMSPs: e.NewMSPs, NewAnswers: e.NewAnswers, MSPs: msps, Answers: answers})
		}
	}
	j.recordLocked(e)
}

// AskEvent records one question issued by the kernel.
func (j *Journal) AskEvent(run int64, round int, ask int64, member, qkind, key string, probe bool, options int) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvAsk, Round: round, Ask: ask, Member: member,
		QKind: qkind, Key: key, Probe: probe, Options: options,
	})
}

// ReplyEvent records one usable (or post-stop discarded) reply with its
// raw broker payload. disp is "" for a folded reply, "discarded" for a
// reply consumed after the kernel stopped. The journal takes ownership of
// pruned: the caller must not modify it afterwards.
func (j *Journal) ReplyEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64, disp string) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvReply, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: pruned, Elapsed: elapsed, Disp: disp,
	})
}

// TimeoutEvent records a reply the kernel treated as timed out — either a
// broker-reported timeout or an answered reply that overran the configured
// deadline (the raw outcome is preserved so replay re-derives the same
// classification). struck reports whether this timeout struck the member
// out of the run. The journal takes ownership of pruned.
func (j *Journal) TimeoutEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64, struck bool) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvTimeout, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: pruned, Elapsed: elapsed, Struck: struck,
	})
}

// DepartureEvent records a reply reporting member departure. The journal
// takes ownership of pruned.
func (j *Journal) DepartureEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvDeparture, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: pruned, Elapsed: elapsed,
	})
}

// BanEvent records the Section 4.2 spammer filter banning the member.
func (j *Journal) BanEvent(run int64, round int, member string) {
	if j == nil {
		return
	}
	j.record(Event{Run: run, Kind: EvBan, Round: round, Member: member})
}

// SettleEvent records the aggregate decision on the node key, with the
// members whose own answer agreed and disagreed with it. The lists are
// stored as given, not copied.
func (j *Journal) SettleEvent(run int64, round int, key, decision string, agreed, disagreed []string) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvSettle, Round: round, Key: key,
		Decision: decision, Agreed: agreed, Disagreed: disagreed,
	})
}

// MSPEvent records one confirmed maximal significant pattern. questions
// is the usable-answer count at confirmation time — the x-axis of the
// arrival curve.
func (j *Journal) MSPEvent(run int64, round int, key string, questions int64) {
	if j == nil {
		return
	}
	j.record(Event{Run: run, Kind: EvMSP, Round: round, Key: key, Questions: questions})
}

// RoundEnd records a round barrier and appends the run's arrival-curve
// point. questions, msps and answers are the run's cumulative usable
// answers, confirmed MSPs and distinct answered questions after the
// round; the point and the round_end event carry the MSP and answer
// increments over the previous point. dur is the round's duration on the
// run's clock and inferred the answers inferred since the previous
// barrier.
func (j *Journal) RoundEnd(run int64, round, asks, replies, border int, questions int64, dur time.Duration, msps, answers, inferred int) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.barrierLocked(Event{
		Run: run, Kind: EvRoundEnd, Round: round, Asks: asks, Replies: replies,
		Border: border, Questions: questions, Elapsed: dur.Nanoseconds(), Inferred: int64(inferred),
	}, round, msps, answers)
	j.mu.Unlock()
}

// StoreEvent records one shared-answer-platform store interaction
// (EvStoreHit / EvStoreMiss / EvStoreJoin / EvStoreExpired) for the given
// member and question key.
func (j *Journal) StoreEvent(kind, member, key string) {
	if j == nil {
		return
	}
	j.record(Event{Kind: kind, Member: member, Key: key})
}

// Curve returns the run's arrival curve (nil if the run is unknown or was
// evicted by the per-run bound).
func (j *Journal) Curve(run int64) []CurvePoint {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.runs[run]
	if c == nil {
		return nil
	}
	return append([]CurvePoint(nil), c.points...)
}

// LastRun returns the ID of the most recently started run (0 before any
// StartRun).
func (j *Journal) LastRun() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.runSeq
}

// Events returns the surviving events in record order (oldest first).
func (j *Journal) Events() []Event { return j.Tail(0) }

// Tail returns the most recent n surviving events in record order (all of
// them if n <= 0 or n exceeds the ring population), copying only those.
func (j *Journal) Tail(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if n <= 0 || n > len(j.ring) {
		n = len(j.ring)
	}
	// The ring holds the oldest events at ring[next:] and the newest at
	// ring[:next]; the tail takes what it needs from the end of each.
	out := make([]Event, 0, n)
	if n > j.next {
		out = append(out, j.ring[len(j.ring)-(n-j.next):]...)
	}
	return append(out, j.ring[j.next-min(n, j.next):j.next]...)
}

// Total returns how many events were ever recorded.
func (j *Journal) Total() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns how many events were overwritten by ring wraparound.
func (j *Journal) Dropped() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// WriteJSONL writes the surviving ring events, one JSON object per line,
// in the same stable field order the sink uses.
func (j *Journal) WriteJSONL(w io.Writer) error { return j.WriteTailJSONL(w, 0) }

// WriteTailJSONL writes the most recent n surviving events as JSONL (all
// of them if n <= 0), in the sink's stable field order.
func (j *Journal) WriteTailJSONL(w io.Writer, n int) error {
	if j == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	evs := j.Tail(n)
	var buf []byte
	for i := range evs {
		buf = appendEventJSON(buf[:0], &evs[i])
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// --- wire format ---

// appendEventJSON encodes e with a fixed field order and omitted zero
// values, matching the struct's json tags so encoding/json decodes it
// back exactly. Floats use strconv 'g' with -1 precision — the shortest
// representation that round-trips bit-exactly, which the replay verifier
// depends on.
func appendEventJSON(b []byte, e *Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, e.Seq, 10)
	b = append(b, `,"run":`...)
	b = strconv.AppendInt(b, e.Run, 10)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, e.At, 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, e.Kind)
	b = appendStringsField(b, `,"members":[`, e.Members)
	b = appendIntField(b, `,"seed":`, e.Seed)
	b = appendFloatField(b, `,"theta":`, e.Theta)
	b = appendStringField(b, `,"strategy":`, e.Strategy)
	b = appendIntField(b, `,"round":`, int64(e.Round))
	b = appendIntField(b, `,"ask":`, e.Ask)
	b = appendStringField(b, `,"member":`, e.Member)
	b = appendStringField(b, `,"qkind":`, e.QKind)
	b = appendStringField(b, `,"key":`, e.Key)
	if e.Probe {
		b = append(b, `,"probe":true`...)
	}
	b = appendIntField(b, `,"options":`, int64(e.Options))
	b = appendStringField(b, `,"outcome":`, e.Outcome)
	b = appendFloatField(b, `,"support":`, e.Support)
	b = appendIntField(b, `,"choice":`, int64(e.Choice))
	if len(e.Pruned) > 0 {
		b = append(b, `,"pruned":[`...)
		for i, p := range e.Pruned {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	b = appendIntField(b, `,"elapsed_ns":`, e.Elapsed)
	b = appendStringField(b, `,"disp":`, e.Disp)
	if e.Struck {
		b = append(b, `,"struck":true`...)
	}
	b = appendStringField(b, `,"decision":`, e.Decision)
	b = appendStringsField(b, `,"agreed":[`, e.Agreed)
	b = appendStringsField(b, `,"disagreed":[`, e.Disagreed)
	b = appendIntField(b, `,"asks":`, int64(e.Asks))
	b = appendIntField(b, `,"replies":`, int64(e.Replies))
	b = appendIntField(b, `,"border":`, int64(e.Border))
	b = appendIntField(b, `,"questions":`, e.Questions)
	b = appendIntField(b, `,"new_msps":`, int64(e.NewMSPs))
	b = appendIntField(b, `,"new_answers":`, int64(e.NewAnswers))
	b = appendIntField(b, `,"rounds":`, int64(e.Rounds))
	b = appendIntField(b, `,"inferred":`, e.Inferred)
	b = appendStringField(b, `,"phase":`, e.Phase)
	if len(e.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range e.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"k":`...)
			b = appendJSONString(b, a.Key)
			b = append(b, `,"v":`...)
			b = strconv.AppendInt(b, a.Val, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendIntField appends field (its key) and v, unless v is zero.
func appendIntField(b []byte, field string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, field...), v, 10)
}

// appendFloatField appends field (its key) and v, unless v is zero.
func appendFloatField(b []byte, field string, v float64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendFloat(append(b, field...), v, 'g', -1, 64)
}

// appendStringField appends field (its key) and s quoted, unless s is
// empty.
func appendStringField(b []byte, field, s string) []byte {
	if s == "" {
		return b
	}
	return appendJSONString(append(b, field...), s)
}

// appendStringsField appends field (its key and opening bracket), the
// quoted strings and the closing bracket, unless ss is empty.
func appendStringsField(b []byte, field string, ss []string) []byte {
	if len(ss) == 0 {
		return b
	}
	b = append(b, field...)
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s)
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string literal: quotes,
// backslashes and control characters escaped, everything else verbatim.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, r := range s {
		switch r {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\t':
			b = append(b, '\\', 't')
		case '\r':
			b = append(b, '\\', 'r')
		default:
			if r < 0x20 {
				b = append(b, fmt.Sprintf(`\u%04x`, r)...)
			} else {
				b = append(b, string(r)...)
			}
		}
	}
	return append(b, '"')
}

// ReadJournalJSONL decodes a journal stream previously written by the
// JSONL sink or WriteJSONL. Blank lines are skipped; a malformed line, or
// one past the 16 MiB line limit, aborts with its line number.
func ReadJournalJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("journal line %d: %w", line+1, err)
	}
	return out, nil
}
