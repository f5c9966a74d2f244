package obs

// The journal is the engine's flight recorder: an append-only,
// sequence-numbered stream of structured crowd-run events (run start,
// every ask, every reply/timeout/departure with its raw payload, MSP
// confirmations, round barriers) recorded into a fixed-capacity ring with
// an optional JSONL sink. It follows the Tracer's design points exactly —
// one mutex, a preallocated ring, hand-rolled stable-field-order JSON so
// output is byte-deterministic, and an explicit clock hook so chaos
// VirtualClock runs journal reproducible timestamps. A nil *Journal is a
// no-op on every method, preserving the package's disabled-costs-a-nil-
// check contract.
//
// Because the mining kernel is a pure event fold, the recorded reply
// payloads are sufficient to re-run it: internal/journal.Replay feeds the
// stream back through the kernel and asserts the reconstruction is
// byte-identical to the live run. Replay identity deliberately does not
// depend on the At timestamps — they are observability, not state.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
	EvMSP          = "msp_confirmed"
	EvRoundEnd     = "round_end"
	EvRunEnd       = "run_end"
	EvStoreHit     = "store_hit"
	EvStoreMiss    = "store_miss"
	EvStoreJoin    = "store_join"
	EvStoreExpired = "store_expired"
	EvQueryExec    = "query_exec"
)

// Event is one journal entry. The struct is flat across all kinds: each
// kind populates its subset of fields and the encoder skips zero values,
// so decoding with encoding/json round-trips exactly (a missing field is
// the zero value). At is nanoseconds since the journal clock was bound —
// informational only; replay identity never reads it.
type Event struct {
	Seq  int64  `json:"seq"`
	Run  int64  `json:"run"`
	At   int64  `json:"at_ns"`
	Kind string `json:"kind"`

	// run_start
	Members []string `json:"members,omitempty"`
	Seed    int64    `json:"seed,omitempty"`
	Theta   float64  `json:"theta,omitempty"`

	// ask / reply / timeout / departure
	Round   int    `json:"round,omitempty"`
	Ask     int64  `json:"ask,omitempty"`
	Member  string `json:"member,omitempty"`
	QKind   string `json:"qkind,omitempty"`   // "concrete" | "specialize"
	Key     string `json:"key,omitempty"`     // node / question / MSP / query key
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

	// round_end / run_end / msp_confirmed
	Asks       int   `json:"asks,omitempty"`
	Replies    int   `json:"replies,omitempty"`
	Border     int   `json:"border,omitempty"`
	Questions  int64 `json:"questions,omitempty"`
	NewMSPs    int   `json:"new_msps,omitempty"`
	NewAnswers int   `json:"new_answers,omitempty"`
	Rounds     int   `json:"rounds,omitempty"`

	// query_exec
	Hit  bool  `json:"hit,omitempty"`
	Rows int64 `json:"rows,omitempty"`
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

// curveAcc accumulates one run's arrival curve between round barriers.
type curveAcc struct {
	points     []CurvePoint
	newMSPs    int
	newAnswers int
	msps       int
	answers    int
}

// DefaultJournalCapacity is the ring size used when NewJournal gets n <= 0.
const DefaultJournalCapacity = 65536

// maxJournalCurves bounds the per-run curve accumulators held in memory;
// the oldest run's curve is evicted when a newer run starts past the bound.
const maxJournalCurves = 64

// Journal records crowd-run events. Construct with NewJournal (or
// Observer.EnableJournal), optionally attach a JSONL sink with SetSink,
// and bind the engine clock with BindClock. All methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Journal struct {
	mu        sync.Mutex
	nowFn     func() time.Time
	epoch     time.Time
	haveEpoch bool
	ring      []Event
	next      int
	total     int64
	dropped   int64
	seq       int64
	runSeq    int64
	sink      *bufio.Writer
	sinkErr   error
	scratch   []byte
	curves    map[int64]*curveAcc
	curveIDs  []int64 // insertion order, for bounded eviction
}

// NewJournal returns a journal with the given ring capacity
// (DefaultJournalCapacity if n <= 0).
func NewJournal(n int) *Journal {
	if n <= 0 {
		n = DefaultJournalCapacity
	}
	return &Journal{
		ring:   make([]Event, 0, n),
		curves: make(map[int64]*curveAcc),
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

// BindClock binds the time source used for event timestamps — the engine
// driver passes its (possibly virtual) clock's Now, so chaos runs produce
// deterministic At offsets. The epoch is captured at first bind; events
// recorded before any bind carry At = 0.
func (j *Journal) BindClock(now func() time.Time) {
	if j == nil || now == nil {
		return
	}
	j.mu.Lock()
	j.nowFn = now
	if !j.haveEpoch {
		j.epoch = now()
		j.haveEpoch = true
	}
	j.mu.Unlock()
}

// at returns the current timestamp offset. Caller holds j.mu.
func (j *Journal) at() int64 {
	if j.nowFn == nil || !j.haveEpoch {
		return 0
	}
	return j.nowFn().Sub(j.epoch).Nanoseconds()
}

// record stamps, rings and sinks one event. Caller must NOT hold j.mu.
func (j *Journal) record(e Event) {
	j.mu.Lock()
	e.Seq = j.seq
	j.seq++
	e.At = j.at()
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, e)
	} else {
		j.ring[j.next] = e
		j.dropped++
	}
	j.next++
	if j.next == cap(j.ring) {
		j.next = 0
	}
	j.total++
	if j.sink != nil && j.sinkErr == nil {
		j.scratch = appendEventJSON(j.scratch[:0], &e)
		j.scratch = append(j.scratch, '\n')
		if _, err := j.sink.Write(j.scratch); err != nil {
			j.sinkErr = err
		}
	}
	j.mu.Unlock()
}

// StartRun opens a new run scope and returns its journal-local run ID
// (1-based, monotonic). members is the run's member list in index order;
// seed and theta pin the kernel configuration the stream was recorded
// under, so a replay can cross-check it.
func (j *Journal) StartRun(members []string, seed int64, theta float64) int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	j.runSeq++
	run := j.runSeq
	j.curves[run] = &curveAcc{}
	j.curveIDs = append(j.curveIDs, run)
	if len(j.curveIDs) > maxJournalCurves {
		delete(j.curves, j.curveIDs[0])
		j.curveIDs = j.curveIDs[1:]
	}
	j.mu.Unlock()
	j.record(Event{
		Run:     run,
		Kind:    EvRunStart,
		Members: append([]string(nil), members...),
		Seed:    seed,
		Theta:   theta,
	})
	return run
}

// EndRun closes a run scope: any arrival-curve deltas not yet flushed by a
// round barrier (finalize-time settles) land in one final bucket, the
// run_end event is recorded, and the JSONL sink is flushed.
func (j *Journal) EndRun(run int64, rounds int, questions int64) {
	if j == nil || run == 0 {
		return
	}
	j.mu.Lock()
	if c := j.curves[run]; c != nil && (c.newMSPs > 0 || c.newAnswers > 0) {
		j.flushCurveLocked(c, rounds, questions)
	}
	j.mu.Unlock()
	j.record(Event{Run: run, Kind: EvRunEnd, Rounds: rounds, Questions: questions})
	j.Flush()
}

// flushCurveLocked folds the accumulated deltas into a CurvePoint. Caller
// holds j.mu.
func (j *Journal) flushCurveLocked(c *curveAcc, round int, questions int64) {
	c.msps += c.newMSPs
	c.answers += c.newAnswers
	c.points = append(c.points, CurvePoint{
		Round:      round,
		Questions:  questions,
		NewMSPs:    c.newMSPs,
		NewAnswers: c.newAnswers,
		MSPs:       c.msps,
		Answers:    c.answers,
	})
	c.newMSPs, c.newAnswers = 0, 0
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
// reply consumed after the kernel stopped.
func (j *Journal) ReplyEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64, disp string) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvReply, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: append([]int32(nil), pruned...), Elapsed: elapsed, Disp: disp,
	})
}

// TimeoutEvent records a reply the kernel treated as timed out — either a
// broker-reported timeout or an answered reply that overran the configured
// deadline (the raw outcome is preserved so replay re-derives the same
// classification). struck reports whether this timeout struck the member
// out of the run.
func (j *Journal) TimeoutEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64, struck bool) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvTimeout, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: append([]int32(nil), pruned...), Elapsed: elapsed, Struck: struck,
	})
}

// DepartureEvent records a reply reporting member departure.
func (j *Journal) DepartureEvent(run int64, round int, ask int64, member, outcome string, support float64, choice int, pruned []int32, elapsed int64) {
	if j == nil {
		return
	}
	j.record(Event{
		Run: run, Kind: EvDeparture, Round: round, Ask: ask, Member: member,
		Outcome: outcome, Support: support, Choice: choice,
		Pruned: append([]int32(nil), pruned...), Elapsed: elapsed,
	})
}

// MSPEvent records one confirmed maximal significant pattern and credits
// the run's arrival curve. questions is the usable-answer count at
// confirmation time — the x-axis of the arrival curve.
func (j *Journal) MSPEvent(run int64, round int, key string, questions int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if c := j.curves[run]; c != nil {
		c.newMSPs++
	}
	j.mu.Unlock()
	j.record(Event{Run: run, Kind: EvMSP, Round: round, Key: key, Questions: questions})
}

// NoteNewAnswer credits one newly-discovered distinct answer (the first
// usable answer for a question) to the run's arrival curve. It records no
// event — the reply event already carries the answer.
func (j *Journal) NoteNewAnswer(run int64) {
	if j == nil {
		return
	}
	j.mu.Lock()
	if c := j.curves[run]; c != nil {
		c.newAnswers++
	}
	j.mu.Unlock()
}

// RoundEnd records a round barrier and flushes the round's arrival-curve
// deltas into a CurvePoint. questions is the cumulative usable-answer
// count after the round.
func (j *Journal) RoundEnd(run int64, round, asks, replies, border int, questions int64) {
	if j == nil {
		return
	}
	var newMSPs, newAnswers int
	j.mu.Lock()
	if c := j.curves[run]; c != nil {
		newMSPs, newAnswers = c.newMSPs, c.newAnswers
		j.flushCurveLocked(c, round, questions)
	}
	j.mu.Unlock()
	j.record(Event{
		Run: run, Kind: EvRoundEnd, Round: round, Asks: asks, Replies: replies,
		Border: border, Questions: questions, NewMSPs: newMSPs, NewAnswers: newAnswers,
	})
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

// QueryExec records one fleet query execution: its normalized key, wall
// time, whether the compile was a plan-cache hit, the rows streamed into
// space construction, and — when the execution went on to mine — the
// journal run ID of the mining run, joining per-query cost attribution to
// the run's question spend.
func (j *Journal) QueryExec(run int64, key string, elapsed int64, hit bool, rows int64) {
	if j == nil {
		return
	}
	j.record(Event{Run: run, Kind: EvQueryExec, Key: key, Elapsed: elapsed, Hit: hit, Rows: rows})
}

// Curve returns the run's arrival curve (nil if the run is unknown or was
// evicted by the per-run bound).
func (j *Journal) Curve(run int64) []CurvePoint {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	c := j.curves[run]
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
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if len(j.ring) < cap(j.ring) || j.dropped == 0 {
		out = append(out, j.ring[:len(j.ring)]...)
		return out
	}
	out = append(out, j.ring[j.next:]...)
	out = append(out, j.ring[:j.next]...)
	return out
}

// Tail returns the most recent n surviving events (all of them if n <= 0
// or n exceeds the ring population).
func (j *Journal) Tail(n int) []Event {
	evs := j.Events()
	if n <= 0 || n >= len(evs) {
		return evs
	}
	return evs[len(evs)-n:]
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
func (j *Journal) WriteJSONL(w io.Writer) error {
	if j == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	evs := j.Events()
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
	if len(e.Members) > 0 {
		b = append(b, `,"members":[`...)
		for i, m := range e.Members {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONString(b, m)
		}
		b = append(b, ']')
	}
	if e.Seed != 0 {
		b = append(b, `,"seed":`...)
		b = strconv.AppendInt(b, e.Seed, 10)
	}
	if e.Theta != 0 {
		b = append(b, `,"theta":`...)
		b = strconv.AppendFloat(b, e.Theta, 'g', -1, 64)
	}
	if e.Round != 0 {
		b = append(b, `,"round":`...)
		b = strconv.AppendInt(b, int64(e.Round), 10)
	}
	if e.Ask != 0 {
		b = append(b, `,"ask":`...)
		b = strconv.AppendInt(b, e.Ask, 10)
	}
	if e.Member != "" {
		b = append(b, `,"member":`...)
		b = appendJSONString(b, e.Member)
	}
	if e.QKind != "" {
		b = append(b, `,"qkind":`...)
		b = appendJSONString(b, e.QKind)
	}
	if e.Key != "" {
		b = append(b, `,"key":`...)
		b = appendJSONString(b, e.Key)
	}
	if e.Probe {
		b = append(b, `,"probe":true`...)
	}
	if e.Options != 0 {
		b = append(b, `,"options":`...)
		b = strconv.AppendInt(b, int64(e.Options), 10)
	}
	if e.Outcome != "" {
		b = append(b, `,"outcome":`...)
		b = appendJSONString(b, e.Outcome)
	}
	if e.Support != 0 {
		b = append(b, `,"support":`...)
		b = strconv.AppendFloat(b, e.Support, 'g', -1, 64)
	}
	if e.Choice != 0 {
		b = append(b, `,"choice":`...)
		b = strconv.AppendInt(b, int64(e.Choice), 10)
	}
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
	if e.Elapsed != 0 {
		b = append(b, `,"elapsed_ns":`...)
		b = strconv.AppendInt(b, e.Elapsed, 10)
	}
	if e.Disp != "" {
		b = append(b, `,"disp":`...)
		b = appendJSONString(b, e.Disp)
	}
	if e.Struck {
		b = append(b, `,"struck":true`...)
	}
	if e.Asks != 0 {
		b = append(b, `,"asks":`...)
		b = strconv.AppendInt(b, int64(e.Asks), 10)
	}
	if e.Replies != 0 {
		b = append(b, `,"replies":`...)
		b = strconv.AppendInt(b, int64(e.Replies), 10)
	}
	if e.Border != 0 {
		b = append(b, `,"border":`...)
		b = strconv.AppendInt(b, int64(e.Border), 10)
	}
	if e.Questions != 0 {
		b = append(b, `,"questions":`...)
		b = strconv.AppendInt(b, e.Questions, 10)
	}
	if e.NewMSPs != 0 {
		b = append(b, `,"new_msps":`...)
		b = strconv.AppendInt(b, int64(e.NewMSPs), 10)
	}
	if e.NewAnswers != 0 {
		b = append(b, `,"new_answers":`...)
		b = strconv.AppendInt(b, int64(e.NewAnswers), 10)
	}
	if e.Rounds != 0 {
		b = append(b, `,"rounds":`...)
		b = strconv.AppendInt(b, int64(e.Rounds), 10)
	}
	if e.Hit {
		b = append(b, `,"hit":true`...)
	}
	if e.Rows != 0 {
		b = append(b, `,"rows":`...)
		b = strconv.AppendInt(b, e.Rows, 10)
	}
	return append(b, '}')
}

// appendJSONString is writeJSONString for a byte slice.
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
