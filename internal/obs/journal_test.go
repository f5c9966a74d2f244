package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// journalFixtureEvents exercises every field shape the encoder handles:
// negative choices, shortest-round-trip floats, pruned slices, escaped
// strings, and zero values that must be omitted and decode back to zero.
func journalFixtureEvents() []Event {
	return []Event{
		{Kind: EvRunStart, Run: 1, Members: []string{"u1", `u"2\n`}, Seed: -7, Theta: 0.4,
			Strategy: "vertical"},
		{Kind: EvAsk, Run: 1, Round: 1, Ask: 42, Member: "u1", QKind: "specialize",
			Key: "s=1;", Probe: true, Options: 3},
		{Kind: EvReply, Run: 1, Round: 1, Ask: 42, Member: "u1", Outcome: "answered",
			Support: 0.1 + 0.2, Choice: -1, Pruned: []int32{3, -9}, Elapsed: 1500},
		{Kind: EvTimeout, Run: 1, Round: 2, Ask: 43, Member: "u1", Outcome: "answered",
			Elapsed: 9e9, Struck: true},
		{Kind: EvDeparture, Run: 1, Round: 2, Ask: 44, Member: "u1", Outcome: "departed"},
		{Kind: EvBan, Run: 1, Round: 2, Member: `u"2\n`},
		{Kind: EvSettle, Run: 1, Round: 3, Key: "s=1;p=2;", Decision: "significant",
			Agreed: []string{"u1"}, Disagreed: []string{`u"2\n`, "u3"}},
		{Kind: EvMSP, Run: 1, Round: 3, Key: "s=1;p=2;", Questions: 17},
		{Kind: EvRoundEnd, Run: 1, Round: 3, Asks: 5, Replies: 5, Border: 2,
			Questions: 17, NewMSPs: 1, NewAnswers: 4, Elapsed: 2e9, Inferred: 6},
		{Kind: EvRunEnd, Run: 1, Rounds: 3, Questions: 17, NewAnswers: 2, Inferred: 1},
		{Kind: EvStoreHit, Member: "u1", Key: "q\tkey"},
		{Kind: EvSpan, Run: 2, Key: `ro"und`, Elapsed: 250000, Phase: "fig5a",
			Attrs: []Attr{{Key: "asks", Val: 4}, {Key: "b\nx", Val: -1}}},
	}
}

// TestJournalEventJSONRoundTrip pins the wire format: the hand-rolled
// encoder must produce JSON that encoding/json decodes back into an
// identical Event, including float round-trips and escaped strings.
func TestJournalEventJSONRoundTrip(t *testing.T) {
	for i, want := range journalFixtureEvents() {
		want.Seq = int64(i)
		want.At = int64(i) * 1000
		line := appendEventJSON(nil, &want)
		var got Event
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("event %d: invalid JSON %q: %v", i, line, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("event %d round-trip diverged:\nencoded: %s\nwant %+v\ngot  %+v",
				i, line, want, got)
		}
	}
}

// TestJournalJSONLDeterminism pins byte-level determinism: recording the
// same events twice produces identical JSONL, and ReadJournalJSONL decodes
// the stream back to the recorded events.
func TestJournalJSONLDeterminism(t *testing.T) {
	write := func() (string, []Event) {
		j := newJournal(64)
		var sink bytes.Buffer
		j.SetSink(&sink)
		for _, e := range journalFixtureEvents() {
			j.record(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return sink.String(), j.Events()
	}
	out1, evs := write()
	out2, _ := write()
	if out1 != out2 {
		t.Fatalf("JSONL output is not deterministic:\n%s\nvs\n%s", out1, out2)
	}
	decoded, err := ReadJournalJSONL(strings.NewReader(out1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(evs, decoded) {
		t.Fatalf("sink decode diverged from ring:\nring: %+v\ndecoded: %+v", evs, decoded)
	}
	var buf bytes.Buffer
	j := newJournal(64)
	for _, e := range journalFixtureEvents() {
		j.record(e)
	}
	if err := j.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != out1 {
		t.Fatalf("WriteJSONL diverged from sink output:\n%s\nvs\n%s", buf.String(), out1)
	}
}

// TestJournalRingOverwrite checks wraparound accounting: a ring of n keeps
// the newest n events in order, counts drops, while a sink still sees all.
func TestJournalRingOverwrite(t *testing.T) {
	j := newJournal(4)
	var sink bytes.Buffer
	j.SetSink(&sink)
	for i := 0; i < 10; i++ {
		j.record(Event{Kind: EvAsk, Ask: int64(i)})
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if j.Total() != 10 || j.Dropped() != 6 {
		t.Fatalf("Total=%d Dropped=%d, want 10/6", j.Total(), j.Dropped())
	}
	evs := j.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Ask != int64(6+i) || e.Seq != int64(6+i) {
			t.Fatalf("event %d: ask=%d seq=%d, want %d", i, e.Ask, e.Seq, 6+i)
		}
	}
	if tail := j.Tail(2); len(tail) != 2 || tail[1].Ask != 9 {
		t.Fatalf("Tail(2) = %+v", tail)
	}
	all, err := ReadJournalJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("sink saw %d events, want all 10", len(all))
	}
}

// TestJournalTailCopiesOnlyTail checks that Tail on a full, wrapped ring
// returns the newest n events in record order whichever side of the wrap
// point they lie, and that Tail(256) allocates about 256 events, not the
// whole ring (GET /journal serves Tail(256) under the journal lock).
func TestJournalTailCopiesOnlyTail(t *testing.T) {
	j := newJournal(DefaultJournalCapacity)
	const wrap = 1000
	for i := 0; i < DefaultJournalCapacity+wrap; i++ {
		j.record(Event{Kind: EvAsk})
	}
	total := j.Total()
	for _, n := range []int{1, 256, wrap, wrap + 1, 5000, DefaultJournalCapacity, DefaultJournalCapacity + 1, 0, -1} {
		want := n
		if n <= 0 || n > DefaultJournalCapacity {
			want = DefaultJournalCapacity
		}
		tail := j.Tail(n)
		if len(tail) != want || cap(tail) != want {
			t.Fatalf("Tail(%d): len %d cap %d, want %d", n, len(tail), cap(tail), want)
		}
		for i, e := range tail {
			if e.Seq != total-int64(want-i) {
				t.Fatalf("Tail(%d)[%d].Seq = %d, want %d", n, i, e.Seq, total-int64(want-i))
			}
		}
	}

	const calls = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		j.Tail(256)
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	if limit := uint64(2 * 256 * unsafe.Sizeof(Event{})); perCall > limit {
		t.Fatalf("Tail(256) allocated %d bytes a call, want at most %d", perCall, limit)
	}
}

// TestJournalClockAndCurve drives one synthetic run through the journal's
// run lifecycle on an explicit clock and checks the arrival curve buckets.
func TestJournalClockAndCurve(t *testing.T) {
	now := time.Unix(100, 0)
	j := newJournal(DefaultJournalCapacity)

	run := j.StartRun(func() time.Time { return now }, []string{"u1", "u2"}, 9, 0.3, "")
	if run != 1 {
		t.Fatalf("run = %d, want 1", run)
	}
	if j.LastRun() != 1 {
		t.Fatalf("LastRun = %d", j.LastRun())
	}
	now = now.Add(5 * time.Millisecond)
	j.MSPEvent(run, 1, "k1", 2)
	j.RoundEnd(run, 1, 2, 2, 1, 2, time.Millisecond, 1, 2, 0)
	j.EndRun(run, 2, 3, 1, 3, 0)

	curve := j.Curve(run)
	want := []CurvePoint{
		{Round: 1, Questions: 2, NewMSPs: 1, NewAnswers: 2, MSPs: 1, Answers: 2},
		{Round: 2, Questions: 3, NewAnswers: 1, MSPs: 1, Answers: 3},
	}
	if !reflect.DeepEqual(curve, want) {
		t.Fatalf("curve = %+v, want %+v", curve, want)
	}

	evs := j.Events()
	if evs[0].Kind != EvRunStart || evs[0].At != 0 {
		t.Fatalf("run_start = %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != EvRunEnd || last.At != int64(5*time.Millisecond) {
		t.Fatalf("run_end = %+v", last)
	}
	// The barriers carry the curve increments, so the stream holds the
	// whole curve.
	if end := evs[len(evs)-2]; end.Kind != EvRoundEnd || end.NewMSPs != 1 || end.NewAnswers != 2 {
		t.Fatalf("round_end = %+v", end)
	}
	if last.NewMSPs != 0 || last.NewAnswers != 1 {
		t.Fatalf("run_end carries %d new MSPs and %d new answers, want the tail bucket's 0 and 1",
			last.NewMSPs, last.NewAnswers)
	}
}

// TestJournalRunClocks pins the time base of a journal shared by runs on
// different clocks: each run's events are offsets on its own clock from
// its start, so a virtual clock set decades back interleaved with a wall
// clock run stamps neither negative; run-0 events carry 0 until the first
// StartRun and wall-clock offsets from it afterwards.
func TestJournalRunClocks(t *testing.T) {
	j := newJournal(DefaultJournalCapacity)
	j.Span(0, "before", time.Millisecond)
	virt := time.Unix(7, 0)
	vrun := j.StartRun(func() time.Time { return virt }, []string{"v"}, 1, 0.5, "")
	wrun := j.StartRun(time.Now, []string{"w"}, 1, 0.5, "")
	virt = virt.Add(3 * time.Second)
	j.AskEvent(vrun, 1, 1, "v", "concrete", "k", false, 0)
	j.AskEvent(wrun, 1, 1, "w", "concrete", "k", false, 0)
	j.Span(0, "after", time.Millisecond)
	virt = virt.Add(time.Second)
	j.EndRun(vrun, 1, 1, 0, 0, 0)
	j.EndRun(wrun, 1, 1, 0, 0, 0)

	evs := j.Events()
	if evs[0].Key != "before" || evs[0].At != 0 {
		t.Fatalf("span before any run = %+v, want at_ns 0", evs[0])
	}
	var vAt []int64
	for _, e := range evs {
		if e.At < 0 {
			t.Fatalf("negative at_ns: %+v", e)
		}
		if e.Run == vrun {
			vAt = append(vAt, e.At)
		}
	}
	if want := []int64{0, int64(3 * time.Second), int64(4 * time.Second)}; !reflect.DeepEqual(vAt, want) {
		t.Fatalf("virtual run at_ns = %v, want %v", vAt, want)
	}
}

// TestReadJournalQueryExecLine: a journal line of the retired query_exec
// kind, with its hit and rows fields, still decodes; the fields the Event
// no longer has are ignored.
func TestReadJournalQueryExecLine(t *testing.T) {
	in := `{"seq":0,"run":1,"at_ns":0,"kind":"run_start","members":["u1"]}` + "\n" +
		`{"seq":1,"run":2,"at_ns":5,"kind":"query_exec","key":"q0001","elapsed_ns":12345,"hit":true,"rows":99}` + "\n"
	got, err := ReadJournalJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Seq: 0, Run: 1, Kind: EvRunStart, Members: []string{"u1"}},
		{Seq: 1, Run: 2, At: 5, Kind: "query_exec", Key: "q0001", Elapsed: 12345},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// TestJournalCurveEviction checks the per-run curve bound: curves past
// maxJournalCurves are evicted oldest-first, newest runs stay queryable.
func TestJournalCurveEviction(t *testing.T) {
	j := newJournal(DefaultJournalCapacity)
	var last int64
	for i := 0; i < maxJournalCurves+5; i++ {
		last = j.StartRun(time.Now, []string{"u"}, 1, 0.5, "")
		j.RoundEnd(last, 1, 1, 1, 0, 1, 0, 0, 1, 0)
	}
	if j.Curve(1) != nil {
		t.Fatal("oldest curve survived past the bound")
	}
	if c := j.Curve(last); len(c) != 1 || c[0].NewAnswers != 1 {
		t.Fatalf("newest curve = %+v", c)
	}
}

// TestJournalNilSafety: every method must be a no-op on a nil journal.
func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	j.SetSink(&bytes.Buffer{})
	run := j.StartRun(time.Now, []string{"u"}, 1, 0.5, "")
	j.AskEvent(run, 1, 1, "u", "concrete", "k", false, 0)
	j.ReplyEvent(run, 1, 1, "u", "answered", 0.5, -1, nil, 0, "")
	j.TimeoutEvent(run, 1, 1, "u", "answered", 0, -1, nil, 0, false)
	j.DepartureEvent(run, 1, 1, "u", "departed", 0, -1, nil, 0)
	j.MSPEvent(run, 1, "k", 1)
	j.RoundEnd(run, 1, 1, 1, 0, 1, time.Millisecond, 1, 1, 0)
	j.StoreEvent(EvStoreHit, "u", "k")
	j.SetPhase("p")
	j.Span(run, "round", time.Millisecond, Attr{Key: "asks", Val: 1})
	start := j.Begin()
	if !start.IsZero() {
		t.Fatal("nil journal read the clock in Begin")
	}
	j.End("space_build", start)
	j.EndRun(run, 1, 1, 1, 1, 0)
	if j.Events() != nil || j.Curve(run) != nil || j.Total() != 0 || j.LastRun() != 0 ||
		j.Summary() != nil {
		t.Fatal("nil journal retained state")
	}
	if err := j.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

// TestJournalOwnsPruned: a reply, timeout or departure event keeps the
// pruned list it is given instead of copying it, so journaling one with
// three pruned terms allocates no more than journaling one without.
func TestJournalOwnsPruned(t *testing.T) {
	j := newJournal(4)
	pruned := []int32{3, 5, 8}
	for name, record := range map[string]func(p []int32){
		"reply":     func(p []int32) { j.ReplyEvent(1, 1, 1, "u", "answered", 0.5, -1, p, 10, "") },
		"timeout":   func(p []int32) { j.TimeoutEvent(1, 1, 1, "u", "answered", 0.5, -1, p, 10, false) },
		"departure": func(p []int32) { j.DepartureEvent(1, 1, 1, "u", "departed", 0, -1, p, 10) },
	} {
		for i := 0; i < 4; i++ {
			record(nil) // fill the ring, so later events overwrite in place
		}
		without := testing.AllocsPerRun(100, func() { record(nil) })
		with := testing.AllocsPerRun(100, func() { record(pruned) })
		if with != without {
			t.Errorf("%s: %v allocations with three pruned terms, %v without", name, with, without)
		}
		if evs := j.Tail(1); &evs[0].Pruned[0] != &pruned[0] {
			t.Errorf("%s: the journal copied the pruned list", name)
		}
	}
}

// TestJournalConcurrentRecord hammers the ring, the sink, the curves and
// the kernel fold from many goroutines; run under -race this pins the
// locking discipline, the sequence numbers must come out dense and unique,
// and every run's curve and the folded counters must count every event.
func TestJournalConcurrentRecord(t *testing.T) {
	j := newJournal(128)
	k := NewKernelMetrics(NewRegistry())
	j.kernel = k
	var sink bytes.Buffer
	j.SetSink(&sink)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run := j.StartRun(time.Now, []string{fmt.Sprintf("w%d", w)}, int64(w), 0.5, "")
			for i := 0; i < per; i++ {
				j.AskEvent(run, 1, int64(i), "m", "concrete", "k", false, 0)
			}
			j.RoundEnd(run, 1, per, 0, 0, 0, time.Millisecond, 0, per, 1)
			j.EndRun(run, 1, 0, 0, per, 1)
		}(w)
	}
	wg.Wait()
	for run := int64(1); run <= workers; run++ {
		if c := j.Curve(run); len(c) != 1 || c[0].NewAnswers != per {
			t.Fatalf("run %d curve = %+v, want one point of %d new answers", run, c, per)
		}
	}
	if k.InFlight.Value() != workers*per || k.Asks.Value() != workers*per ||
		k.Rounds.Value() != workers || k.Inferred.Value() != 2*workers || k.RoundDur.Count() != workers {
		t.Fatalf("folded in-flight %d, asks %d, rounds %d, inferred %d, durations %d",
			k.InFlight.Value(), k.Asks.Value(), k.Rounds.Value(), k.Inferred.Value(), k.RoundDur.Count())
	}
	const wantTotal = workers * (per + 3) // run_start + asks + round_end + run_end
	if j.Total() != wantTotal {
		t.Fatalf("Total = %d, want %d", j.Total(), wantTotal)
	}
	all, err := ReadJournalJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != wantTotal {
		t.Fatalf("sink saw %d events, want %d", len(all), wantTotal)
	}
	seen := make(map[int64]bool, len(all))
	for _, e := range all {
		if seen[e.Seq] {
			t.Fatalf("duplicate seq %d", e.Seq)
		}
		seen[e.Seq] = true
	}
	if int64(len(seen)) != wantTotal || seen[wantTotal] {
		t.Fatal("sequence numbers are not dense")
	}
}

// TestJournalSpanJSONL pins the span wire format: a span line carries
// its name in key, its duration in elapsed_ns, the phase and the attrs,
// and ReadJournalJSONL decodes it back to an equal Event.
func TestJournalSpanJSONL(t *testing.T) {
	j := newJournal(16)
	var sink bytes.Buffer
	j.SetSink(&sink)
	j.SetPhase("fig5a")
	j.Span(3, "round", 250*time.Microsecond, Attr{Key: "asks", Val: 4}, Attr{Key: "border", Val: 2})
	j.SetPhase("")
	j.Span(0, `qu"ote`, 0)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	want := `{"seq":0,"run":3,"at_ns":0,"kind":"span","key":"round","elapsed_ns":250000,"phase":"fig5a","attrs":[{"k":"asks","v":4},{"k":"border","v":2}]}`
	if lines[0] != want {
		t.Fatalf("span line:\n got %s\nwant %s", lines[0], want)
	}
	decoded, err := ReadJournalJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, j.Events()) {
		t.Fatalf("decoded spans diverge from the ring:\n%+v\nvs\n%+v", decoded, j.Events())
	}
	if decoded[1].Key != `qu"ote` || decoded[1].Phase != "" || decoded[1].Attrs != nil {
		t.Fatalf("second span = %+v", decoded[1])
	}
}

// TestJournalSpanSummaryAfterWrap: the summary counts every span ever
// recorded, not the ring's survivors.
func TestJournalSpanSummaryAfterWrap(t *testing.T) {
	j := newJournal(4)
	j.SetPhase("mine")
	for i := 0; i < 10; i++ {
		j.Span(1, "round", time.Millisecond, Attr{Key: "asks", Val: int64(i)})
	}
	if len(j.Events()) != 4 || j.Dropped() != 6 {
		t.Fatalf("ring holds %d events, dropped %d; want 4 and 6", len(j.Events()), j.Dropped())
	}
	if first := j.Events()[0]; first.Attrs[0].Val != 6 {
		t.Fatalf("oldest surviving span = %+v, want asks=6", first)
	}
	sum := j.Summary()
	if len(sum.Entries) != 1 {
		t.Fatalf("entries = %+v", sum.Entries)
	}
	e := sum.Entries[0]
	if e.Phase != "mine" || e.Name != "round" || e.Count != 10 || e.Total != 10*time.Millisecond {
		t.Fatalf("entry = %+v, want mine/round 10 × 10ms", e)
	}
	if !strings.Contains(sum.String(), "mine/round") {
		t.Fatalf("summary string: %q", sum.String())
	}
}

// TestJournalSpanSummaryOrder pins the output contracts downstream
// tooling depends on: Summary entries come out sorted by (phase, name)
// regardless of record order, and two journals fed the same spans emit
// byte-identical JSONL.
func TestJournalSpanSummaryOrder(t *testing.T) {
	build := func() *Journal {
		j := newJournal(16)
		j.SetPhase("zeta")
		j.Span(0, "late", time.Millisecond)
		j.Span(0, "early", 2*time.Millisecond, Attr{Key: "k", Val: 1})
		j.SetPhase("alpha")
		j.Span(0, "late", time.Millisecond)
		return j
	}
	j1, j2 := build(), build()
	var b1, b2 bytes.Buffer
	if err := j1.WriteJSONL(&b1); err != nil {
		t.Fatal(err)
	}
	if err := j2.WriteJSONL(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("JSONL output not deterministic:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	var order []string
	for _, e := range j1.Summary().Entries {
		order = append(order, e.Phase+"/"+e.Name)
	}
	want := []string{"alpha/late", "zeta/early", "zeta/late"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("summary order = %v, want %v", order, want)
	}
	if j1.Summary().String() != j2.Summary().String() {
		t.Fatal("summary rendering not deterministic")
	}
}

// TestJournalSpanConcurrent records spans from many goroutines into a
// tiny ring while phases change and summaries are read; -race pins the
// locking discipline, and the summary and drop accounting must balance.
func TestJournalSpanConcurrent(t *testing.T) {
	j := newJournal(8)
	const workers, per = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if w == 0 {
					j.SetPhase("p")
					j.Summary()
				}
				j.End("op", j.Begin(), Attr{Key: "i", Val: int64(i)})
			}
		}(w)
	}
	wg.Wait()
	evs := j.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	for _, e := range evs {
		if e.Kind != EvSpan || e.Key != "op" || len(e.Attrs) != 1 {
			t.Fatalf("corrupted span: %+v", e)
		}
	}
	if got := j.Dropped(); got != workers*per-8 {
		t.Fatalf("dropped = %d, want %d", got, workers*per-8)
	}
	var n int64
	for _, e := range j.Summary().Entries {
		n += e.Count
	}
	if n != workers*per {
		t.Fatalf("summary counts %d spans, want %d", n, workers*per)
	}
}

// TestScoreboardSnapshot folds a hand-written event stream and checks the
// derived rates, quantiles and Prometheus families.
func TestScoreboardSnapshot(t *testing.T) {
	r := NewRegistry()
	var evs []Event
	for i := 0; i < 4; i++ {
		evs = append(evs, Event{Kind: EvAsk, Member: "u1"})
	}
	evs = append(evs,
		Event{Kind: EvReply, Member: "u1", Support: 0.8, Elapsed: int64(10 * time.Millisecond)},
		Event{Kind: EvReply, Member: "u1", Support: 0.4, Elapsed: int64(30 * time.Millisecond)},
		Event{Kind: EvReply, Member: "u1", Support: 1, Disp: "discarded"}, // not tallied
		Event{Kind: EvTimeout, Member: "u1"},
		Event{Kind: EvTimeout, Member: "u1", Struck: true}, // also the departure
		Event{Kind: EvSettle, Agreed: []string{"u1"}},
		Event{Kind: EvSettle, Agreed: []string{"u1"}},
		Event{Kind: EvSettle, Disagreed: []string{"u1"}},
		Event{Kind: EvAsk, Member: "u2"},
		Event{Kind: EvBan, Member: "u2"},
		Event{Kind: EvBan, Member: "u2"}, // second ban must not double-count the metric
	)
	b := FoldScoreboard(r, evs)

	cards := b.Snapshot()
	if len(cards) != 2 || cards[0].Member != "u1" || cards[1].Member != "u2" {
		t.Fatalf("snapshot = %+v", cards)
	}
	u1 := cards[0]
	if u1.Asked != 4 || u1.Answered != 2 || u1.Timeouts != 2 || u1.Strikes != 1 || !u1.Departed {
		t.Fatalf("u1 counts = %+v", u1)
	}
	if u1.TimeoutRate != 0.5 {
		t.Fatalf("TimeoutRate = %v", u1.TimeoutRate)
	}
	if diff := u1.MeanSupport - 0.6; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("MeanSupport = %v", u1.MeanSupport)
	}
	if diff := u1.Agreement - 2.0/3.0; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("Agreement = %v", u1.Agreement)
	}
	if u1.P50Latency <= 0 || u1.P95Latency < u1.P50Latency || u1.P99Latency < u1.P95Latency {
		t.Fatalf("latency quantiles not ordered: %+v", u1)
	}
	u2 := cards[1]
	if !u2.Banned || u2.Agreement != -1 {
		t.Fatalf("u2 = %+v", u2)
	}

	var prom bytes.Buffer
	r.WritePrometheus(&prom)
	text := prom.String()
	for _, want := range []string{
		`oassis_member_replies_total{member="u1",outcome="answered"} 2`,
		`oassis_member_replies_total{member="u1",outcome="timedout"} 2`,
		`oassis_member_replies_total{member="u1",outcome="departed"} 1`,
		`oassis_member_strikes_total{member="u1"} 1`,
		`oassis_member_bans_total{member="u2"} 1`,
		`oassis_member_agreement_total{member="u1",verdict="agreed"} 2`,
		`oassis_member_round_trip_seconds_p50{member="u1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}

	var nilBoard *Scoreboard
	if nilBoard.Snapshot() != nil {
		t.Fatal("nil scoreboard returned cards")
	}
}

// TestScoreboardConcurrentFold records member events from several
// goroutines into a journal that carries a board while another goroutine
// snapshots it, and requires every event tallied once.
func TestScoreboardConcurrentFold(t *testing.T) {
	o := New()
	b := o.EnableScorecards()
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				o.JournalSet().AskEvent(1, 1, int64(i), m, "concrete", "k", false, 0)
				o.JournalSet().ReplyEvent(1, 1, int64(i), m, "answered", 0.5, 0, nil, 1000, "")
			}
		}(fmt.Sprintf("m%d", w%2))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			o.BoardSet().Snapshot()
		}
	}()
	wg.Wait()
	<-done
	cards := b.Snapshot()
	if len(cards) != 2 {
		t.Fatalf("snapshot = %+v", cards)
	}
	for _, c := range cards {
		if c.Asked != 2*per || c.Answered != 2*per {
			t.Fatalf("%s: asked %d answered %d, want %d each", c.Member, c.Asked, c.Answered, 2*per)
		}
	}
}

// TestScoreboardFoldHostile folds member events no kernel records —
// NaN, infinite and negative supports and latencies, a ban before any
// ask, settle lists naming members never asked — and requires a snapshot
// that tallies each as the fold rules say, without panicking.
func TestScoreboardFoldHostile(t *testing.T) {
	b := FoldScoreboard(NewRegistry(), []Event{
		{Kind: EvBan, Member: "m"},
		{Kind: EvReply, Member: "m", Support: math.NaN(), Elapsed: -5},
		{Kind: EvReply, Member: "m", Support: math.Inf(-1), Elapsed: math.MinInt64},
		{Kind: EvSettle, Agreed: []string{"ghost", ""}, Disagreed: []string{"ghost"}},
		{Kind: EvTimeout, Struck: true},
	})
	cards := b.Snapshot()
	if len(cards) != 3 || cards[0].Member != "" || cards[1].Member != "ghost" || cards[2].Member != "m" {
		t.Fatalf("snapshot = %+v", cards)
	}
	if anon := cards[0]; anon.Strikes != 1 || !anon.Departed || anon.Agreement != 1 {
		t.Fatalf("unnamed member = %+v", anon)
	}
	if ghost := cards[1]; ghost.Asked != 0 || ghost.Agreement != 0.5 {
		t.Fatalf("ghost = %+v", ghost)
	}
	if m := cards[2]; !m.Banned || m.Asked != 0 || m.Answered != 2 || !math.IsNaN(m.MeanSupport) {
		t.Fatalf("m = %+v", m)
	}
}

// TestHistogramQuantile pins the linear-interpolation estimator on a
// hand-checkable distribution.
func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// 10 observations in (0,1], 10 in (1,2]; none beyond.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
	}
	if q := h.Quantile(0.25); q != 0.5 {
		t.Fatalf("Quantile(0.25) = %v, want 0.5 (middle of first bucket)", q)
	}
	if q := h.Quantile(0.5); q != 1 {
		t.Fatalf("Quantile(0.5) = %v, want 1 (first bucket boundary)", q)
	}
	if q := h.Quantile(0.75); q != 1.5 {
		t.Fatalf("Quantile(0.75) = %v, want 1.5", q)
	}
	if q := h.Quantile(1); q != 2 {
		t.Fatalf("Quantile(1) = %v, want 2", q)
	}
	// Overflow observations clamp to the last finite bound.
	h2 := NewHistogram([]float64{1})
	h2.Observe(100)
	if q := h2.Quantile(0.99); q != 1 {
		t.Fatalf("overflow Quantile = %v, want clamp to last bound", q)
	}
	var hnil *Histogram
	if hnil.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile")
	}
	if NewHistogram([]float64{1}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile")
	}
}
