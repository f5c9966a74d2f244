package oassis_test

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"oassis"
	"oassis/internal/paperdata"
)

// chaosJournalFaults builds a fault schedule that provokes both failure
// modes the flight recorder must capture: heavy-tailed latencies against a
// short answer deadline (timeouts) and mid-run departures.
func chaosJournalFaults() []oassis.Faults {
	faults := make([]oassis.Faults, 6)
	for i := range faults {
		faults[i].LatencyMin = 15 * time.Second
		faults[i].LatencyMax = 2 * time.Minute
		faults[i].HeavyTailAlpha = 1.5
	}
	faults[1].DepartAfter = 2
	faults[4].DepartAfter = 1
	return faults
}

// chaosJournalRun drives one sequential chaos run with o attached (none
// when nil): virtual clock, a 1-minute answer deadline under 2-minute
// worst-case latencies (so some answers must overrun it) and two scheduled
// departures.
func chaosJournalRun(t *testing.T, o *oassis.Observer, extra ...oassis.Option) (*oassis.Session, *oassis.Result) {
	t.Helper()
	clock := oassis.NewVirtualClock()
	opts := append([]oassis.Option{
		oassis.WithClock(clock),
		oassis.WithAnswerDeadline(time.Minute),
		oassis.WithTranscript(),
	}, extra...)
	if o != nil {
		opts = append(opts, oassis.WithObserver(o))
	}
	sess, v := chaosSession(t, opts...)
	res, err := sess.Run(u1Clones(t, v, clock, chaosJournalFaults()))
	if err != nil {
		t.Fatal(err)
	}
	return sess, res
}

// TestJournalReplayChaos is the tentpole acceptance test: record a chaos
// run — departures and deadline timeouts both present — through the JSONL
// sink, decode the stream back, re-fold it through a fresh kernel with no
// crowd attached, and require the reconstruction to be byte-identical on
// kernel state. When JOURNAL_ARTIFACT is set, the recorded stream is also
// written there so CI can upload it.
func TestJournalReplayChaos(t *testing.T) {
	o := oassis.NewObserver()
	j := o.JournalSet()
	var sink bytes.Buffer
	j.SetSink(&sink)

	live, liveRes := chaosJournalRun(t, o)
	if liveRes.Stats.Departures == 0 {
		t.Fatal("chaos run produced no departures; scenario too tame to exercise the journal")
	}
	if liveRes.Stats.TimedOut == 0 {
		t.Fatal("chaos run produced no deadline timeouts; scenario too tame to exercise the journal")
	}
	if len(liveRes.Curve) == 0 {
		t.Fatal("journaled run returned no answer-arrival curve")
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatalf("journal sink error: %v", err)
	}

	if path := os.Getenv("JOURNAL_ARTIFACT"); path != "" {
		if err := os.WriteFile(path, sink.Bytes(), 0o644); err != nil {
			t.Fatalf("writing JOURNAL_ARTIFACT: %v", err)
		}
		t.Logf("journal artifact: %s (%d bytes, %d events)", path, sink.Len(), j.Total())
	}

	events, err := oassis.ReadJournal(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("decoding recorded JSONL: %v", err)
	}
	if int64(len(events)) != j.Total() {
		t.Fatalf("sink carries %d events, journal recorded %d", len(events), j.Total())
	}

	// The replay session mirrors the recorded run's configuration but has
	// no clock, no journal and no crowd: every answer comes from the
	// recorded stream.
	replaySess, _ := chaosSession(t,
		oassis.WithAnswerDeadline(time.Minute),
		oassis.WithTranscript(),
	)
	replayed, err := replaySess.Replay(events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := oassis.VerifyReplayIdentity(liveRes, replayed); err != nil {
		t.Fatalf("replay diverged from live run: %v", err)
	}

	// Belt and braces on top of VerifyReplayIdentity: the user-facing
	// answer strings round-trip too.
	liveAns := sortedAnswers(live, liveRes)
	repAns := sortedAnswers(replaySess, replayed)
	if strings.Join(liveAns, "\n") != strings.Join(repAns, "\n") {
		t.Fatalf("replayed answers diverged:\n%v\nvs\n%v", repAns, liveAns)
	}
}

// TestJournalReplayRefusesSingleMember records a Vertical run on the
// paper's simple query and checks that Session.Replay refuses it, naming
// the strategy, instead of re-folding it through a multi-user engine.
func TestJournalReplayRefusesSingleMember(t *testing.T) {
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	o := oassis.NewObserver()
	j := o.JournalSet()
	var sink bytes.Buffer
	j.SetSink(&sink)
	sess, err := oassis.NewSession(store, q, oassis.WithSeed(2), oassis.WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	du1, _ := paperdata.Table3(v)
	m := oassis.NewSimMember("u1", v, du1, 1)
	m.Scale = nil
	if _, err := sess.RunSingle(m, oassis.Vertical); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	events, err := oassis.ReadJournal(&sink)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Replay(events)
	if err == nil || !strings.Contains(err.Error(), "single-member vertical run") {
		t.Fatalf("replay of a single-member run: err = %v, want a refusal naming the strategy", err)
	}
	if res != nil {
		t.Fatal("refused replay returned a result")
	}
}

// TestJournalZeroBehaviorChange pins the observer-side-channel contract:
// attaching a journal must not perturb the run. Same seed, same chaos
// timeline, identical transcripts, stats and answers with and without it.
func TestJournalZeroBehaviorChange(t *testing.T) {
	bareSess, bareRes := chaosJournalRun(t, nil)
	jSess, jRes := chaosJournalRun(t, oassis.NewObserver())

	if !reflect.DeepEqual(bareRes.Stats, jRes.Stats) {
		t.Fatalf("journal changed Stats:\n%+v\nvs\n%+v", jRes.Stats, bareRes.Stats)
	}
	bareAns := sortedAnswers(bareSess, bareRes)
	jAns := sortedAnswers(jSess, jRes)
	if strings.Join(bareAns, "\n") != strings.Join(jAns, "\n") {
		t.Fatalf("journal changed answers:\n%v\nvs\n%v", jAns, bareAns)
	}
	for m, lines := range bareRes.Transcripts {
		if strings.Join(lines, "\n") != strings.Join(jRes.Transcripts[m], "\n") {
			t.Fatalf("journal changed %s's transcript", m)
		}
	}
	if bareRes.Curve != nil {
		t.Fatal("run without a journal carried a curve")
	}
	if len(jRes.Curve) == 0 {
		t.Fatal("journaled run carried no curve")
	}
}

// TestJournalCurveShape checks the answer-arrival curve's invariants: one
// point per non-empty round, cumulative question counts non-decreasing,
// cumulative totals consistent with the per-round increments, and the
// final totals agreeing with the run's stats.
func TestJournalCurveShape(t *testing.T) {
	_, res := chaosJournalRun(t, oassis.NewObserver())
	curve := res.Curve
	if len(curve) == 0 {
		t.Fatal("no curve recorded")
	}
	var msps, answers, prevRound int
	prevQ := int64(-1)
	for i, p := range curve {
		if p.Round <= prevRound {
			t.Fatalf("curve[%d]: round %d not increasing (prev %d)", i, p.Round, prevRound)
		}
		if p.Questions < prevQ {
			t.Fatalf("curve[%d]: cumulative questions %d decreased (prev %d)", i, p.Questions, prevQ)
		}
		msps += p.NewMSPs
		answers += p.NewAnswers
		if p.MSPs != msps {
			t.Fatalf("curve[%d]: cumulative MSPs %d, increments sum to %d", i, p.MSPs, msps)
		}
		if p.Answers != answers {
			t.Fatalf("curve[%d]: cumulative answers %d, increments sum to %d", i, p.Answers, answers)
		}
		prevRound, prevQ = p.Round, p.Questions
	}
	last := curve[len(curve)-1]
	if last.MSPs != len(res.MSPs) {
		t.Fatalf("curve ends at %d MSPs, result has %d", last.MSPs, len(res.MSPs))
	}
	if int(last.Questions) != res.Stats.Questions {
		t.Fatalf("curve ends at %d questions, stats counted %d", last.Questions, res.Stats.Questions)
	}
}

// TestScorecardsIntegration runs the chaos fleet with an observer whose
// scoreboard is enabled and checks the per-member profiles are consistent
// with the run's aggregate stats.
func TestScorecardsIntegration(t *testing.T) {
	o := oassis.NewObserver()
	o.EnableScorecards()
	sess, res := chaosJournalRun(t, o)
	cards := sess.Scorecards()
	if len(cards) == 0 {
		t.Fatal("Scorecards() empty after a run")
	}
	var asked, answered, timeouts int64
	var departed int
	for i, c := range cards {
		if c.Member == "" {
			t.Fatalf("card %d has no member ID", i)
		}
		if i > 0 && cards[i-1].Member >= c.Member {
			t.Fatalf("cards not sorted by member: %q then %q", cards[i-1].Member, c.Member)
		}
		if c.Answered > c.Asked {
			t.Fatalf("%s: answered %d > asked %d", c.Member, c.Answered, c.Asked)
		}
		asked += c.Asked
		answered += c.Answered
		timeouts += c.Timeouts
		if c.Departed {
			departed++
		}
	}
	if asked != int64(res.Stats.Asked) {
		t.Fatalf("cards sum to %d asked, stats counted %d", asked, res.Stats.Asked)
	}
	if answered != int64(res.Stats.Questions) {
		t.Fatalf("cards sum to %d answered, stats counted %d usable answers", answered, res.Stats.Questions)
	}
	if timeouts != int64(res.Stats.TimedOut) {
		t.Fatalf("cards sum to %d timeouts, stats counted %d", timeouts, res.Stats.TimedOut)
	}
	if departed != res.Stats.Departures {
		t.Fatalf("%d cards marked departed, stats counted %d", departed, res.Stats.Departures)
	}
}
