package oassis_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"oassis"
	"oassis/internal/obs"
)

// scorecardDump renders what a scoreboard exposes: the Session.Scorecards
// JSON (what GET /members serves) followed by every oassis_member_*
// Prometheus line of the observer's registry.
func scorecardDump(t *testing.T, sess *oassis.Session, o *oassis.Observer) []byte {
	t.Helper()
	cards, err := json.MarshalIndent(sess.Scorecards(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(cards)
	out.WriteByte('\n')
	out.Write(memberMetricLines(o.Registry))
	return out.Bytes()
}

// memberMetricLines returns the oassis_member_* lines of r.
func memberMetricLines(r *obs.Registry) []byte {
	var prom, out bytes.Buffer
	r.WritePrometheus(&prom)
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		if line := sc.Text(); strings.Contains(line, "oassis_member_") {
			out.WriteString(line)
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

// spammerFaults gives the chaos fleet fixed virtual latencies: two
// members answer past spammerDeadline every time, so they strike out, and
// two answer at random most of the time, so the Section 4.2 spammer filter
// has contradictions to ban on and settled questions find disagreement.
func spammerFaults() []oassis.Faults {
	faults := make([]oassis.Faults, 6)
	for i, sec := range []int{1, 1, 1, 1, 2, 2} {
		faults[i].LatencyMin = time.Duration(sec) * time.Second
	}
	for _, i := range []int{0, 2} {
		faults[i].ContradictProb = 0.9
	}
	return faults
}

// spammerDeadline sits between the fast and the slow spammerFaults members.
const spammerDeadline = 1500 * time.Millisecond

// scorecardScenarios are the virtual-clock runs the scorecard tests pin.
// "chaos" is the chaos fleet of the journal tests (timeouts, departures);
// "spammer" runs the same fleet under the spammer filter and a
// three-answer aggregator (strikes, bans, disagreements). opts is the run
// configuration minus clock and observer, which replay shares.
var scorecardScenarios = []struct {
	name   string
	opts   func() []oassis.Option
	faults func() []oassis.Faults
}{
	{"chaos", func() []oassis.Option {
		return []oassis.Option{oassis.WithAnswerDeadline(time.Minute), oassis.WithTranscript()}
	}, chaosJournalFaults},
	{"spammer", func() []oassis.Option {
		return []oassis.Option{
			oassis.WithAnswerDeadline(spammerDeadline),
			oassis.WithAggregator(oassis.NewMeanAggregator(3, 0.4)),
			oassis.WithConsistencyFilter(),
		}
	}, spammerFaults},
}

// runScorecardScenario runs scenario i on a fresh virtual clock with o
// attached.
func runScorecardScenario(t *testing.T, i int, o *oassis.Observer) (*oassis.Session, *oassis.Result) {
	t.Helper()
	sc := scorecardScenarios[i]
	clock := oassis.NewVirtualClock()
	sess, v := chaosSession(t, append(sc.opts(), oassis.WithClock(clock), oassis.WithObserver(o))...)
	res, err := sess.Run(u1Clones(t, v, clock, sc.faults()))
	if err != nil {
		t.Fatal(err)
	}
	return sess, res
}

// TestScorecardsGolden pins the per-member scorecards and oassis_member_*
// metric lines of the scenarios byte for byte, so the scoreboard reads the
// same numbers however it is fed.
func TestScorecardsGolden(t *testing.T) {
	var got bytes.Buffer
	for i, sc := range scorecardScenarios {
		o := oassis.NewObserver()
		o.EnableScorecards()
		sess, _ := runScorecardScenario(t, i, o)
		got.WriteString("== " + sc.name + "\n")
		got.Write(scorecardDump(t, sess, o))
	}
	want, err := os.ReadFile("testdata/scorecards.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("scorecards differ from testdata/scorecards.golden\ngot:\n%s", got.Bytes())
	}
}

// TestScorecardsFoldRecordedStream records each scenario through a JSONL
// sink with scorecards on, folds the run's own file into a fresh board,
// and requires the live board's scorecards and member metric lines. The
// same file, ban and settle events included, must replay to the live run.
func TestScorecardsFoldRecordedStream(t *testing.T) {
	for i, sc := range scorecardScenarios {
		t.Run(sc.name, func(t *testing.T) {
			o := oassis.NewObserver()
			var sink bytes.Buffer
			o.JournalSet().SetSink(&sink)
			live := o.EnableScorecards()
			_, liveRes := runScorecardScenario(t, i, o)
			if err := o.JournalSet().Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := oassis.ReadJournal(&sink)
			if err != nil {
				t.Fatal(err)
			}
			kinds := map[string]int{}
			for _, e := range events {
				kinds[e.Kind]++
			}
			if kinds[obs.EvSettle] == 0 || (sc.name == "spammer" && kinds[obs.EvBan] == 0) {
				t.Fatalf("stream lacks the events it must fold: %v", kinds)
			}
			r := obs.NewRegistry()
			folded := obs.FoldScoreboard(r, events)
			if got, want := folded.Snapshot(), live.Snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("folded file scorecards differ from the live board\nfolded: %+v\nlive:   %+v", got, want)
			}
			if got, want := memberMetricLines(r), memberMetricLines(o.Registry); !bytes.Equal(got, want) {
				t.Fatalf("folded file member metrics differ from the live board\nfolded:\n%s\nlive:\n%s", got, want)
			}

			replaySess, _ := chaosSession(t, sc.opts()...)
			replayed, err := replaySess.Replay(events)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if err := oassis.VerifyReplayIdentity(liveRes, replayed); err != nil {
				t.Fatalf("replay diverged from live run: %v", err)
			}
		})
	}
}

// TestScorecardsEnableTwice enables scorecards twice before the chaos
// fleet runs and requires one board throughout, whose answered replies
// sum to the kernel's usable-answer counter: two folds of one stream.
func TestScorecardsEnableTwice(t *testing.T) {
	o := oassis.NewObserver()
	board := o.EnableScorecards()
	if again := o.EnableScorecards(); again != board {
		t.Fatal("a second EnableScorecards built a second board")
	}
	chaosJournalRun(t, o)
	if o.EnableScorecards() != board || o.BoardSet() != board {
		t.Fatal("the observer's board changed during the run")
	}
	var answered int64
	sc := bufio.NewScanner(bytes.NewReader(memberMetricLines(o.Registry)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "oassis_member_replies_total{") && strings.Contains(line, `outcome="answered"`) {
			n, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			answered += n
		}
	}
	if questions := o.Kernel.Questions.Value(); answered == 0 || answered != questions {
		t.Fatalf("members answered %d replies, kernel counted %d usable answers", answered, questions)
	}
}

// TestJournalReplayStreamBeforeSettle replays a chaos-fleet stream recorded
// before the journal carried ban and settle events
// (testdata/journal_chaos_before_settle.jsonl) and requires the live run's
// result: the schema change is additive.
func TestJournalReplayStreamBeforeSettle(t *testing.T) {
	f, err := os.Open("testdata/journal_chaos_before_settle.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := oassis.ReadJournal(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Kind == obs.EvBan || e.Kind == obs.EvSettle {
			t.Fatalf("stream recorded before settle events carries %q", e.Kind)
		}
	}
	_, liveRes := chaosJournalRun(t, nil)
	replaySess, _ := chaosSession(t, scorecardScenarios[0].opts()...)
	replayed, err := replaySess.Replay(events)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := oassis.VerifyReplayIdentity(liveRes, replayed); err != nil {
		t.Fatalf("replay diverged from live run: %v", err)
	}
}
