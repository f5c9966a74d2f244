package oassis_test

import (
	"bufio"
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"oassis"
	"oassis/internal/obs"
	"oassis/internal/synth"
)

// counterLines returns the oassis_kernel_*, oassis_platform_store_* and
// oassis_platform_dedup_joins_total lines of r. For a run timed on the
// wall clock the round-duration histogram is kept by count only: its
// buckets, sum and quantiles vary from run to run.
func counterLines(r *obs.Registry, wallClock bool) []byte {
	var prom, out bytes.Buffer
	r.WritePrometheus(&prom)
	sc := bufio.NewScanner(&prom)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, "oassis_kernel_") && !strings.Contains(line, "oassis_platform_store_") &&
			!strings.Contains(line, "oassis_platform_dedup_joins_total") {
			continue
		}
		if wallClock && strings.HasPrefix(line, "oassis_kernel_round_duration_seconds_") &&
			!strings.HasPrefix(line, "oassis_kernel_round_duration_seconds_count") {
			continue
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// counterScenarios are the runs whose kernel and platform counters
// TestCounterLinesGolden pins. run drives one scenario with o attached;
// wallClock marks a run timed on the wall clock.
var counterScenarios = []struct {
	name      string
	wallClock bool
	run       func(t *testing.T, o *oassis.Observer)
}{
	// The chaos fleet of the journal tests: virtual clock, a deadline,
	// struck timeouts and departures.
	{"chaos", false, func(t *testing.T, o *oassis.Observer) {
		chaosJournalRun(t, o)
	}},
	// A top-1 run over the chaos fleet stops with replies in flight, which
	// the kernel discards.
	{"topk", false, func(t *testing.T, o *oassis.Observer) {
		v, store := fixture(t)
		q, err := oassis.ParseQuery(limitQuery("LIMIT 1"), v)
		if err != nil {
			t.Fatal(err)
		}
		clock := oassis.NewVirtualClock()
		sess, err := oassis.NewSession(store, q, oassis.WithSeed(1),
			oassis.WithAggregator(oassis.NewMeanAggregator(1, 0.4)),
			oassis.WithClock(clock), oassis.WithObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Run(u1Clones(t, v, clock, make([]oassis.Faults, 6)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Discarded == 0 {
			t.Fatal("top-k scenario discarded no reply; it no longer stops with replies in flight")
		}
	}},
	// A single-member Vertical run whose member clicks to prune values.
	{"single", true, func(t *testing.T, o *oassis.Observer) {
		d, err := synth.NewDAG(synth.DAGConfig{Width: 16, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := oassis.NewSession(d.Store, d.Query, oassis.WithSeed(7), oassis.WithObserver(o))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.RunSingle(d.Oracle(0.25, 5), oassis.Vertical)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PruneClicks == 0 || res.Stats.AutoAnswers == 0 {
			t.Fatalf("single scenario drifted: %d prune clicks, %d inferred answers",
				res.Stats.PruneClicks, res.Stats.AutoAnswers)
		}
	}},
	// A subtree query at a base threshold, then the full query at a raised
	// one, on one shared platform with a TTL: the second leg is served
	// partly from the store and finds some of the first leg's answers
	// expired.
	{"platform", false, func(t *testing.T, o *oassis.Observer) {
		d, err := synth.NewDAG(synth.DAGConfig{Width: 10, Depth: 3, MSPPercent: 0.10, Places: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		clock := oassis.NewVirtualClock()
		p := oassis.NewPlatform(oassis.PlatformConfig{TTL: 45 * time.Second, Clock: clock, Obs: o})
		for _, leg := range []struct {
			root  string
			theta float64
		}{{"n0_0", 0.5}, {"", 0.7}} {
			theta := leg.theta
			q := platformQuery(t, d, leg.root, theta)
			sess, err := oassis.NewSession(d.Store, q, oassis.WithSeed(3),
				oassis.WithAggregator(oassis.NewMeanAggregator(2, theta)),
				oassis.WithClock(clock), oassis.WithObserver(o), oassis.WithPlatform(p))
			if err != nil {
				t.Fatal(err)
			}
			members := platformCrowd(d, 3)
			for i, m := range members {
				members[i] = oassis.NewFaultyMember(m, clock, oassis.Faults{LatencyMin: time.Second, Seed: int64(i + 1)})
			}
			if _, err := sess.Run(members); err != nil {
				t.Fatal(err)
			}
		}
		if st := p.Stats(); st.Hits == 0 || st.Expired == 0 {
			t.Fatalf("platform scenario drifted: %+v, want hits and expirations", st)
		}
	}},
}

// TestCounterLinesGolden pins the kernel and platform counter lines of the
// scenarios byte for byte (testdata/counters.golden).
func TestCounterLinesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sc := range counterScenarios {
		o := oassis.NewObserver()
		sc.run(t, o)
		got.WriteString("== " + sc.name + "\n")
		got.Write(counterLines(o.Registry, sc.wallClock))
	}
	want, err := os.ReadFile("testdata/counters.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("counter lines differ from testdata/counters.golden\ngot:\n%s", got.Bytes())
	}
}

// TestCountersFoldRecordedStream records each scenario through a JSONL
// sink, folds the decoded file into a fresh registry and requires the live
// run's counter lines: the observer's counters are folds of the stream it
// records. The barriers' new_msps and new_answers of each run must sum to
// the run's final cumulative curve point, so the file holds the whole
// arrival curve.
func TestCountersFoldRecordedStream(t *testing.T) {
	for _, sc := range counterScenarios {
		t.Run(sc.name, func(t *testing.T) {
			o := oassis.NewObserver()
			var sink bytes.Buffer
			o.JournalSet().SetSink(&sink)
			sc.run(t, o)
			if err := o.JournalSet().Flush(); err != nil {
				t.Fatal(err)
			}
			events, err := oassis.ReadJournal(&sink)
			if err != nil {
				t.Fatal(err)
			}
			// The store-size gauge is state no event carries: the platform
			// writes it directly, so the file cannot hold it.
			r := obs.NewRegistry()
			_, pm := obs.FoldMetrics(r, events)
			pm.Entries.Set(o.Platform.Entries.Value())
			if got, want := counterLines(r, false), counterLines(o.Registry, false); !bytes.Equal(got, want) {
				t.Fatalf("folded file counters differ from the live run\nfolded:\n%s\nlive:\n%s", got, want)
			}

			type sums struct{ msps, answers int }
			perRun := map[int64]*sums{}
			for _, e := range events {
				if e.Kind == obs.EvRoundEnd || e.Kind == obs.EvRunEnd {
					if perRun[e.Run] == nil {
						perRun[e.Run] = &sums{}
					}
					perRun[e.Run].msps += e.NewMSPs
					perRun[e.Run].answers += e.NewAnswers
				}
			}
			if len(perRun) == 0 {
				t.Fatal("stream holds no barrier")
			}
			for run, s := range perRun {
				curve := o.JournalSet().Curve(run)
				if len(curve) == 0 {
					t.Fatalf("run %d has no live curve", run)
				}
				if last := curve[len(curve)-1]; s.msps != last.MSPs || s.answers != last.Answers {
					t.Fatalf("run %d: file sums to %d MSPs and %d answers, live curve ends at %d and %d",
						run, s.msps, s.answers, last.MSPs, last.Answers)
				}
			}
		})
	}
}
