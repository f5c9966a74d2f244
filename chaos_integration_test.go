package oassis_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"oassis"
	"oassis/internal/paperdata"
)

// chaosSession builds a fresh paper-example session for one chaos run.
func chaosSession(t *testing.T, opts ...oassis.Option) (*oassis.Session, *oassis.Vocabulary) {
	t.Helper()
	v, store := fixture(t)
	q, err := oassis.ParseQuery(paperdata.SimpleQueryText, v)
	if err != nil {
		t.Fatal(err)
	}
	opts = append([]oassis.Option{
		oassis.WithSeed(1),
		oassis.WithAggregator(oassis.NewMeanAggregator(1, 0.4)),
	}, opts...)
	sess, err := oassis.NewSession(store, q, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess, v
}

// u1Clones builds n faulty members all answering from u1's personal
// database, so any surviving subset produces the same answers as u1 alone.
func u1Clones(t *testing.T, v *oassis.Vocabulary, clock oassis.Clock, faults []oassis.Faults) []oassis.Member {
	t.Helper()
	du1, _ := paperdata.Table3(v)
	members := make([]oassis.Member, len(faults))
	for i, f := range faults {
		inner := oassis.NewSimMember("u1", v, du1, 1)
		inner.Scale = nil
		f.ID = "u1-clone-" + string(rune('a'+i))
		if f.Seed == 0 {
			f.Seed = int64(i + 1)
		}
		members[i] = oassis.NewFaultyMember(inner, clock, f)
	}
	return members
}

func sortedAnswers(sess *oassis.Session, res *oassis.Result) []string {
	out := sess.Answers(res)
	sort.Strings(out)
	return out
}

// TestChaosPublicAPIDeterministicSimulation drives the whole chaos stack
// through the public API: a virtual clock, an answer deadline, a concurrent
// broker and a crowd where a third of the members depart mid-run. The
// degraded run must return exactly the fault-free answers (the members are
// clones, so the surviving crowd's truth is unchanged), and the whole
// scenario must replay bit-identically.
func TestChaosPublicAPIDeterministicSimulation(t *testing.T) {
	// Fault-free baseline.
	base, bv := chaosSession(t)
	baseRes, err := base.Run(u1Clones(t, bv, nil, make([]oassis.Faults, 1)))
	if err != nil {
		t.Fatal(err)
	}
	want := sortedAnswers(base, baseRes)
	if len(want) == 0 {
		t.Fatal("baseline found no answers")
	}

	// chaosRun runs the scenario through Session.Run, or with jitter > 0
	// through RunBroker over a concurrent broker.
	chaosRun := func(jitter int64) ([]string, int, time.Duration) {
		clock := oassis.NewVirtualClock()
		sess, v := chaosSession(t,
			oassis.WithClock(clock),
			oassis.WithAnswerDeadline(5*time.Minute))
		faults := make([]oassis.Faults, 6)
		for i := range faults {
			faults[i].LatencyMin = 15 * time.Second
			faults[i].LatencyMax = 2 * time.Minute
			faults[i].HeavyTailAlpha = 1.5
		}
		faults[1].DepartAfter = 2
		faults[4].DepartAfter = 1
		members := u1Clones(t, v, clock, faults)
		var res *oassis.Result
		var err error
		if jitter == 0 {
			res, err = sess.Run(members)
		} else {
			res, err = runSessionConcurrent(sess, members, clock.Now, jitter)
		}
		if err != nil {
			t.Fatal(err)
		}
		return sortedAnswers(sess, res), res.Stats.Departures, clock.Elapsed()
	}

	got, departures, elapsed := chaosRun(0)
	if departures != 2 {
		t.Fatalf("Departures = %d, want 2", departures)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("chaos answers diverged from fault-free baseline:\n%v\nvs\n%v", got, want)
	}
	if elapsed == 0 {
		t.Fatal("virtual clock never advanced")
	}
	// Bit-identical replay: same seeds, same virtual timeline, same answers.
	// (A sequential-mode guarantee: concurrent interviews make the member
	// schedule, and hence the fault timeline, depend on the Go scheduler.)
	got2, departures2, elapsed2 := chaosRun(0)
	if strings.Join(got, "\n") != strings.Join(got2, "\n") ||
		departures != departures2 || elapsed != elapsed2 {
		t.Fatalf("replay diverged: (%v, %d, %v) vs (%v, %d, %v)",
			got, departures, elapsed, got2, departures2, elapsed2)
	}

	// A concurrent broker under the same chaos keeps the correctness half
	// of the contract: same answers, same departures (the schedule, and so
	// the virtual timeline, may differ).
	pgot, pdepartures, pelapsed := chaosRun(1)
	if strings.Join(pgot, "\n") != strings.Join(want, "\n") {
		t.Fatalf("concurrent chaos answers diverged from baseline:\n%v\nvs\n%v", pgot, want)
	}
	if pdepartures != 2 {
		t.Fatalf("concurrent Departures = %d, want 2", pdepartures)
	}
	if pelapsed == 0 {
		t.Fatal("concurrent run never advanced the virtual clock")
	}
}
