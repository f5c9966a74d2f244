package core_test

import (
	"strings"
	"testing"
	"time"

	"oassis/internal/chaos"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/paperdata"
)

// TestObservedChaosCountersMatchStats reruns the chronically-slow-member
// chaos scenario with an Observer attached and checks that every metric the
// kernel exports agrees exactly with the Stats the run returns: the metrics
// are a live view of the same events, not a parallel bookkeeping that can
// drift.
func TestObservedChaosCountersMatchStats(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	clock := chaos.NewVirtualClock()
	faults := make([]chaos.Faults, 6)
	for i := range faults {
		faults[i].LatencyMin = time.Second // every round takes virtual time
	}
	faults[3].LatencyMin = 20 * time.Minute // every answer past the deadline
	members := chaosCrowd(v, clock, faults)
	o := obs.New()
	res := core.NewEngine(sp, members, core.EngineConfig{
		Theta:          0.4,
		Aggregator:     crowd.NewMeanAggregator(5, 0.4),
		Seed:           1,
		AnswerDeadline: 5 * time.Minute,
		Clock:          clock,
		Obs:            o,
	}).Run()

	k := o.Kernel
	pairs := []struct {
		name string
		got  int64
		want int
	}{
		{"rounds", k.Rounds.Value(), res.Stats.Rounds},
		{"asks", k.Asks.Value(), res.Stats.Asked},
		{"questions", k.Questions.Value(), res.Stats.Questions},
		{"timeouts", k.Timeouts.Value(), res.Stats.TimedOut},
		{"discarded", k.Discarded.Value(), res.Stats.Discarded},
		{"departures", k.Departures.Value(), res.Stats.Departures},
		{"inferred", k.Inferred.Value(), res.Stats.AutoAnswers},
	}
	for _, p := range pairs {
		if p.got != int64(p.want) {
			t.Errorf("kernel %s counter = %d, Stats say %d", p.name, p.got, p.want)
		}
	}
	if res.Stats.TimedOut != 3 || res.Stats.Departures != 1 {
		t.Fatalf("scenario drifted: TimedOut=%d Departures=%d",
			res.Stats.TimedOut, res.Stats.Departures)
	}

	// The broker saw every emitted ask; replies it delivered partition into
	// its three outcomes. (The slow member's answers are Answered at the
	// broker — lateness is the kernel's judgment, not the broker's.)
	b := o.Broker
	if b.Posted.Value() != int64(res.Stats.Asked) {
		t.Errorf("broker posted %d, kernel asked %d", b.Posted.Value(), res.Stats.Asked)
	}
	if got := b.Answered.Value() + b.TimedOut.Value() + b.Departed.Value(); got != b.Posted.Value() {
		t.Errorf("broker outcomes %d do not partition posts %d", got, b.Posted.Value())
	}
	if b.RoundTrip.Count() != b.Posted.Value() {
		t.Errorf("round-trip samples %d != posts %d", b.RoundTrip.Count(), b.Posted.Value())
	}

	// Round spans are timed on the engine clock — the virtual one here, so
	// injected latency shows up as virtual duration.
	if res.Trace == nil {
		t.Fatal("observed run returned no trace summary")
	}
	var round *obs.TraceEntry
	for i := range res.Trace.Entries {
		if res.Trace.Entries[i].Name == "round" {
			round = &res.Trace.Entries[i]
		}
	}
	if round == nil {
		t.Fatalf("no round spans in trace:\n%s", res.Trace)
	}
	if round.Count != int64(res.Stats.Rounds) {
		t.Errorf("round spans = %d, rounds = %d", round.Count, res.Stats.Rounds)
	}
	if round.Total <= 0 {
		t.Error("round spans carry no virtual duration")
	}
	if k.RoundDur.Count() != int64(res.Stats.Rounds) {
		t.Errorf("round duration samples = %d, rounds = %d", k.RoundDur.Count(), res.Stats.Rounds)
	}

	// And the whole state is scrapeable as Prometheus text.
	var sb strings.Builder
	o.Registry.WritePrometheus(&sb)
	for _, want := range []string{
		"oassis_kernel_rounds_total", "oassis_kernel_timeouts_total",
		"oassis_broker_round_trip_seconds_bucket",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape missing %s", want)
		}
	}
}

// TestObservationDoesNotPerturb: the same crowd driven with and without an
// Observer must produce identical transcripts — instrumentation reads the
// run, it never steers it.
func TestObservationDoesNotPerturb(t *testing.T) {
	run := func(o *obs.Observer) *core.Result {
		sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
		clock := chaos.NewVirtualClock()
		faults := make([]chaos.Faults, 6)
		faults[1].DepartAfter = 2
		faults[4].LatencyMin = 20 * time.Minute
		members := chaosCrowd(v, clock, faults)
		return core.NewEngine(sp, members, core.EngineConfig{
			Theta:            0.4,
			Aggregator:       crowd.NewMeanAggregator(5, 0.4),
			Seed:             7,
			AnswerDeadline:   5 * time.Minute,
			Clock:            clock,
			RecordTranscript: true,
			Obs:              o,
		}).Run()
	}
	plain := run(nil)
	observed := run(obs.New())
	if plain.Trace != nil {
		t.Error("unobserved run grew a trace")
	}
	if observed.Trace == nil {
		t.Error("observed run lost its trace")
	}
	if len(plain.Transcripts) != len(observed.Transcripts) {
		t.Fatalf("member count diverged: %d vs %d", len(plain.Transcripts), len(observed.Transcripts))
	}
	for id, lines := range plain.Transcripts {
		got := observed.Transcripts[id]
		if strings.Join(lines, "\n") != strings.Join(got, "\n") {
			t.Fatalf("transcript for %s diverged:\n%s\nvs\n%s",
				id, strings.Join(lines, "\n"), strings.Join(got, "\n"))
		}
	}
	if mspKeys(plain) != mspKeys(observed) {
		t.Fatalf("MSP set diverged:\n%s\nvs\n%s", mspKeys(plain), mspKeys(observed))
	}
}

// TestSingleUserObserved: the single-user runners feed the same kernel
// metric family.
func TestSingleUserObserved(t *testing.T) {
	sp, v := buildSpace(t, paperdata.SimpleQueryText, nil)
	o := obs.New()
	res := (&core.SingleUser{
		Space:  sp,
		Member: newAvgMember(v),
		Theta:  0.4,
		Obs:    o,
	}).Run()
	if got := o.Kernel.Questions.Value(); got != int64(res.Stats.Questions) {
		t.Errorf("questions counter = %d, Stats say %d", got, res.Stats.Questions)
	}
	if got := o.Kernel.Inferred.Value(); got != int64(res.Stats.AutoAnswers) {
		t.Errorf("inferred counter = %d, Stats say %d", got, res.Stats.AutoAnswers)
	}
	if got := o.Kernel.MSPs.Value(); got != int64(len(res.MSPs)) {
		t.Errorf("MSP counter = %d, result has %d", got, len(res.MSPs))
	}
	if res.Trace == nil {
		t.Error("observed single-user run has no trace summary")
	}
}
