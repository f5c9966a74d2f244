// Package journal turns a recorded flight-recorder event stream back into
// a live mining run. The kernel is a pure event fold — its entire state is
// a function of the ask/reply sequence — so replaying the recorded replies
// through a fresh kernel must reconstruct the run exactly. Replay is the
// correctness spine the future persistence layer inherits: if the journal
// is sufficient to rebuild Stats, MSP sets and per-member transcripts
// byte-identically, it is sufficient to recover a crashed run.
package journal

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"oassis/internal/assign"
	"oassis/internal/core"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/vocab"
)

// Members extracts the run's member list from its run_start event.
func Members(events []obs.Event) ([]string, error) {
	for i := range events {
		if events[i].Kind == obs.EvRunStart {
			return events[i].Members, nil
		}
	}
	return nil, fmt.Errorf("journal: no run_start event (was the ring truncated? use the JSONL sink for full runs)")
}

// player is the replay broker: it resolves each regenerated Ask with the
// reply the journal recorded for that ask ID. The kernel regenerates the
// ask sequence itself (selection is deterministic given the replies), so
// the player only matches by ID — and cross-checks the regenerated ask
// against the recorded ask event to catch configuration drift early.
type player struct {
	asks    map[int64]*obs.Event // ask ID -> recorded ask event
	replies map[int64]*obs.Event // ask ID -> recorded reply/timeout/departure
	errs    []error
}

// Post resolves the ask from the recorded stream. A missing or mismatched
// recording is reported as an error and answered with a Departed reply, so
// a truncated journal degrades to a short run instead of a hang.
func (p *player) Post(ask *crowd.Ask, deliver func(crowd.Reply)) {
	if rec := p.asks[ask.ID]; rec != nil {
		if rec.Member != ask.Member {
			p.errs = append(p.errs, fmt.Errorf("ask %d: regenerated for member %q, recorded for %q", ask.ID, ask.Member, rec.Member))
		}
		if want := askKindWire(ask.Kind); rec.QKind != want {
			p.errs = append(p.errs, fmt.Errorf("ask %d: regenerated kind %q, recorded %q", ask.ID, want, rec.QKind))
		}
		if rec.Options != len(ask.Options) {
			p.errs = append(p.errs, fmt.Errorf("ask %d: regenerated %d options, recorded %d", ask.ID, len(ask.Options), rec.Options))
		}
	} else {
		p.errs = append(p.errs, fmt.Errorf("ask %d (member %q): not in the recorded stream", ask.ID, ask.Member))
	}
	e := p.replies[ask.ID]
	if e == nil {
		p.errs = append(p.errs, fmt.Errorf("ask %d (member %q): no recorded reply", ask.ID, ask.Member))
		deliver(crowd.Reply{Ask: ask, Outcome: crowd.Departed, Choice: -1})
		return
	}
	outcome, err := parseOutcome(e.Outcome)
	if err != nil {
		p.errs = append(p.errs, fmt.Errorf("ask %d: %w", ask.ID, err))
		deliver(crowd.Reply{Ask: ask, Outcome: crowd.Departed, Choice: -1})
		return
	}
	pruned := make([]vocab.TermID, len(e.Pruned))
	for i, t := range e.Pruned {
		pruned[i] = vocab.TermID(t)
	}
	if len(pruned) == 0 {
		pruned = nil
	}
	deliver(crowd.Reply{
		Ask:     ask,
		Outcome: outcome,
		Support: e.Support,
		Choice:  e.Choice,
		Pruned:  pruned,
		Elapsed: time.Duration(e.Elapsed),
	})
}

func askKindWire(k crowd.AskKind) string {
	if k == crowd.SpecializeAsk {
		return "specialize"
	}
	return "concrete"
}

func parseOutcome(s string) (crowd.Outcome, error) {
	switch s {
	case "answered", "":
		return crowd.Answered, nil
	case "timedout":
		return crowd.TimedOut, nil
	case "departed":
		return crowd.Departed, nil
	}
	return 0, fmt.Errorf("unknown recorded outcome %q", s)
}

// Replay re-folds one run's recorded event stream through a fresh kernel
// over the given space and configuration, which must match the recorded
// run's (same seed, theta, aggregator construction, deadlines — the
// run_start event carries seed and theta for cross-checking). The
// configuration's Obs and OnMSP hooks are stripped: replay is a pure
// reconstruction, not a re-observation. Events recorded outside any run
// (run 0: program spans, store events) before the run_start are skipped,
// and a single-member run is refused before anything is folded: replay
// rebuilds a multi-user engine. Returns the reconstructed Result and an
// error aggregating every stream inconsistency encountered.
func Replay(events []obs.Event, sp *assign.Space, cfg core.EngineConfig) (*core.Result, error) {
	for len(events) > 0 && events[0].Run == 0 {
		events = events[1:]
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("journal: empty event stream")
	}
	if events[0].Kind != obs.EvRunStart {
		return nil, fmt.Errorf("journal: stream starts with %q, not run_start (ring truncation — use the JSONL sink for replayable runs)", events[0].Kind)
	}
	start := &events[0]
	if start.Strategy != "" {
		return nil, fmt.Errorf("journal: run %d is a single-member %s run; replay rebuilds multi-user runs only", start.Run, start.Strategy)
	}
	if cfg.Seed != start.Seed {
		return nil, fmt.Errorf("journal: config seed %d does not match recorded seed %d", cfg.Seed, start.Seed)
	}
	if start.Theta != 0 && cfg.Theta != start.Theta {
		return nil, fmt.Errorf("journal: config theta %g does not match recorded theta %g", cfg.Theta, start.Theta)
	}
	ids := start.Members
	if len(ids) == 0 {
		return nil, fmt.Errorf("journal: run_start carries no members")
	}

	p := &player{
		asks:    make(map[int64]*obs.Event),
		replies: make(map[int64]*obs.Event),
	}
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case obs.EvAsk:
			p.asks[e.Ask] = e
		case obs.EvReply, obs.EvTimeout, obs.EvDeparture:
			if prev := p.replies[e.Ask]; prev != nil {
				p.errs = append(p.errs, fmt.Errorf("ask %d: duplicate recorded replies (seq %d and %d)", e.Ask, prev.Seq, e.Seq))
			}
			p.replies[e.Ask] = e
		}
	}

	cfg.Obs = nil
	cfg.OnMSP = nil
	cfg.Clock = nil
	eng := core.NewBrokerEngine(sp, ids, cfg)
	res := eng.RunWith(p)
	if len(p.errs) > 0 {
		msgs := make([]string, len(p.errs))
		for i, err := range p.errs {
			msgs[i] = err.Error()
		}
		return res, fmt.Errorf("journal replay: %d inconsistencies:\n  %s", len(p.errs), strings.Join(msgs, "\n  "))
	}
	return res, nil
}

// VerifyIdentity asserts the replayed result reconstructs the live run
// byte-identically on everything that is kernel state: Stats, the MSP and
// valid-MSP key sets, the significant set, the support map and the
// per-member transcripts. Trace and Curve are observability, not state,
// and are deliberately not compared.
func VerifyIdentity(live, replayed *core.Result) error {
	if live == nil || replayed == nil {
		return fmt.Errorf("journal verify: nil result")
	}
	if !reflect.DeepEqual(live.Stats, replayed.Stats) {
		return fmt.Errorf("journal verify: stats diverge\nlive:     %+v\nreplayed: %+v", live.Stats, replayed.Stats)
	}
	if err := compareKeys("MSPs", keysOf(live.MSPs), keysOf(replayed.MSPs)); err != nil {
		return err
	}
	if err := compareKeys("ValidMSPs", keysOf(live.ValidMSPs), keysOf(replayed.ValidMSPs)); err != nil {
		return err
	}
	if err := compareKeys("Significant", keysOf(live.Significant), keysOf(replayed.Significant)); err != nil {
		return err
	}
	if !reflect.DeepEqual(live.Supports, replayed.Supports) {
		return fmt.Errorf("journal verify: support maps diverge (%d vs %d entries)", len(live.Supports), len(replayed.Supports))
	}
	if !reflect.DeepEqual(live.Transcripts, replayed.Transcripts) {
		return fmt.Errorf("journal verify: transcripts diverge\nlive:     %v\nreplayed: %v", live.Transcripts, replayed.Transcripts)
	}
	return nil
}

func keysOf(as []*assign.Assignment) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Key()
	}
	sort.Strings(out)
	return out
}

func compareKeys(what string, live, replayed []string) error {
	if !reflect.DeepEqual(live, replayed) {
		return fmt.Errorf("journal verify: %s diverge\nlive:     %v\nreplayed: %v", what, live, replayed)
	}
	return nil
}
