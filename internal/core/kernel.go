package core

import (
	"math/rand"
	"sort"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// kernel is the event-driven mining core: the paper's QueueManager
// (Section 6.1) as a pure state machine. It owns every piece of mining
// state — the global classifier, the aggregator, per-member sessions,
// calibration, bans, strike-outs — and interacts with the world only
// through ask/reply events:
//
//	beginRound() -> []*crowd.Ask   select the next question per member
//	apply(reply)                   fold one resolved question back in
//
// There are no locks, no clocks and no I/O in here. Time enters only as
// Reply.Elapsed (measured by whatever broker carried the question), and
// concurrency is entirely the caller's business: drivers run rounds
// bulk-synchronously (select → dispatch → apply at the barrier, in
// member order), which makes every driver — sequential, worker pool,
// HTTP platform — produce the same transcripts by construction.
type kernel struct {
	space *assign.Space
	cfg   EngineConfig

	agg     crowd.Aggregator
	global  *assign.Classifier
	tracker *progressTracker
	stats   Stats
	rng     *rand.Rand

	// tracked lists, in first-seen order, the lattice nodes this run has
	// materialized (the Space and its edge cache are shared across runs,
	// so the per-run Generated accounting lives here); gen is its
	// membership set, indexed by NodeID.
	tracked []*assign.Assignment
	gen     idSet

	// succ is the per-run successor table, indexed by NodeID: an entry is
	// filled from Space.Successors on the node's first request, which is
	// also when its successors are tracked. Later requests read the slice
	// without the space's lock. Like the classifier's status entries, an
	// entry records its canonical node, so any other pointer misses.
	succ []succEntry

	// decided freezes the first aggregator verdict per assignment.
	decided map[assign.NodeID]crowd.Decision

	users   []*userState
	checker *crowd.ConsistencyChecker

	// probes is the calibration chain, built on the first round.
	probes      []*assign.Assignment
	probesBuilt bool

	confirmed map[assign.NodeID]bool
	stopped   bool

	// quota is the aggregator's answers-per-assignment target (0 when
	// unknown); inFlight counts the current round's asks per assignment
	// so the kernel never schedules more answers than the quota needs —
	// the crowd spreads across the frontier instead of dog-piling one
	// node, matching what the apply-as-you-go sequential loop did. It is
	// a NodeID-indexed slice presized from the space's interned-node
	// count; inFlightTouched lists the entries to zero at the next round
	// start, so the reset costs O(asks), not O(nodes).
	quota           int
	inFlight        []int32
	inFlightTouched []assign.NodeID

	// Per-selectMining traversal scratch, reused across calls: visited
	// is an epoch-stamped per-node mark (a slot equals epoch iff the
	// node was reached this traversal — no per-call map allocation) and
	// queueBuf is the BFS queue's backing array.
	visited  []uint32
	epoch    uint32
	queueBuf []*assign.Assignment

	// km mirrors the Stats counters into the configured Observer as
	// events happen, so a live /metrics scrape sees mid-run state. Nil
	// (the default) costs one nil check per event.
	km *obs.KernelMetrics

	// jr is the flight recorder: every ask, reply, timeout, departure and
	// MSP confirmation is journaled with its raw payload — enough for
	// journal.Replay to re-fold the run. jrRun is this run's journal run
	// ID (assigned by the driver at run start). sb feeds the per-member
	// scorecards. Both nil (the default) cost one nil check per event;
	// neither influences kernel state, so transcripts are unchanged.
	jr    *obs.Journal
	jrRun int64
	sb    *obs.Scoreboard

	nextAskID int64

	// confirmWit is the per-border-node confirmation witness, indexed by
	// NodeID: successors(b)[0..confirmWit[b]) are all known insignificant.
	// Statuses are final, so a witness only ever advances — re-checking a
	// border node costs O(its newly insignificant successors), not
	// O(successor list), per settle.
	confirmWit []int32
}

// userState tracks one member's session. answers records the member's
// support value per assignment; it gates the member's own descent
// (modification 4 of Section 4.2). Selection asks only whether a node was
// answered, and whether at or above Θ: answered and yes hold those two
// facts as NodeID bitsets, and only cold paths (explain, the scoreboard)
// read the float map. Note the Section 4.2 preamble: multi-user
// inferences are drawn from the GLOBALLY collected knowledge — a member's
// personal no blocks their own inner-loop dive, but they may still be
// asked below it when the outer loop reaches there through globally
// classified assignments ("this may lead to some redundant questions",
// which the paper accepts for better pruning).
type userState struct {
	id       string
	index    int
	answers  map[assign.NodeID]float64
	answered idSet
	yes      idSet
	pruned   map[vocab.TermID]bool
	asked    int
	banned   bool
	// departed marks a member who left mid-run (a Departed reply or
	// too many deadline overruns); the kernel stops asking them and the
	// run degrades gracefully to the surviving crowd.
	departed bool
	// timeouts counts consecutive answer-deadline overruns.
	timeouts int
	// probeIdx is the member's position in the calibration chain.
	probeIdx int
	// pending is the in-flight ask, between beginRound and apply.
	pending *pendingAsk
	// transcript records, in order, every usable answer this member gave —
	// the driver-independent interview log the differential tests compare
	// across execution modes. Only written when cfg.RecordTranscript.
	transcript []string
}

// pendingAsk keeps the kernel-side context of an emitted Ask: the
// assignment(s) the reply must be folded back into.
type pendingAsk struct {
	ask    *crowd.Ask
	target *assign.Assignment   // ConcreteAsk
	base   *assign.Assignment   // SpecializeAsk
	open   []*assign.Assignment // SpecializeAsk candidates, = ask.Options
	probe  bool                 // calibration probe
}

// setAnswer records the member's support for a node; a later answer for
// the same node replaces the earlier one.
func (u *userState) setAnswer(id assign.NodeID, support, theta float64) {
	u.answers[id] = support
	u.answered.add(id)
	if support >= theta {
		u.yes.add(id)
	} else {
		u.yes.remove(id)
	}
}

// succEntry is one slot of the kernel's per-run successor table.
type succEntry struct {
	node *assign.Assignment
	list []*assign.Assignment
}

// idSet is a growable bitset over dense NodeIDs.
type idSet struct{ words []uint64 }

// has reports whether id is in the set.
func (s *idSet) has(id assign.NodeID) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

// add inserts id, growing the set in one step when needed; it reports
// whether id was absent.
func (s *idSet) add(id assign.NodeID) bool {
	w := int(id >> 6)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	bit := uint64(1) << (id & 63)
	if s.words[w]&bit != 0 {
		return false
	}
	s.words[w] |= bit
	return true
}

// remove deletes id from the set.
func (s *idSet) remove(id assign.NodeID) {
	if w := int(id >> 6); w < len(s.words) {
		s.words[w] &^= 1 << (id & 63)
	}
}

// grow presizes the set for ids below n.
func (s *idSet) grow(n int) {
	if w := (n + 63) / 64; w > len(s.words) {
		s.words = append(s.words, make([]uint64, w-len(s.words))...)
	}
}

// newKernel builds the mining state machine for the given member IDs.
func newKernel(sp *assign.Space, ids []string, cfg EngineConfig) *kernel {
	agg := cfg.Aggregator
	if agg == nil {
		agg = crowd.NewMeanAggregator(5, cfg.Theta)
	}
	k := &kernel{
		space:     sp,
		cfg:       cfg,
		agg:       agg,
		global:    assign.NewClassifier(sp),
		tracker:   newProgressTracker(sp),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		decided:   make(map[assign.NodeID]crowd.Decision),
		confirmed: make(map[assign.NodeID]bool),
		km:        cfg.Obs.KernelSet().OrNop(),
		jr:        cfg.Obs.JournalSet(),
		sb:        cfg.Obs.BoardSet(),
	}
	// Presize every NodeID-indexed structure from the interned-node count:
	// the space grows lazily during mining, but most of the lattice this
	// run touches is usually interned already, so the hot paths run
	// without grow checks firing.
	n := sp.NumNodes()
	k.gen.grow(n)
	k.succ = make([]succEntry, n)
	k.visited = make([]uint32, n)
	k.inFlight = make([]int32, n)
	k.confirmWit = make([]int32, n)
	if cfg.Consistency {
		k.checker = crowd.NewConsistencyChecker(sp.Vocabulary())
	}
	if qc, ok := agg.(crowd.QuotaCarrier); ok {
		k.quota = qc.Quota()
	}
	for i, id := range ids {
		u := &userState{
			id:      id,
			index:   i,
			answers: make(map[assign.NodeID]float64),
			pruned:  make(map[vocab.TermID]bool),
		}
		u.answered.grow(n)
		u.yes.grow(n)
		k.users = append(k.users, u)
	}
	return k
}

// beginRound selects at most one question per live member, in member
// order, from the state as of the round start. Auto-answers discovered
// during selection (pruning inference, already-settled regions) are
// folded in immediately, exactly as the sequential loop did. An empty
// round means no member can contribute: the run is over.
func (k *kernel) beginRound() []*crowd.Ask {
	if k.stopped {
		return nil
	}
	for _, id := range k.inFlightTouched {
		k.inFlight[id] = 0
	}
	k.inFlightTouched = k.inFlightTouched[:0]
	var asks []*crowd.Ask
	for _, u := range k.users {
		if k.stopped {
			break
		}
		if a := k.selectAsk(u); a != nil {
			asks = append(asks, a)
		}
	}
	if len(asks) > 0 {
		k.stats.Rounds++
		k.stats.Asked += len(asks)
		if len(asks) > k.stats.PeakInFlight {
			k.stats.PeakInFlight = len(asks)
		}
		if k.jr != nil || k.sb != nil {
			k.journalAsks(asks)
		}
	}
	return asks
}

// journalAsks emits one ask event per question of the round just begun.
func (k *kernel) journalAsks(asks []*crowd.Ask) {
	round := k.stats.Rounds
	for _, a := range asks {
		k.sb.Asked(a.Member)
		if k.jr == nil {
			continue
		}
		qkind, key, probe := "concrete", "", false
		if p := k.users[a.Index].pending; p != nil {
			probe = p.probe
			if a.Kind == crowd.SpecializeAsk {
				qkind, key = "specialize", p.base.Key()
			} else {
				key = p.target.Key()
			}
		}
		k.jr.AskEvent(k.jrRun, round, a.ID, a.Member, qkind, key, probe, len(a.Options))
	}
}

// prunedInts converts a reply's pruned-term list to the journal's wire
// type. Only called on journaled paths.
func prunedInts(p []vocab.TermID) []int32 {
	if len(p) == 0 {
		return nil
	}
	out := make([]int32, len(p))
	for i, t := range p {
		out[i] = int32(t)
	}
	return out
}

// eligible reports whether the member can be asked anything this round.
func (k *kernel) eligible(u *userState) bool {
	if u.banned || u.departed || u.pending != nil {
		return false
	}
	return k.cfg.MaxQuestionsPerMember <= 0 || u.asked < k.cfg.MaxQuestionsPerMember
}

// selectAsk picks the member's next question: their calibration probes
// first (the Section 4.2 "preliminary step"), then the DAG traversal.
func (k *kernel) selectAsk(u *userState) *crowd.Ask {
	if !k.eligible(u) {
		return nil
	}
	if k.checker != nil && k.cfg.CalibrationQuestions > 0 {
		if ask := k.selectProbe(u); ask != nil {
			return ask
		}
	}
	return k.selectMining(u)
}

// selectProbe walks the member through the calibration chain, one probe
// per round. The chain's members are pairwise comparable, so the
// consistency checker can judge monotonicity immediately; members
// flagged here never influence the mining phase. Calibration answers
// still count as questions and feed the aggregator (honest answers
// about general assignments are useful work).
func (k *kernel) selectProbe(u *userState) *crowd.Ask {
	if !k.probesBuilt {
		k.probes = k.probeChain(k.cfg.CalibrationQuestions)
		k.probesBuilt = true
	}
	for u.probeIdx < len(k.probes) {
		p := k.probes[u.probeIdx]
		if u.answered.has(p.ID()) {
			u.probeIdx++
			continue
		}
		if k.assignmentPruned(u, p) {
			k.recordAnswer(u, p, 0, true)
			u.probeIdx++
			continue
		}
		return k.emitConcrete(u, p, true)
	}
	return nil
}

// probeChain walks from a root down first-successor edges, yielding up
// to n pairwise comparable assignments.
func (k *kernel) probeChain(n int) []*assign.Assignment {
	roots := k.roots()
	if len(roots) == 0 {
		return nil
	}
	chain := []*assign.Assignment{roots[0]}
	cur := roots[0]
	for len(chain) < n {
		succs := k.successors(cur)
		if len(succs) == 0 {
			break
		}
		cur = succs[0]
		chain = append(chain, cur)
	}
	return chain
}

// selectMining navigates from the roots through descendable assignments
// to the first question this member should answer — the traversal of
// Section 4.2 with all five modifications. Nil means the member has
// nothing to do this round (other members' answers may unlock them
// later).
func (k *kernel) selectMining(u *userState) *crowd.Ask {
	k.epoch++
	queue := append(k.queueBuf[:0], k.roots()...)
	defer func() { k.queueBuf = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		if k.alreadyVisited(a.ID()) {
			continue
		}

		st := k.globalStatus(a)
		if st == assign.Insignificant {
			continue // pruned globally (modification 4)
		}
		if st == assign.Significant {
			// Globally settled significant: descend regardless of
			// this member's own view (the outer loop must still
			// collect their answers for deeper, undecided nodes —
			// the Section 4.2 refinement), without re-asking.
			if u.yes.has(a.ID()) {
				if ask := k.maybeSpecialize(u, a); ask != nil {
					return ask
				}
			}
			queue = append(queue, k.successors(a)...)
			continue
		}
		// Globally undecided: collect this member's answer if missing.
		if !u.answered.has(a.ID()) {
			if k.assignmentPruned(u, a) {
				// Auto-answer 0 from an earlier pruning click.
				k.recordAnswer(u, a, 0, true)
				continue
			}
			if k.coveredInFlight(a) {
				// Enough answers are already scheduled this round
				// to reach the aggregator's quota; this member's
				// effort is better spent elsewhere on the frontier.
				continue
			}
			return k.emitConcrete(u, a, false)
		}
		// Answered: the member dives below only after a personal yes
		// (modification 4); a personal no leaves the region to others.
		if u.yes.has(a.ID()) {
			if ask := k.maybeSpecialize(u, a); ask != nil {
				return ask
			}
			queue = append(queue, k.successors(a)...)
		}
	}
	return nil
}

// alreadyVisited marks a node as reached in the current selectMining
// traversal and reports whether it had been reached before. Slots are
// epoch-stamped so the scratch is reset by bumping k.epoch, not by
// reallocating.
func (k *kernel) alreadyVisited(id assign.NodeID) bool {
	if int(id) >= len(k.visited) {
		k.visited = append(k.visited, make([]uint32, int(id)+1-len(k.visited))...)
	}
	if k.visited[id] == k.epoch {
		return true
	}
	k.visited[id] = k.epoch
	return false
}

// maybeSpecialize rolls the question-type choice at a personally-
// significant assignment and, when specialization is drawn and useful,
// emits it.
func (k *kernel) maybeSpecialize(u *userState, base *assign.Assignment) *crowd.Ask {
	if k.cfg.SpecializationRatio <= 0 || k.rng.Float64() >= k.cfg.SpecializationRatio {
		return nil
	}
	var open []*assign.Assignment
	for _, succ := range k.successors(base) {
		if k.globalStatus(succ) != assign.Unknown {
			continue
		}
		if u.answered.has(succ.ID()) {
			continue
		}
		if k.assignmentPruned(u, succ) {
			k.recordAnswer(u, succ, 0, true)
			continue
		}
		open = append(open, succ)
	}
	if len(open) < 2 {
		return nil
	}
	cands := make([]ontology.FactSet, len(open))
	for i, o := range open {
		cands[i] = k.space.Instantiate(o)
	}
	k.nextAskID++
	ask := &crowd.Ask{
		ID:      k.nextAskID,
		Member:  u.id,
		Index:   u.index,
		Kind:    crowd.SpecializeAsk,
		Base:    k.space.Instantiate(base),
		Options: cands,
	}
	u.pending = &pendingAsk{ask: ask, base: base, open: open}
	return ask
}

// coveredInFlight reports whether this round already scheduled enough
// asks for the assignment to satisfy the aggregator's remaining quota.
// Calibration probes bypass this: every member is probed by design.
func (k *kernel) coveredInFlight(a *assign.Assignment) bool {
	if k.quota <= 0 {
		return false
	}
	need := k.quota - k.agg.Answers(a.ID())
	if need < 1 {
		need = 1
	}
	id := a.ID()
	return int(id) < len(k.inFlight) && int(k.inFlight[id]) >= need
}

// emitConcrete builds the Ask event for one concrete question.
func (k *kernel) emitConcrete(u *userState, a *assign.Assignment, probe bool) *crowd.Ask {
	k.nextAskID++
	ask := &crowd.Ask{
		ID:     k.nextAskID,
		Member: u.id,
		Index:  u.index,
		Kind:   crowd.ConcreteAsk,
		Target: k.space.Instantiate(a),
	}
	u.pending = &pendingAsk{ask: ask, target: a, probe: probe}
	id := a.ID()
	if int(id) >= len(k.inFlight) {
		k.inFlight = append(k.inFlight, make([]int32, int(id)+1-len(k.inFlight))...)
	}
	if k.inFlight[id] == 0 {
		k.inFlightTouched = append(k.inFlightTouched, id)
	}
	k.inFlight[id]++
	return ask
}

// apply folds one resolved question back into the mining state. Drivers
// call it at the round barrier, in ask order, so the fold sequence is
// identical no matter how replies actually arrived.
func (k *kernel) apply(r crowd.Reply) {
	if r.Ask == nil || r.Ask.Index < 0 || r.Ask.Index >= len(k.users) {
		return
	}
	u := k.users[r.Ask.Index]
	p := u.pending
	if p == nil || p.ask != r.Ask {
		return // not the in-flight ask; ignore
	}
	u.pending = nil
	if p.probe {
		// The chain advances per attempt: a probe that produced no
		// usable answer is skipped, not retried (calibration is a
		// bounded preliminary, not a mining obligation).
		u.probeIdx++
	}
	if k.stopped {
		// A top-k run ended while this question was in flight; the
		// answer arrived for nothing.
		k.stats.Discarded++
		k.km.Discarded.Inc()
		if k.jr != nil {
			k.jr.ReplyEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, u.id, r.Outcome.String(),
				r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed), "discarded")
		}
		return
	}
	if r.Outcome == crowd.Departed {
		if k.jr != nil {
			k.jr.DepartureEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, u.id, r.Outcome.String(),
				r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed))
		}
		if !u.departed {
			u.departed = true
			k.stats.Departures++
			k.km.Departures.Inc()
			k.sb.Departure(u.id)
		}
		return
	}
	deadline := k.cfg.AnswerDeadline
	if r.Outcome == crowd.TimedOut || (deadline > 0 && r.Elapsed > deadline) {
		// The answer is stale: the member may have seen a question
		// whose context has moved on. Discard it; the traversal
		// re-poses the assignment on the member's next turn.
		k.stats.TimedOut++
		k.stats.Discarded++
		k.km.Timeouts.Inc()
		k.km.Discarded.Inc()
		u.timeouts++
		max := k.cfg.MaxAnswerTimeouts
		if max <= 0 {
			max = 3
		}
		struck := u.timeouts >= max
		if k.jr != nil {
			// The raw outcome is preserved (an answered reply that
			// overran the deadline stays "answered" on the wire): replay
			// re-derives the timeout from Elapsed vs the deadline.
			k.jr.TimeoutEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, u.id, r.Outcome.String(),
				r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed), struck)
		}
		k.sb.Timeout(u.id, struck)
		if struck {
			u.departed = true
			k.stats.Departures++
			k.km.Departures.Inc()
			k.sb.Departure(u.id)
		}
		return
	}
	u.timeouts = 0
	u.asked++
	k.stats.Questions++
	k.km.Questions.Inc()
	if k.jr != nil {
		k.jr.ReplyEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, u.id, r.Outcome.String(),
			r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed), "")
	}
	k.sb.Reply(u.id, r.Support, r.Elapsed.Seconds())
	switch p.ask.Kind {
	case crowd.ConcreteAsk:
		k.stats.ConcreteQ++
		if len(r.Pruned) > 0 {
			k.stats.PruneClicks++
			for _, t := range r.Pruned {
				u.pruned[t] = true
			}
		}
		if k.cfg.RecordTranscript {
			k.transcribe(u, "concrete "+p.target.Key())
		}
		k.recordAnswer(u, p.target, r.Support, false)
	case crowd.SpecializeAsk:
		k.stats.SpecialQ++
		if r.Choice < 0 || r.Choice >= len(p.open) {
			k.stats.NoneOfThese++
			k.stats.AutoAnswers += len(p.open) - 1
			if k.cfg.RecordTranscript {
				k.transcribe(u, "specialize "+p.base.Key()+" -> none")
			}
			for _, o := range p.open {
				k.recordAnswer(u, o, 0, true)
			}
		} else {
			if k.cfg.RecordTranscript {
				k.transcribe(u, "specialize "+p.base.Key()+" -> "+p.open[r.Choice].Key())
			}
			k.recordAnswer(u, p.open[r.Choice], r.Support, false)
		}
	}
	k.tracker.sample(&k.stats)
	k.reviewBan(u)
}

// transcribe appends one interview-log line for the member. Callers guard
// with cfg.RecordTranscript so the log line (and its string concatenation)
// is only built when transcripts are recorded.
func (k *kernel) transcribe(u *userState, line string) {
	u.transcript = append(u.transcript, line)
}

// reviewBan applies the Section 4.2 spammer filter after an answer.
func (k *kernel) reviewBan(u *userState) {
	if k.checker == nil || u.banned || !k.checker.IsSpammer(u.id) {
		return
	}
	u.banned = true
	k.sb.Ban(u.id)
	if tw, ok := k.agg.(*crowd.TrustWeightedAggregator); ok {
		tw.SetTrust(u.id, 0)
	}
}

// recordAnswer feeds one member answer into the member's answer log, the
// aggregator, the consistency checker and — when the aggregator reaches a
// verdict — the global classifier. auto marks answers obtained without a
// question (pruning inference, none-of-these fan-out).
func (k *kernel) recordAnswer(u *userState, a *assign.Assignment, support float64, auto bool) {
	u.setAnswer(a.ID(), support, k.cfg.Theta)
	if auto {
		k.stats.AutoAnswers++
		k.km.Inferred.Inc()
	}
	if k.checker != nil && !auto {
		k.checker.Record(u.id, k.space.Instantiate(a), support)
	}
	if _, settled := k.decided[a.ID()]; settled {
		return
	}
	k.agg.Add(a.ID(), u.id, support)
	if k.jr != nil && k.agg.Answers(a.ID()) == 1 {
		k.jr.NoteNewAnswer(k.jrRun)
	}
	if d := k.agg.Decide(a.ID()); d != crowd.Undecided {
		k.settle(a, d)
	}
}

// settle freezes the aggregator verdict and updates the global classifier.
// Confirmation checks run only when a mark actually landed: statuses derive
// from marks alone, so a settle that changes no mark cannot confirm
// anything (the full rescan the kernel used to do here was a no-op in that
// case).
func (k *kernel) settle(a *assign.Assignment, d crowd.Decision) {
	k.decided[a.ID()] = d
	if k.sb != nil {
		// Score each member who answered this now-settled question on
		// whether their own verdict matched the aggregate decision.
		sig := d == crowd.OverallSignificant
		for _, u := range k.users {
			if s, ok := u.answers[a.ID()]; ok {
				k.sb.Agree(u.id, (s >= k.cfg.Theta) == sig)
			}
		}
	}
	if d == crowd.OverallSignificant {
		if k.global.Status(a) != assign.Significant {
			k.global.MarkSignificant(a)
			k.tracker.onMark(a, true)
			// A significant mark only flips statuses Unknown →
			// Significant, so no existing border node's "all successors
			// insignificant" condition can newly hold; the only node
			// that may confirm is the marked one itself, which just
			// joined the border (its successors may already all be
			// insignificant).
			k.witnessConfirm(a)
		}
	} else {
		if k.global.Status(a) != assign.Insignificant {
			k.global.MarkInsignificant(a)
			k.tracker.onMark(a, false)
			// An insignificant mark can confirm any unconfirmed border
			// node — the marked node need not be comparable to the
			// successor it newly classifies (the derivation runs through
			// the order, not the border) — so every candidate advances
			// its witness. Each advance step is a successor newly seen
			// insignificant, never re-examined: amortized O(affected).
			for _, b := range k.global.SignificantBorder() {
				if !k.confirmed[b.ID()] {
					k.witnessConfirm(b)
				}
			}
		}
	}
}

// finalize decides assignments whose answers never reached the aggregator's
// quota: with at least one answer the mean decides; untouched assignments
// reachable from the roots are conservatively insignificant.
func (k *kernel) finalize() {
	if k.stopped {
		// A top-k run ends as soon as k MSPs are confirmed; the
		// unexplored remainder stays unclassified by design.
		return
	}
	// Deterministic finalization order: by canonical key, matching the
	// pre-interning behavior (tracked is in nondeterministic-looking but
	// run-deterministic first-seen order; sorting pins it either way).
	nodes := append([]*assign.Assignment{}, k.tracked...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key() < nodes[j].Key() })
	for _, a := range nodes {
		if _, settled := k.decided[a.ID()]; settled {
			continue
		}
		if k.globalStatus(a) != assign.Unknown {
			continue
		}
		if k.agg.Answers(a.ID()) > 0 && k.agg.Support(a.ID()) >= k.cfg.Theta {
			k.settle(a, crowd.OverallSignificant)
		} else {
			k.settle(a, crowd.OverallInsignificant)
		}
	}
}

func (k *kernel) globalStatus(a *assign.Assignment) assign.Status {
	return k.global.Status(a)
}

func (k *kernel) assignmentPruned(u *userState, a *assign.Assignment) bool {
	if len(u.pruned) == 0 {
		return false
	}
	v := k.space.Vocabulary()
	for _, vs := range k.space.Vars() {
		if vs.Kind != vocab.Element {
			continue
		}
		for _, val := range a.Values(vs.Name) {
			for p := range u.pruned {
				if v.LeqE(p, val) {
					return true
				}
			}
		}
	}
	for _, f := range a.More() {
		for p := range u.pruned {
			if (f.S != ontology.Any && v.LeqE(p, f.S)) ||
				(f.O != ontology.Any && v.LeqE(p, f.O)) {
				return true
			}
		}
	}
	return false
}

// track records that this run has materialized the node; Generated counts
// per-run laziness even though the Space (and its interner) is shared.
func (k *kernel) track(a *assign.Assignment) {
	if k.gen.add(a.ID()) {
		k.tracked = append(k.tracked, a)
		k.stats.Generated++
	}
}

// successors returns the node's successor list through the per-run table,
// filling the entry from the space's shared edge cache (computed at most
// once per node across all runs) and tracking the successors on the
// node's first request. The slice is shared and read-only.
func (k *kernel) successors(a *assign.Assignment) []*assign.Assignment {
	if id := a.ID(); int(id) < len(k.succ) && k.succ[id].node == a {
		return k.succ[id].list
	}
	a = k.space.Canon(a)
	id := a.ID()
	if int(id) >= len(k.succ) {
		k.succ = append(k.succ, make([]succEntry, int(id)+1-len(k.succ))...)
	}
	out := k.space.Successors(a)
	for _, x := range out {
		k.track(x)
	}
	k.succ[id] = succEntry{node: a, list: out}
	return out
}

// roots returns the space's memoized root set (shared, read-only).
func (k *kernel) roots() []*assign.Assignment {
	rs := k.space.Roots()
	for _, r := range rs {
		k.track(r)
	}
	return rs
}

// witnessConfirm advances the border node's confirmation witness over its
// newly insignificant successors and confirms it as an MSP when the witness
// clears the whole list. Confirmation never un-happens (statuses are
// final), so the witness position is valid across settles. Note the stop
// flag is only raised, never acted on here: like the old full rescan, a
// MaxMSPs run keeps confirming the remaining candidates of the settle that
// crossed the limit.
func (k *kernel) witnessConfirm(b *assign.Assignment) {
	succs := k.successors(b)
	id := b.ID()
	if int(id) >= len(k.confirmWit) {
		k.confirmWit = append(k.confirmWit, make([]int32, int(id)+1-len(k.confirmWit))...)
	}
	w := k.confirmWit[id]
	for int(w) < len(succs) && k.global.Status(succs[w]) == assign.Insignificant {
		w++
	}
	k.confirmWit[id] = w
	if int(w) < len(succs) {
		return
	}
	k.confirmed[id] = true
	k.tracker.onMSP(b)
	k.km.MSPs.Inc()
	if k.jr != nil {
		k.jr.MSPEvent(k.jrRun, k.stats.Rounds, b.Key(), int64(k.stats.Questions))
	}
	if k.cfg.OnMSP != nil {
		k.cfg.OnMSP(b)
	}
	if k.cfg.MaxMSPs > 0 && len(k.confirmed) >= k.cfg.MaxMSPs {
		k.stopped = true
	}
}

func (k *kernel) explain(a *assign.Assignment) []Provenance {
	a = k.space.Canon(a)
	var out []Provenance
	for _, u := range k.users {
		if s, ok := u.answers[a.ID()]; ok {
			out = append(out, Provenance{MemberID: u.id, Support: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].MemberID < out[j].MemberID })
	return out
}

func (k *kernel) flaggedSpammers() []string {
	if k.checker == nil {
		return nil
	}
	return k.checker.Flagged()
}

func (k *kernel) result() *Result {
	// Supports stays string-keyed: it is part of the public Result API
	// and the HTTP wire format; the translation from NodeIDs happens
	// once here, off the hot path.
	res := &Result{Stats: k.stats, Supports: make(map[string]float64)}
	if t := k.cfg.Obs.Trace(); t != nil {
		res.Trace = t.Summary()
	}
	if k.jr != nil {
		res.Curve = k.jr.Curve(k.jrRun)
		res.JournalRun = k.jrRun
	}
	for _, a := range k.tracked {
		if k.agg.Answers(a.ID()) > 0 {
			res.Supports[a.Key()] = k.agg.Support(a.ID())
		}
	}
	if k.cfg.RecordTranscript {
		trans := make(map[string][]string)
		for _, u := range k.users {
			if len(u.transcript) > 0 {
				trans[u.id] = u.transcript
			}
		}
		res.Transcripts = trans
	}
	border := append([]*assign.Assignment{}, k.global.SignificantBorder()...)
	if k.stopped {
		border = border[:0]
		for _, b := range k.global.SignificantBorder() {
			if k.confirmed[b.ID()] {
				border = append(border, b)
			}
		}
	}
	sort.Slice(border, func(i, j int) bool { return border[i].Key() < border[j].Key() })
	res.MSPs = border
	for _, b := range border {
		if k.space.IsValid(b) {
			res.ValidMSPs = append(res.ValidMSPs, b)
		}
	}
	for _, a := range k.tracked {
		if k.global.Status(a) == assign.Significant {
			res.Significant = append(res.Significant, a)
		}
	}
	sort.Slice(res.Significant, func(i, j int) bool {
		return res.Significant[i].Key() < res.Significant[j].Key()
	})
	return res
}
