package core

import (
	"sync"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/ontology"
)

// Parallel round selection: speculate per member, commit serially.
//
// The serial kernel selects one question per member with a BFS over the
// assignment DAG, folding side effects (auto-answers, node tracking, rng
// draws) in as it goes. Members are almost always independent within one
// round — they traverse the same frozen classifier and only rarely touch
// each other through aggregator quotas — so selection is sharded the same
// way PR 8 sharded ingestion: a parallel speculation phase that touches no
// shared state, then a deterministic serial commit that replays the
// speculation's effects in member order and falls back to plain serial
// selection for any member whose speculation no longer matches reality.
//
// Speculation phase. Each worker runs a read-only twin of selectAsk for
// its members against round-start state:
//
//   - classifier statuses via assign.(*Classifier).StatusRO (never
//     mutates), every read recorded with its observed value;
//   - the member's own answer/prune logs (only the apply barrier mutates
//     them, so they are frozen all selection long);
//   - an overlay of the member's own not-yet-committed auto-answers
//     (serial selection records them mid-traversal; the twin must see its
//     own earlier inferences the same way);
//   - every maybeSpecialize rng draw is assumed to FAIL for the twin's
//     own continuation. The serial draw short-circuits before doing
//     anything else, so a failed draw has no effect beyond consuming one
//     rng value — the twin counts draw points and consumes nothing. But
//     a draw CAN succeed at commit, so the twin also captures, per draw
//     point, the branch a success would take: the open successors
//     maybeSpecialize would offer and the prune auto-answers it would
//     record collecting them. The commit can then pose the
//     specialization directly instead of re-running the member;
//   - coveredInFlight is identically false at round start (the in-flight
//     table is cleared before selection), but it fills as earlier members
//     commit — and serial selection spreads members across the frontier
//     with it, quota at a time. A twin that ignores this proposes the same
//     first open node as every other twin, and all but the first quota
//     proposals die at commit. So the twin PREDICTS the spread: member m
//     is handed the count of mining-eligible members before them, and the
//     traversal skips emit candidates while that budget covers their
//     remaining quota (need), exactly as serial coveredInFlight would skip
//     them once those members' asks are in flight. Every predicted skip is
//     recorded and re-checked at commit: each skipped node must then be
//     truly covered, and the emitted node truly not. The prediction is a
//     heuristic (earlier members may idle, probe or specialize instead of
//     consuming their slot); the validation is what carries correctness.
//     Auto-answers are the other place the twin reads aggregator state:
//     crowd.ReadSnapshotter's count decides whether the eventual Add
//     could possibly reach the quota.
//
// The result is a proposal: the emitted question (if any), the ordered
// effect log (root/successor tracking, auto-answers), the ordered status
// read-set, the number of rng draw points, and a pre-instantiated
// fact-set for the emitted node.
//
// Commit phase, strictly in member order, re-validates each proposal
// against the live kernel:
//
//  (a) if any classifier mark landed since round start (MarkCounts
//      changed), every recorded status read is re-checked live;
//  (b) auto-answers must still be safe: the node untouched by any
//      aggregator Add this commit (commitTouched) and its snapshot count
//      at most quota-2, so one more answer cannot settle it (the
//      ReadSnapshotter contract);
//  (c) the predicted-covered skips are scanned in traversal order. Each
//      one covered live confirms the prediction. The FIRST one that is
//      not covered is where serial selection would have stopped and
//      emitted — so the commit does exactly that: it resolves the draws
//      the traversal had consumed up to that point, replays the effect
//      prefix, emits that node and discards the speculated continuation.
//      A misprediction is not a failure, just an earlier stop. If all
//      skips hold, the emitted node itself must still not be covered;
//  (d) the draw points up to the commit's stopping point are resolved
//      against the live rng. A failure confirms the speculation. A
//      success takes the captured branch: when it poses a specialization
//      (≥2 open) and its prune autos are commit-safe, the branch commits
//      directly — prefix effects, branch autos, SpecializeAsk — and when
//      it would be a no-op (fewer than 2 open, nothing pruned) it is
//      indistinguishable from a failed draw and resolution continues.
//      Either way the stream is left exactly where serial selection
//      would have left it.
//
// Any remaining validation failure re-runs plain selectAsk for that
// member, which consumes rng and produces effects exactly as the fully
// serial kernel would have — nothing was applied speculatively, so the
// re-run starts from the same state serial selection would see. The one
// subtle case is a draw succeeding whose branch cannot commit (it would
// record prune autos but not emit, or an auto might settle): the
// already-consumed values are queued on k.rngReplay so the re-run, which
// provably walks the identical path to that draw point, sees them again
// byte-for-byte.
//
// The apply barrier is sharded the same way (applyParallel): phase A
// folds each member's replies into that member's own state concurrently
// (answer logs, prune sets, transcripts, per-member consistency records),
// phase B replays stats, aggregator adds, settles and ban reviews
// serially in ask order. Gated off for top-k runs: MaxMSPs can flip
// k.stopped mid-barrier, which makes later replies' outcomes depend on
// earlier ones.

// selector owns the worker pool and per-round scratch for parallel
// selection; kernel.sel is nil when the kernel runs serially.
type selector struct {
	workers []*specWorker
	// answers is the aggregator's concurrent-read answer counter
	// (crowd.ReadSnapshotter), valid whenever no Add is executing.
	answers func(assign.NodeID) int
	// miningSlots[i] is member i's quota-spreading budget for this round:
	// how many earlier members are predicted to emit mining asks. Computed
	// serially before the workers start, read-only while they run.
	miningSlots []int
	// props/touched are reused round to round.
	props   []*proposal
	touched map[assign.NodeID]bool
}

// specEffect is one replayable side effect of a speculative traversal.
type specEffect struct {
	op   uint8
	node *assign.Assignment
}

const (
	effRoots uint8 = iota // k.roots() tracking at traversal start
	effSuccs              // k.successors(node) tracking
	effAuto               // recordAnswer(u, node, 0, true)
)

// statusRead is one classifier read with its observed value.
type statusRead struct {
	node *assign.Assignment
	st   assign.Status
}

// skipRec is one predicted-covered emit candidate, with how far into the
// proposal's draw and effect logs the traversal was when it was skipped.
// If the prediction fails at commit, serial selection would have emitted
// exactly here — and the two cursors let the commit do just that, no
// serial re-run needed.
type skipRec struct {
	node  *assign.Assignment
	draws int
	eff   int
}

// specBranch captures what a successful specialization draw at one draw
// point would do, so the commit can take the branch without a serial
// re-run. Fields mirror maybeSpecialize: the personally-significant base,
// the open successors it would offer (a specialization is posed iff there
// are at least two), and the successors it would auto-answer from earlier
// pruning clicks while collecting them.
type specBranch struct {
	eff    int // effects recorded before this draw point
	base   *assign.Assignment
	open   []*assign.Assignment
	prunes []*assign.Assignment
	// unsafe marks a prune auto whose replayed Add could reach the
	// aggregator quota and settle; the branch then needs a serial re-run.
	unsafe bool
}

// proposal is the outcome of one member's speculative selection.
type proposal struct {
	// emit says the member poses a concrete question (mining or probe);
	// !emit is an idle round for them. Idle proposals still carry reads,
	// effects and draws: "nothing to ask" is as state-dependent a
	// conclusion as any emission.
	emit   bool
	probe  bool
	target *assign.Assignment
	inst   ontology.FactSet
	// probeAdvance is how far the calibration cursor moved over
	// answered/pruned probes before the emission (or exhaustion).
	probeAdvance int
	// draws counts maybeSpecialize decision points, all assumed failed
	// for the twin's own continuation; branches[d] is what a success at
	// draw point d would do instead.
	draws    int
	branches []specBranch
	effects  []specEffect
	reads    []statusRead
	autos    []*assign.Assignment
	// skips are the emit candidates predicted covered by earlier members'
	// asks, in traversal order; the commit verifies each really is, and
	// commits the first miss as "emit here".
	skips []skipRec
	// unsafeAutos marks a proposal whose auto-answer could reach the
	// aggregator quota and settle (snapshot count ≥ quota-1); it must
	// re-run serially.
	unsafeAutos bool
}

// specWorker is one selection worker's private scratch.
type specWorker struct {
	k       *kernel
	visited []uint32
	epoch   uint32
	queue   []*assign.Assignment
	// ovVal/ovEp overlay the current member's own speculative auto-answers
	// (see answered); epoch-stamped per member, so "clearing" the overlay
	// between members is one counter bump.
	ovVal    []float64
	ovEp     []uint32
	memberEp uint32
	// stVal/stEp cache node statuses for one speculation wave (no marks
	// can land while workers run, so a status computed for one member
	// holds for every member the worker handles that wave). The wave
	// counter invalidates the cache wholesale between waves.
	stVal []assign.Status
	stEp  []uint32
	wave  uint32
}

// successors reads the kernel's per-run successor table. Speculation waves
// and the serial commit strictly alternate, so no worker runs while the
// table is written; a miss goes to Space.Successors and leaves the table
// (and node tracking) to the commit's effect replay.
func (w *specWorker) successors(a *assign.Assignment) []*assign.Assignment {
	k := w.k
	if id := a.ID(); int(id) < len(k.succ) && k.succ[id].node == a {
		return k.succ[id].list
	}
	return k.space.Successors(a)
}

// status is StatusRO behind the wave-scoped cache: each node's status is
// derived once per wave per worker instead of once per member.
func (w *specWorker) status(a *assign.Assignment) assign.Status {
	id := a.ID()
	if int(id) >= len(w.stVal) {
		w.stVal = append(w.stVal, make([]assign.Status, int(id)+1-len(w.stVal))...)
		w.stEp = append(w.stEp, make([]uint32, int(id)+1-len(w.stEp))...)
	}
	if w.stEp[id] == w.wave {
		return w.stVal[id]
	}
	st := w.k.global.StatusRO(a)
	w.stEp[id], w.stVal[id] = w.wave, st
	return st
}

// initSelector enables parallel selection when configured and safe: the
// aggregator must carry a fixed quota and a concurrent answer reader —
// the two halves of the speculation safety contract. Anything else falls
// back to the serial kernel silently (behavior is identical either way).
func (k *kernel) initSelector() {
	n := k.cfg.SelectionWorkers
	if n <= 1 || len(k.users) < 2 || k.quota <= 0 {
		return
	}
	rs, ok := k.agg.(crowd.ReadSnapshotter)
	if !ok {
		return
	}
	if n > len(k.users) {
		n = len(k.users)
	}
	sel := &selector{answers: rs.AnswersReader()}
	for i := 0; i < n; i++ {
		sel.workers = append(sel.workers, &specWorker{
			k:       k,
			visited: make([]uint32, k.space.NumNodes()),
			ovVal:   make([]float64, k.space.NumNodes()),
			ovEp:    make([]uint32, k.space.NumNodes()),
			stVal:   make([]assign.Status, k.space.NumNodes()),
			stEp:    make([]uint32, k.space.NumNodes()),
		})
	}
	k.sel = sel
}

// beginRoundParallel is beginRound's selection loop, sharded. Called with
// the in-flight table already cleared and k.stopped false.
func (k *kernel) beginRoundParallel() []*crowd.Ask {
	// The calibration chain must exist before the workers start (they
	// read it concurrently). Serial selection builds it lazily when the
	// first live member reaches selectProbe; "some member passes the
	// session gates" is exactly that condition, and the gates are stable
	// during selection, so building it here tracks the same nodes at the
	// same point in the effect order.
	if k.checker != nil && k.cfg.CalibrationQuestions > 0 && !k.probesBuilt {
		for _, u := range k.users {
			if k.eligible(u) {
				k.probes = k.probeChain(k.cfg.CalibrationQuestions)
				k.probesBuilt = true
				break
			}
		}
	}

	users := k.users
	props := k.sel.props
	if cap(props) < len(users) {
		props = make([]*proposal, len(users))
	} else {
		props = props[:len(users)]
	}
	k.sel.props = props

	slots := k.sel.miningSlots
	if cap(slots) < len(users) {
		slots = make([]int, len(users))
	} else {
		slots = slots[:len(users)]
	}
	k.sel.miningSlots = slots
	probing := k.checker != nil && k.cfg.CalibrationQuestions > 0

	// speculate runs the twins for users[start:] against the live kernel.
	// Wave 1 covers everyone; later waves re-speculate the tail after a
	// commit-phase divergence, so the twins see every earlier commit
	// (answers and in-flight counts are monotone within a round) and only
	// the wave's own quota spreading stays predictive: member i's budget
	// is the number of wave members before them expected to emit a mining
	// ask. Members still on their calibration chain probe instead (probes
	// bypass coverage), so they don't consume a slot. The budget is a
	// heuristic — a member may turn out to idle or pose a specialization —
	// and every use of it is re-validated at commit.
	nw := len(k.sel.workers)
	speculate := func(start int) {
		mining := 0
		for i := start; i < len(users); i++ {
			slots[i] = mining
			if k.eligible(users[i]) && !(probing && users[i].probeIdx < len(k.probes)) {
				mining++
			}
		}
		g := nw
		if rest := len(users) - start; rest < g {
			g = rest
		}
		var wg sync.WaitGroup
		wg.Add(g)
		for wi := 0; wi < g; wi++ {
			go func(wi int) {
				defer wg.Done()
				w := k.sel.workers[wi]
				w.wave++
				for i := start + wi; i < len(users); i += g {
					props[i] = w.selectFor(users[i], slots[i])
				}
			}(wi)
		}
		wg.Wait()
	}

	// Serial commit, member order — the only phase that mutates shared
	// state, so its fold order is the serial kernel's fold order. A failed
	// validation re-selects that one member serially and then re-speculates
	// the tail: one member's divergence (a successful specialization draw,
	// an idle turn) shifts the quota-spreading chain for everyone after
	// them, so their stale proposals would mostly fail anyway — a fresh
	// parallel wave against the post-divergence state is cheaper than a
	// serial cascade.
	touched := k.sel.touched
	if touched == nil {
		touched = make(map[assign.NodeID]bool)
		k.sel.touched = touched
	} else {
		clear(touched)
	}
	k.commitTouched = touched
	var asks []*crowd.Ask
	for start := 0; start < len(users) && !k.stopped; {
		speculate(start)
		sig0, insig0 := k.global.MarkCounts()
		marksClean := true
		clear(touched)
		next := len(users)
		for i := start; i < len(users) && !k.stopped; i++ {
			u := users[i]
			p := props[i]
			props[i] = nil
			if p == nil {
				continue // ineligible: serial selection is a gate check, nothing more
			}
			if marksClean {
				s1, i1 := k.global.MarkCounts()
				marksClean = s1 == sig0 && i1 == insig0
			}
			ask, ok := k.commitProposal(u, p, marksClean)
			if !ok {
				k.km.SpecRetries.Inc()
				ask = k.selectAsk(u)
				if len(k.rngReplay) != 0 {
					panic("core: serial re-selection left draw replay unconsumed")
				}
				if ask != nil {
					asks = append(asks, ask)
				}
				next = i + 1
				break
			}
			k.km.SpecHits.Inc()
			if ask != nil {
				asks = append(asks, ask)
			}
			// Warm the classifier's status table over everything the
			// twin read: Status advances the node's dense entry and log
			// cursors exactly as serial traversal would, so later waves'
			// StatusRO calls resume from current cursors instead of
			// re-scanning the mark-log tail. Pure memoization — the
			// results are identical, only who pays for them changes.
			for _, r := range p.reads {
				k.global.Status(r.node)
			}
		}
		start = next
	}
	clear(props)
	k.commitTouched = nil
	return asks
}

// commitProposal validates one speculative proposal against the live
// kernel and, when it holds, replays its effects and emits its question.
// ok=false means the caller must re-select serially; in that case NOTHING
// was applied and — except after a successful draw, which queues its
// replay prefix — no rng value was consumed.
func (k *kernel) commitProposal(u *userState, p *proposal, marksClean bool) (*crowd.Ask, bool) {
	// (a) Classifier reads. Marks are the only source of status changes,
	// so an unchanged mark count validates every read at zero cost.
	if !marksClean {
		for _, r := range p.reads {
			if k.global.Status(r.node) != r.st {
				return nil, false
			}
		}
	}
	// (b) Auto-answers must not be able to settle when replayed.
	if p.unsafeAutos {
		return nil, false
	}
	for _, a := range p.autos {
		if k.commitTouched[a.ID()] {
			return nil, false
		}
	}
	// (c) Quota spreading, in traversal order. Every skip covered live
	// confirms the prediction; the first one that is not is where serial
	// selection would have stopped and emitted, so commit exactly that —
	// draws and effects up to the skip's cursors, then the node itself —
	// and discard the speculated continuation.
	for i := range p.skips {
		s := &p.skips[i]
		if k.coveredInFlight(s.node) {
			continue
		}
		ask, done, retry := k.resolveDraws(u, p, s.draws)
		if retry {
			return nil, false
		}
		if done {
			return ask, true
		}
		u.probeIdx += p.probeAdvance
		k.replayEffects(u, p.effects[:s.eff])
		return k.emitConcreteInst(u, s.node, false, k.space.Instantiate(s.node)), true
	}
	// The emitted node must still be open; a covered one means serial
	// selection would have traversed past it into territory the twin
	// never explored. Probes bypass coverage by design.
	if p.emit && !p.probe && k.coveredInFlight(p.target) {
		return nil, false
	}
	// (d) Resolve the remaining rng draws. Draws touch only the rng and
	// effects touch only kernel state, so resolving all draws before
	// replaying any effects folds to the same result as the serial
	// interleaving. Values are drawn here and nowhere else for validated
	// proposals — the stream stays aligned with what serial selection
	// would have consumed.
	ask, done, retry := k.resolveDraws(u, p, p.draws)
	if retry {
		return nil, false
	}
	if done {
		return ask, true
	}
	// Validated: replay the effect log. Auto-answers cannot settle here
	// ((b) above), so no classifier mark and no stop can result.
	u.probeIdx += p.probeAdvance
	k.replayEffects(u, p.effects)
	if !p.emit {
		return nil, true
	}
	return k.emitConcreteInst(u, p.target, p.probe, p.inst), true
}

// replayEffects applies a prefix of a validated proposal's effect log.
func (k *kernel) replayEffects(u *userState, effs []specEffect) {
	for _, e := range effs {
		switch e.op {
		case effRoots:
			k.roots()
		case effSuccs:
			k.successors(e.node)
		case effAuto:
			k.recordAnswer(u, e.node, 0, true)
		}
	}
}

// resolveDraws consumes the proposal's first n draw points from the live
// rng. All failing confirms the speculation (done=false, retry=false). A
// success takes the captured branch: a committable specialization is
// applied and returned (done=true); a no-op branch — fewer than two open
// successors and nothing to prune — behaves exactly like a failed draw
// and resolution continues; anything else queues the consumed values on
// k.rngReplay for the serial re-run (retry=true, nothing applied).
func (k *kernel) resolveDraws(u *userState, p *proposal, n int) (*crowd.Ask, bool, bool) {
	if n == 0 {
		return nil, false, false
	}
	buf := k.drawBuf[:0]
	for d := 0; d < n; d++ {
		v := k.rng.Float64()
		buf = append(buf, v)
		if v >= k.cfg.SpecializationRatio {
			continue
		}
		br := &p.branches[d]
		if len(br.open) < 2 && len(br.prunes) == 0 {
			continue
		}
		if len(br.open) < 2 || br.unsafe || k.branchTouched(br) {
			k.rngReplay = append([]float64(nil), buf...)
			k.drawBuf = buf[:0]
			return nil, false, true
		}
		k.drawBuf = buf[:0]
		return k.commitBranchAsk(u, p, br), true, false
	}
	k.drawBuf = buf[:0]
	return nil, false, false
}

// branchTouched reports whether an aggregator Add already landed on one
// of the branch's prune autos this commit phase — replaying it could
// then settle the node, so the branch must re-run serially (the same
// commitTouched rule validation (b) applies to main-path autos).
func (k *kernel) branchTouched(br *specBranch) bool {
	for _, s := range br.prunes {
		if k.commitTouched[s.ID()] {
			return true
		}
	}
	return false
}

// commitBranchAsk applies a successful specialization draw from its
// captured branch: the effect prefix up to the draw point, then exactly
// what maybeSpecialize does after a successful draw — successor tracking
// on the base, the prune auto-answers found while collecting candidates,
// and the specialization ask itself.
func (k *kernel) commitBranchAsk(u *userState, p *proposal, br *specBranch) *crowd.Ask {
	u.probeIdx += p.probeAdvance
	k.replayEffects(u, p.effects[:br.eff])
	k.successors(br.base)
	for _, s := range br.prunes {
		k.recordAnswer(u, s, 0, true)
	}
	cands := make([]ontology.FactSet, len(br.open))
	for i, o := range br.open {
		cands[i] = k.space.Instantiate(o)
	}
	k.nextAskID++
	ask := &crowd.Ask{
		ID:      k.nextAskID,
		Member:  u.id,
		Index:   u.index,
		Kind:    crowd.SpecializeAsk,
		Base:    k.space.Instantiate(br.base),
		Options: cands,
	}
	u.pending = &pendingAsk{ask: ask, base: br.base, open: br.open}
	return ask
}

// selectFor runs the speculative selectAsk twin for one member, with the
// member's quota-spreading budget. A nil return means the member fails the
// (selection-phase-stable) session gates; the commit skips them with no
// validation, exactly as serial selection returns nil without effects.
func (w *specWorker) selectFor(u *userState, slots int) *proposal {
	k := w.k
	if !k.eligible(u) {
		return nil
	}
	p := &proposal{}
	w.memberEp++
	if k.checker != nil && k.cfg.CalibrationQuestions > 0 {
		if w.specProbe(u, p) {
			return p
		}
	}
	w.specMining(u, p, slots)
	return p
}

// answered mirrors "has this member an answer for the node", including
// the member's own speculative auto-answers (serial selection records
// those mid-traversal and sees them downstream; the overlay recreates
// that without writing u.answers).
func (w *specWorker) answered(u *userState, id assign.NodeID) bool {
	if u.answered.has(id) {
		return true
	}
	return int(id) < len(w.ovEp) && w.ovEp[id] == w.memberEp
}

// answeredYes mirrors the member's yes set over log plus overlay.
func (w *specWorker) answeredYes(u *userState, id assign.NodeID) bool {
	if u.answered.has(id) {
		return u.yes.has(id)
	}
	if int(id) < len(w.ovEp) && w.ovEp[id] == w.memberEp {
		return w.ovVal[id] >= w.k.cfg.Theta
	}
	return false
}

// addAuto logs a speculative auto-answer (support 0 from a pruning
// inference) and classifies its commit safety: replaying the Add must not
// be able to reach the aggregator's quota. Snapshot count ≤ quota-2 means
// even a fresh trusted answer leaves the count below quota, and the
// ReadSnapshotter contract then guarantees Decide stays Undecided; the
// commit additionally requires that no Add touched the node this commit.
func (w *specWorker) addAuto(p *proposal, a *assign.Assignment) {
	k := w.k
	p.effects = append(p.effects, specEffect{op: effAuto, node: a})
	p.autos = append(p.autos, a)
	if id := int(a.ID()); id < len(w.ovEp) {
		w.ovEp[id], w.ovVal[id] = w.memberEp, 0
	} else {
		w.ovVal = append(w.ovVal, make([]float64, id+1-len(w.ovVal))...)
		w.ovEp = append(w.ovEp, make([]uint32, id+1-len(w.ovEp))...)
		w.ovEp[id], w.ovVal[id] = w.memberEp, 0
	}
	if _, dec := k.decided[a.ID()]; !dec {
		if k.sel.answers(a.ID()) >= k.quota-1 {
			p.unsafeAutos = true
		}
	}
}

// specProbe mirrors selectProbe; it reports whether the proposal emits a
// calibration probe. The chain is prebuilt (beginRoundParallel), and the
// cursor advance over answered/pruned entries is deferred to the commit.
func (w *specWorker) specProbe(u *userState, p *proposal) bool {
	k := w.k
	idx := u.probeIdx
	for idx < len(k.probes) {
		pr := k.probes[idx]
		if w.answered(u, pr.ID()) {
			idx++
			continue
		}
		if k.assignmentPruned(u, pr) {
			w.addAuto(p, pr)
			idx++
			continue
		}
		p.probeAdvance = idx - u.probeIdx
		p.target, p.probe, p.emit = pr, true, true
		p.inst = k.space.Instantiate(pr)
		return true
	}
	p.probeAdvance = idx - u.probeIdx
	return false
}

// specMining mirrors selectMining: same BFS, same branch order, with
// every classifier read recorded and every side effect logged instead of
// applied. coveredInFlight is zero at round start but fills as earlier
// members commit; the slots budget predicts that fill (see the file
// comment), so the twin skips the candidates serial selection would find
// covered and emits the one it would reach. The commit re-checks both.
func (w *specWorker) specMining(u *userState, p *proposal, slots int) {
	k := w.k
	w.epoch++
	queue := append(w.queue[:0], k.space.Roots()...)
	p.effects = append(p.effects, specEffect{op: effRoots})
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		if w.seen(a.ID()) {
			continue
		}
		st := w.status(a)
		p.reads = append(p.reads, statusRead{node: a, st: st})
		if st == assign.Insignificant {
			continue
		}
		if st == assign.Significant {
			if w.answeredYes(u, a.ID()) && k.cfg.SpecializationRatio > 0 {
				w.captureBranch(u, p, a)
				p.draws++ // assumed failed; serial consumes one value
			}
			p.effects = append(p.effects, specEffect{op: effSuccs, node: a})
			queue = append(queue, w.successors(a)...)
			continue
		}
		if !w.answered(u, a.ID()) {
			if k.assignmentPruned(u, a) {
				w.addAuto(p, a)
				continue
			}
			// gap is how many more asks this round cover the node. Both
			// the answer count and the in-flight count only grow within a
			// round, so gap<=0 ("already covered") holds at this member's
			// serial turn too — skip with no commit check, exactly the
			// serial coveredInFlight branch. A positive gap that fits in
			// the budget of earlier wave members is only PREDICTED
			// covered; record the skip for the commit to verify.
			id := a.ID()
			gap := k.quota - k.sel.answers(id)
			if gap < 1 {
				gap = 1
			}
			if int(id) < len(k.inFlight) {
				gap -= int(k.inFlight[id])
			}
			if gap <= 0 {
				continue
			}
			if slots >= gap {
				slots -= gap
				p.skips = append(p.skips, skipRec{node: a, draws: p.draws, eff: len(p.effects)})
				continue
			}
			p.target, p.emit = a, true
			p.inst = k.space.Instantiate(a)
			w.queue = queue[:0]
			return
		}
		if w.answeredYes(u, a.ID()) {
			if k.cfg.SpecializationRatio > 0 {
				w.captureBranch(u, p, a)
				p.draws++
			}
			p.effects = append(p.effects, specEffect{op: effSuccs, node: a})
			queue = append(queue, w.successors(a)...)
		}
	}
	w.queue = queue[:0]
}

// captureBranch records, for one draw point, the branch a successful
// specialization draw would take — maybeSpecialize's candidate collection
// run read-only: statuses via StatusRO (recorded for validation (a)),
// answers via log plus overlay, prune autos noted but NOT overlaid (the
// twin's own continuation assumes the draw fails, and then none of this
// happens).
func (w *specWorker) captureBranch(u *userState, p *proposal, base *assign.Assignment) {
	k := w.k
	br := specBranch{eff: len(p.effects), base: base}
	for _, succ := range w.successors(base) {
		st := w.status(succ)
		p.reads = append(p.reads, statusRead{node: succ, st: st})
		if st != assign.Unknown {
			continue
		}
		if w.answered(u, succ.ID()) {
			continue
		}
		if k.assignmentPruned(u, succ) {
			br.prunes = append(br.prunes, succ)
			if _, dec := k.decided[succ.ID()]; !dec {
				if k.sel.answers(succ.ID()) >= k.quota-1 {
					br.unsafe = true
				}
			}
			continue
		}
		br.open = append(br.open, succ)
	}
	p.branches = append(p.branches, br)
}

// seen is the worker-local alreadyVisited twin.
func (w *specWorker) seen(id assign.NodeID) bool {
	if int(id) >= len(w.visited) {
		w.visited = append(w.visited, make([]uint32, int(id)+1-len(w.visited))...)
	}
	if w.visited[id] == w.epoch {
		return true
	}
	w.visited[id] = w.epoch
	return false
}

// ansRec is one answer a reply folds in: the assignment and its support,
// auto for the none-of-these fan-out.
type ansRec struct {
	node    *assign.Assignment
	support float64
	auto    bool
}

// replySlot carries one reply's member-local outcome from the parallel
// fold phase to the serial stats/aggregator phase.
type replySlot struct {
	user        *userState
	ok          bool // pending matched; reply consumed
	departed    bool // fresh departure
	timedOut    bool
	struckOut   bool // timeout budget exhausted
	usable      bool
	kind        crowd.AskKind
	pruneClick  bool
	noneOfThese bool
	openCount   int
	answers     []ansRec
}

// applyAll folds a sorted reply batch at the round barrier. The serial
// path is the plain per-reply apply loop; kernels with parallel selection
// split the fold in two phases (see applyParallel). Top-k runs always
// fold serially: confirming the k-th MSP mid-barrier flips k.stopped,
// which changes how every later reply is folded — an order dependence the
// two-phase split cannot honor.
func (k *kernel) applyAll(replies []crowd.Reply) {
	if k.sel == nil || len(replies) < 2 || k.cfg.MaxMSPs > 0 {
		for _, r := range replies {
			k.apply(r)
			k.km.InFlight.Add(-1)
		}
		return
	}
	k.applyParallel(replies)
}

// applyParallel is the two-phase reply fold. Phase A groups replies by
// member — a member's replies keep ask order within their group, so chaos
// duplicate replies resolve exactly as they do serially — and folds each
// member's group into that member's own state concurrently. Phase B
// walks the slots in ask order and replays everything that touches shared
// state: stats, metrics, aggregator adds, settles, progress samples, ban
// reviews. The serial fold interleaves A-writes and B-writes per reply,
// but A-state is only ever read by its own member's fold (and by phase B
// through the slots), so hoisting all of A before all of B preserves
// every B-visible value; see DESIGN.md §13 for the reviewBan ordering
// argument.
func (k *kernel) applyParallel(replies []crowd.Reply) {
	slots := make([]replySlot, len(replies))
	byMember := make(map[int][]int32)
	for i, r := range replies {
		if r.Ask == nil || r.Ask.Index < 0 || r.Ask.Index >= len(k.users) {
			continue // malformed: serial apply ignores it too
		}
		byMember[r.Ask.Index] = append(byMember[r.Ask.Index], int32(i))
	}
	groups := make([][]int32, 0, len(byMember))
	for _, g := range byMember {
		groups = append(groups, g)
	}

	nw := len(k.sel.workers)
	if nw > len(groups) {
		nw = len(groups)
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for wi := 0; wi < nw; wi++ {
		go func(wi int) {
			defer wg.Done()
			for g := wi; g < len(groups); g += nw {
				k.applyMemberLocal(replies, slots, groups[g])
			}
		}(wi)
	}
	wg.Wait()

	// Phase B: shared state, ask order — the serial fold order. Journal
	// and scoreboard emission lives here (never in phase A): the slots
	// walk in ask order, so the recorded event stream is byte-identical
	// to the serial fold's.
	for i := range slots {
		s := &slots[i]
		r := &replies[i]
		k.km.InFlight.Add(-1)
		if !s.ok {
			continue
		}
		if s.departed {
			k.stats.Departures++
			k.km.Departures.Inc()
			if k.jr != nil {
				k.jr.DepartureEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, s.user.id, r.Outcome.String(),
					r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed))
			}
			k.sb.Departure(s.user.id)
			continue
		}
		if s.timedOut {
			k.stats.TimedOut++
			k.stats.Discarded++
			k.km.Timeouts.Inc()
			k.km.Discarded.Inc()
			if k.jr != nil {
				k.jr.TimeoutEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, s.user.id, r.Outcome.String(),
					r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed), s.struckOut)
			}
			k.sb.Timeout(s.user.id, s.struckOut)
			if s.struckOut {
				k.stats.Departures++
				k.km.Departures.Inc()
				k.sb.Departure(s.user.id)
			}
			continue
		}
		if !s.usable {
			continue
		}
		k.stats.Questions++
		k.km.Questions.Inc()
		if k.jr != nil {
			k.jr.ReplyEvent(k.jrRun, k.stats.Rounds, r.Ask.ID, s.user.id, r.Outcome.String(),
				r.Support, r.Choice, prunedInts(r.Pruned), int64(r.Elapsed), "")
		}
		k.sb.Reply(s.user.id, r.Support, r.Elapsed.Seconds())
		switch s.kind {
		case crowd.ConcreteAsk:
			k.stats.ConcreteQ++
			if s.pruneClick {
				k.stats.PruneClicks++
			}
		case crowd.SpecializeAsk:
			k.stats.SpecialQ++
			if s.noneOfThese {
				k.stats.NoneOfThese++
				k.stats.AutoAnswers += s.openCount - 1
			}
		}
		for _, ar := range s.answers {
			if ar.auto {
				k.stats.AutoAnswers++
				k.km.Inferred.Inc()
			}
			if _, settled := k.decided[ar.node.ID()]; settled {
				continue
			}
			k.agg.Add(ar.node.ID(), s.user.id, ar.support)
			if k.jr != nil && k.agg.Answers(ar.node.ID()) == 1 {
				k.jr.NoteNewAnswer(k.jrRun)
			}
			if d := k.agg.Decide(ar.node.ID()); d != crowd.Undecided {
				k.settle(ar.node, d)
			}
		}
		k.tracker.sample(&k.stats)
		k.reviewBan(s.user)
	}
}

// applyMemberLocal is phase A for one member's replies, in ask order:
// everything the serial apply writes that only this member's folds (and
// the serial phase B, via the slot) ever read. Per-member consistency
// records are safe here because every member was Registered at kernel
// construction, making checker.Record map-read-only across members.
func (k *kernel) applyMemberLocal(replies []crowd.Reply, slots []replySlot, idxs []int32) {
	for _, i := range idxs {
		r := replies[i]
		s := &slots[i]
		u := k.users[r.Ask.Index]
		p := u.pending
		if p == nil || p.ask != r.Ask {
			continue // duplicate or stale reply; slot stays !ok
		}
		u.pending = nil
		if p.probe {
			u.probeIdx++
		}
		s.user = u
		s.ok = true
		if r.Outcome == crowd.Departed {
			if !u.departed {
				u.departed = true
				s.departed = true
			}
			continue
		}
		deadline := k.cfg.AnswerDeadline
		if r.Outcome == crowd.TimedOut || (deadline > 0 && r.Elapsed > deadline) {
			s.timedOut = true
			u.timeouts++
			max := k.cfg.MaxAnswerTimeouts
			if max <= 0 {
				max = 3
			}
			if u.timeouts >= max {
				u.departed = true
				s.struckOut = true
			}
			continue
		}
		u.timeouts = 0
		u.asked++
		s.usable = true
		s.kind = p.ask.Kind
		switch p.ask.Kind {
		case crowd.ConcreteAsk:
			if len(r.Pruned) > 0 {
				s.pruneClick = true
				for _, t := range r.Pruned {
					u.pruned[t] = true
				}
			}
			if k.cfg.RecordTranscript {
				k.transcribe(u, "concrete "+p.target.Key())
			}
			s.answers = append(s.answers, ansRec{node: p.target, support: r.Support})
		case crowd.SpecializeAsk:
			if r.Choice < 0 || r.Choice >= len(p.open) {
				s.noneOfThese = true
				s.openCount = len(p.open)
				if k.cfg.RecordTranscript {
					k.transcribe(u, "specialize "+p.base.Key()+" -> none")
				}
				for _, o := range p.open {
					s.answers = append(s.answers, ansRec{node: o, auto: true})
				}
			} else {
				if k.cfg.RecordTranscript {
					k.transcribe(u, "specialize "+p.base.Key()+" -> "+p.open[r.Choice].Key())
				}
				s.answers = append(s.answers, ansRec{node: p.open[r.Choice], support: r.Support})
			}
		}
		// The member-local half of recordAnswer; the aggregator half
		// runs in phase B.
		for _, ar := range s.answers {
			u.setAnswer(ar.node.ID(), ar.support, k.cfg.Theta)
			if k.checker != nil && !ar.auto {
				k.checker.Record(u.id, k.space.Instantiate(ar.node), ar.support)
			}
		}
	}
}
