package core

import (
	"sort"

	"oassis/internal/assign"
	"oassis/internal/crowd"
	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// Strategy selects the question-ordering algorithm for a single-user run
// (Section 6.4 compares the three).
type Strategy uint8

const (
	// Vertical is Algorithm 1: top-down traversal that dives from each
	// significant assignment to ever more specific ones.
	Vertical Strategy = iota
	// Horizontal is the Apriori-inspired levelwise baseline: an
	// assignment is asked only after all its immediate predecessors are
	// known significant.
	Horizontal
	// Naive asks randomly chosen valid assignments, with the same
	// inference scheme.
	Naive
)

func (s Strategy) String() string {
	switch s {
	case Horizontal:
		return "horizontal"
	case Naive:
		return "naive"
	default:
		return "vertical"
	}
}

// SingleUser runs one mining strategy against a single crowd member
// (Section 4.1; also the synthetic experiments of Section 6.4).
type SingleUser struct {
	Space    *assign.Space
	Member   crowd.Member
	Theta    float64
	Strategy Strategy
	// SpecializationRatio is the probability of replacing a round of
	// concrete successor questions with one specialization question
	// (vertical only; Figure 4f varies it).
	SpecializationRatio float64
	// Seed drives the run's randomness (question-type choice, naive
	// order).
	Seed int64
	// Watch optionally lists ground-truth assignments whose
	// classified-significant time should be recorded (used by the
	// Figure 5 harness).
	Watch []*assign.Assignment
	// MaxMSPs stops the run once this many MSPs are confirmed (top-k).
	MaxMSPs int
	// OnMSP streams each confirmed MSP.
	OnMSP func(*assign.Assignment)
	// Obs, when set, receives question/departure/MSP counters, journals
	// the run (its run_start names the strategy) and attaches the span
	// summary. Nil disables observability.
	Obs *obs.Observer
}

// Run executes the strategy until the space is fully classified and returns
// the mining result. The run is the mining kernel with one member whose
// every answer is the verdict, driven by Engine.Run; the strategy replaces
// the multi-user traversal as the kernel's question selection.
func (r *SingleUser) Run() *Result {
	e := NewEngine(r.Space, []crowd.Member{r.Member}, EngineConfig{
		Theta:               r.Theta,
		Aggregator:          crowd.NewMeanAggregator(1, r.Theta),
		SpecializationRatio: r.SpecializationRatio,
		MaxMSPs:             r.MaxMSPs,
		OnMSP:               r.OnMSP,
		Seed:                r.Seed,
		Obs:                 r.Obs,
	})
	e.k.single = &singlePolicy{strategy: r.Strategy}
	e.k.watch = r.Watch
	e.k.watchAt = make([]int, len(r.Watch))
	for i := range e.k.watchAt {
		e.k.watchAt[i] = -1
	}
	return e.Run()
}

// singlePolicy is the selection state of a single-member strategy. A
// single-member run differs from a multi-user one only here and in three
// kernel rules: inferred answers settle directly (Supports lists asked
// answers only), the member's departure ends the run with the MSPs
// confirmed so far, and nothing is finalized — every answer is already the
// verdict, and what the strategy never reached stays unclassified.
type singlePolicy struct {
	strategy Strategy
	started  bool

	// cur is Vertical's dive position: the significant assignment whose
	// successors the inner loop of Algorithm 1 asks next (nil runs the
	// outer loop).
	cur *assign.Assignment

	// level is Horizontal's queue, sorted by ascending depth then key;
	// queued marks every assignment ever pushed.
	level  []levelItem
	queued idSet

	// order is Naive's shuffled copy of 𝒜valid; next is its cursor.
	order []*assign.Assignment
	next  int
}

type levelItem struct {
	a     *assign.Assignment
	depth int
}

// selectSingle picks the lone member's next question under the run's
// strategy. Auto-answers found on the way are folded in at once, and the
// stop flag is honored exactly where the strategies' loops check it.
func (k *kernel) selectSingle(u *userState) *crowd.Ask {
	switch k.single.strategy {
	case Horizontal:
		return k.selectHorizontal(u)
	case Naive:
		return k.selectNaive(u)
	default:
		return k.selectVertical(u)
	}
}

// singleSignificant hears that the member's reply found a significant
// assignment: Vertical dives below it, Horizontal queues its successors.
func (k *kernel) singleSignificant(a *assign.Assignment) {
	switch k.single.strategy {
	case Vertical:
		k.single.cur = a
	case Horizontal:
		for _, succ := range k.successors(a) {
			k.pushLevel(succ)
		}
	}
}

// selectVertical is Algorithm 1 with the lazy generation of Section 5 and
// the optional specialization questions of Section 4.1: the inner loop
// asks the open successors of cur, and once none is left the outer loop
// restarts from the most general unclassified assignment.
func (k *kernel) selectVertical(u *userState) *crowd.Ask {
	p := k.single
	if p.cur != nil {
		if open := k.openSuccessors(u, p.cur); len(open) > 0 {
			if ratio := k.cfg.SpecializationRatio; ratio > 0 && len(open) > 1 && k.rng.Float64() < ratio {
				return k.emitSpecialize(u, p.cur, open)
			}
			return k.emitConcrete(u, open[0], false)
		}
		p.cur = nil
		if k.stopped {
			return nil
		}
	}
	if phi := k.minimalUnclassified(u); phi != nil {
		return k.emitConcrete(u, phi, false)
	}
	return nil
}

// minimalUnclassified descends from the roots through significant
// assignments to the first unclassified one (the outer-loop pick of
// Algorithm 1, in the refined start-at-the-top form of Section 4.2). It
// shares selectMining's epoch-stamped traversal scratch.
func (k *kernel) minimalUnclassified(u *userState) *assign.Assignment {
	k.epoch++
	queue := append(k.queueBuf[:0], k.roots()...)
	defer func() { k.queueBuf = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		a := queue[head]
		if k.alreadyVisited(a.ID()) {
			continue
		}
		switch k.global.Status(a) {
		case assign.Unknown:
			if k.assignmentPruned(u, a) {
				k.inferPruned(u, a)
				continue
			}
			return a
		case assign.Significant:
			queue = append(queue, k.successors(a)...)
		}
	}
	return nil
}

// selectHorizontal processes assignments levelwise by ascending depth,
// asking an assignment only when every immediate predecessor is
// significant. A significant assignment's successors join the queue.
func (k *kernel) selectHorizontal(u *userState) *crowd.Ask {
	p := k.single
	if !p.started {
		p.started = true
		for _, r := range k.roots() {
			k.pushLevel(r)
		}
	}
	for len(p.level) > 0 && !k.stopped {
		a := p.level[0].a
		p.level = p.level[1:]
		switch k.global.Status(a) {
		case assign.Insignificant:
			continue
		case assign.Unknown:
			if !k.allPredecessorsSignificant(a) {
				continue
			}
			if k.assignmentPruned(u, a) {
				k.inferPruned(u, a)
				continue
			}
			return k.emitConcrete(u, a, false)
		}
		// Already significant: queue its successors without asking.
		k.singleSignificant(a)
	}
	return nil
}

// pushLevel queues an assignment for the levelwise traversal, once.
func (k *kernel) pushLevel(a *assign.Assignment) {
	p := k.single
	if !p.queued.add(a.ID()) {
		return
	}
	it := levelItem{a: a, depth: k.depthOf(a)}
	// Keys are unique, so inserting at the first greater item keeps the
	// queue in exactly the order a stable sort would.
	i := sort.Search(len(p.level), func(i int) bool {
		if p.level[i].depth != it.depth {
			return p.level[i].depth > it.depth
		}
		return p.level[i].a.Key() > it.a.Key()
	})
	p.level = append(p.level, levelItem{})
	copy(p.level[i+1:], p.level[i:])
	p.level[i] = it
}

// depthOf is a level measure for the levelwise traversal: the summed
// vocabulary depths of all values and MORE-fact components, plus a large
// constant per value/fact. Specialization and extension edges increase it;
// the one exception is multiplicity absorption (specializing a value so
// that it swallows a sibling), which the traversal's deferral loop absorbs.
func (k *kernel) depthOf(a *assign.Assignment) int {
	v := k.space.Vocabulary()
	elemDepth := func(id vocab.TermID) int {
		if id == ontology.Any {
			return 0
		}
		return v.ElementDepth(id)
	}
	d := 0
	for _, f := range a.More() {
		d += 1000 + elemDepth(f.S) + elemDepth(f.O)
		if f.P != ontology.Any {
			d += v.RelationDepth(f.P)
		}
	}
	for _, vs := range k.space.Vars() {
		for _, val := range a.Values(vs.Name) {
			if vs.Kind == vocab.Element {
				d += v.ElementDepth(val) + 100
			} else {
				d += v.RelationDepth(val) + 100
			}
		}
	}
	return d
}

func (k *kernel) allPredecessorsSignificant(a *assign.Assignment) bool {
	for _, p := range k.space.Predecessors(a) {
		if k.global.Status(p) != assign.Significant {
			return false
		}
	}
	return true
}

// selectNaive asks the valid assignments in one random order, skipping
// those the inference scheme has already classified.
func (k *kernel) selectNaive(u *userState) *crowd.Ask {
	p := k.single
	if !p.started {
		p.started = true
		p.order = append([]*assign.Assignment(nil), k.space.Valid()...)
		k.rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	}
	for p.next < len(p.order) && !k.stopped {
		a := p.order[p.next]
		p.next++
		k.track(a)
		if k.global.Status(a) != assign.Unknown {
			continue
		}
		if k.assignmentPruned(u, a) {
			k.inferPruned(u, a)
			continue
		}
		return k.emitConcrete(u, a, false)
	}
	return nil
}
