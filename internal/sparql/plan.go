package sparql

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// This file implements compiled query plans for the WHERE stage. The seed
// evaluator interpreted a BGP directly: map[string]TermID bindings cloned on
// every bind, pattern choice re-scored at every recursion step, and closure
// BFS re-run per pattern match. A Plan compiles all of that away once per
// query:
//
//   - variables are mapped to dense slots, so a binding is a []vocab.TermID
//     row mutated in place with backtracking undo — no maps, no clones;
//   - the pattern order is fixed at compile time by index-aware selectivity
//     estimates (candidate-set sizes read from the store's SP/PO/P indexes
//     and closure statistics, not just constant counting);
//   - each pattern is lowered to an operator that reads the right store
//     index directly (Has / Objects / Subjects / FactsWithPredicate /
//     ForwardClosure / BackwardClosure / ClosurePairs / LabeledElements).
//
// A compiled Plan is immutable and safe for concurrent Stream calls; each
// call runs on its own scratch row and pushes rows to its consumer in
// production order.

// PlanVar describes one variable slot of a compiled plan. Slots are assigned
// in sorted name order.
type PlanVar struct {
	Name string
	Kind vocab.Kind
}

// bgpVars returns the BGP's variables sorted by name, which is their slot
// order, each with the namespace of its first use. It is the one place slot
// numbers are decided: compile and the plan cache's shape key both read it.
func bgpVars(bgp BGP) []PlanVar {
	vars := make([]PlanVar, 0, 3*len(bgp))
	for _, p := range bgp {
		for i := 0; i < 3; i++ {
			if name, k, ok := p.varAt(i); ok && varSlot(vars, name) < 0 {
				vars = append(vars, PlanVar{Name: name, Kind: k})
			}
		}
	}
	slices.SortFunc(vars, func(a, b PlanVar) int { return strings.Compare(a.Name, b.Name) })
	return vars
}

// varSlot returns the index of the named variable in vars, or -1. A BGP has
// a handful of variables, so a scan beats a map.
func varSlot(vars []PlanVar, name string) int {
	for i, v := range vars {
		if v.Name == name {
			return i
		}
	}
	return -1
}

// freeVal marks an unbound slot in a scratch row. It is distinct from every
// real TermID and from ontology.Any.
const freeVal = vocab.TermID(-1 << 30)

// planTerm is one lowered pattern position.
type planTerm struct {
	isConst bool
	constID vocab.TermID
	slot    int32 // variable slot, or -1 for wildcard/literal positions
}

func (pl *Plan) lowerTerm(t Term) planTerm {
	switch t.Kind {
	case Const:
		return planTerm{isConst: true, constID: t.ID, slot: -1}
	case Var:
		return planTerm{slot: int32(varSlot(pl.vars, t.Name))}
	}
	return planTerm{slot: -1} // wildcard / literal
}

type opKind uint8

const (
	opTriple    opKind = iota // exact triple match
	opStar                    // zero-or-more property path
	opLabel                   // string-literal object (hasLabel filter)
	opSemTriple               // triple under Definition 2.5 implication
)

// op is one compiled operator of the plan.
type op struct {
	kind    opKind
	s, p, o planTerm
	lit     string // opLabel: the literal
	src     int    // original pattern index in the BGP
	est     int    // selectivity estimate at planning time (diagnostics)
	path    string // access path chosen for the bound-shape at this position
	text    string // rendered source pattern (diagnostics)
}

// Plan is a compiled BGP: a fixed operator pipeline over dense variable
// slots. Build one with Evaluator.Compile; run it with Stream. A Plan is
// immutable and safe for concurrent use; Observe (called once, before the
// plan is shared) switches on per-operator cardinality accounting whose
// counters are atomics, so concurrent Streams stay safe.
type Plan struct {
	store    *ontology.Store
	v        *vocab.Vocabulary
	semantic bool

	vars []PlanVar
	ops  []op

	// Observation state (nil/empty when Observe was never called).
	// actual[i] counts partial rows entering operator i across every run;
	// actual[len(ops)] counts yielded rows, which for a projected Stream
	// are the rows yielded after the cut. Per-run counting happens in a
	// plain slice on the exec scratch and is merged here once per run, so
	// the inner matching loops never touch an atomic.
	metrics *obs.PlanMetrics
	actual  []atomic.Int64
	evals   atomic.Int64
}

// Observe enables per-operator cardinality accounting and, when m is
// non-nil, reports eval totals to the given metric set. Call it right after
// Compile, before the plan is shared between goroutines.
func (pl *Plan) Observe(m *obs.PlanMetrics) {
	pl.metrics = m
	if pl.actual == nil {
		pl.actual = make([]atomic.Int64, len(pl.ops)+1)
	}
}

// Compile validates the BGP and lowers it to a Plan. The evaluator's
// Semantic mode is captured at compile time. The store must be frozen
// before compiling (an unfrozen store reads as empty) — selectivity
// estimates and the closure indexes snapshot it. When the evaluator carries a Metrics set the
// compile is timed and the plan comes back with observation enabled. When
// the evaluator carries a Cache, the lookup happens here: a cached shape
// skips compilation (and the Compiles counter) entirely.
func (e *Evaluator) Compile(bgp BGP) (*Plan, error) {
	if e.Cache != nil {
		return e.Cache.lookup(e, bgp)
	}
	return e.compileTimed(bgp)
}

// compileTimed is the uncached Compile body: lower the BGP, time it, and
// switch on observation when the evaluator carries metrics.
func (e *Evaluator) compileTimed(bgp BGP) (*Plan, error) {
	start := time.Now()
	pl, err := e.compile(bgp)
	if err != nil {
		return nil, err
	}
	if e.Metrics != nil {
		e.Metrics.CompileDone(time.Since(start))
		pl.Observe(e.Metrics)
	}
	return pl, nil
}

func (e *Evaluator) compile(bgp BGP) (*Plan, error) {
	if err := e.validate(bgp); err != nil {
		return nil, err
	}
	pl := &Plan{store: e.store, v: e.v, semantic: e.Semantic, vars: bgpVars(bgp)}

	bound := make([]bool, len(pl.vars))
	if reorderUnsafe(bgp, pl.semantic) {
		// Some pattern's meaning depends on whether its variables are
		// already bound when it runs (see reorderUnsafe). Reordering such a
		// BGP could change the result set, so pin the seed evaluator's
		// selection order exactly (the order the WHERE semantics are
		// defined in).
		for _, pi := range interpretedOrder(bgp) {
			pl.lower(bgp[pi], pi, pl.estimate(bgp[pi], bound), bound)
			pl.markBound(bgp[pi], bound)
		}
		return pl, nil
	}
	// Greedy selectivity ordering: repeatedly pick the cheapest pattern
	// given the variables bound so far; ties break on BGP position.
	remaining := make([]int, len(bgp))
	for i := range remaining {
		remaining[i] = i
	}
	for len(remaining) > 0 {
		best, bestCost := 0, int(^uint(0)>>1)
		for ri, pi := range remaining {
			if c := pl.estimate(bgp[pi], bound); c < bestCost {
				best, bestCost = ri, c
			}
		}
		pi := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		pl.lower(bgp[pi], pi, bestCost, bound)
		pl.markBound(bgp[pi], bound)
	}
	return pl, nil
}

func (pl *Plan) markBound(p Pattern, bound []bool) {
	for _, t := range []Term{p.S, p.P, p.O} {
		if t.Kind == Var {
			bound[varSlot(pl.vars, t.Name)] = true
		}
	}
}

// reorderUnsafe reports whether evaluating the BGP's patterns in a different
// order could change the result set. Two constructs behave differently
// depending on whether their variables are bound when they run:
//
//   - a star pattern with no constant endpoint: evaluated with both ends
//     free it only ranges over nodes the predicate's facts mention, while a
//     pre-bound endpoint matches itself via the zero-length path whether
//     mentioned or not;
//   - a semantic-mode triple with an element variable: free it also binds
//     generalizations of the stored value, pre-bound it requires exact
//     equality with it.
//
// Those patterns are only hazardous when one of their variables also occurs
// in another pattern — otherwise no other pattern can pre-bind it. Exact
// triples, label filters, const-anchored stars and predicate variables are
// join-order-independent.
func reorderUnsafe(bgp BGP, semantic bool) bool {
	occ := map[string]int{} // number of patterns each variable occurs in
	for _, p := range bgp {
		seen := map[string]bool{}
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.Kind == Var && !seen[t.Name] {
				seen[t.Name] = true
				occ[t.Name]++
			}
		}
	}
	shared := func(t Term) bool { return t.Kind == Var && occ[t.Name] > 1 }
	for _, p := range bgp {
		if p.Star && p.S.Kind != Const && p.O.Kind != Const &&
			(shared(p.S) || shared(p.O)) {
			return true
		}
		if semantic && !p.Star && p.O.Kind != Literal &&
			(shared(p.S) || shared(p.O)) {
			return true
		}
	}
	return false
}

// interpretedOrder replays the seed evaluator's pattern selection — the
// static most-constants-first stable sort followed by the dynamic
// most-bound-positions-first pick — and returns the pattern indices in that
// order.
func interpretedOrder(bgp BGP) []int {
	static := func(p Pattern) int {
		s := 0
		for _, t := range []Term{p.S, p.P, p.O} {
			if t.Kind == Const || t.Kind == Literal {
				s++
			}
		}
		return s
	}
	idx := make([]int, len(bgp))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return static(bgp[idx[i]]) > static(bgp[idx[j]]) })
	bound := map[string]bool{}
	order := make([]int, 0, len(idx))
	for len(idx) > 0 {
		best, bestScore := 0, -1
		for i, pi := range idx {
			s := 0
			for _, t := range []Term{bgp[pi].S, bgp[pi].P, bgp[pi].O} {
				switch t.Kind {
				case Const, Literal:
					s += 2
				case Var:
					if bound[t.Name] {
						s += 2
					}
				}
			}
			if s > bestScore {
				best, bestScore = i, s
			}
		}
		pi := idx[best]
		idx = append(idx[:best], idx[best+1:]...)
		order = append(order, pi)
		for _, t := range []Term{bgp[pi].S, bgp[pi].P, bgp[pi].O} {
			if t.Kind == Var {
				bound[t.Name] = true
			}
		}
	}
	return order
}

// resolvedAt reports whether a term has a concrete value at planning time,
// given the set of already-bound slots.
func (pl *Plan) resolvedAt(t Term, bound []bool) bool {
	switch t.Kind {
	case Const:
		return true
	case Var:
		return bound[varSlot(pl.vars, t.Name)]
	}
	return false
}

// estimate predicts the candidate-set size of one pattern under the current
// bound-variable set, reading cardinalities from the store's indexes.
func (pl *Plan) estimate(p Pattern, bound []bool) int {
	st := pl.store
	sRes := pl.resolvedAt(p.S, bound)
	oRes := pl.resolvedAt(p.O, bound)
	if p.O.Kind == Literal {
		if sRes {
			return 1
		}
		return atLeast1(len(st.LabeledElements(p.O.Lit)))
	}
	if p.Star {
		pairs, nodes := st.StarStats(p.P.ID)
		switch {
		case sRes && oRes:
			return 1
		case p.S.Kind == Const:
			return atLeast1(len(st.ForwardClosure(p.S.ID, p.P.ID)))
		case p.O.Kind == Const:
			return atLeast1(len(st.BackwardClosure(p.O.ID, p.P.ID)))
		case sRes || oRes:
			return atLeast1(pairs / atLeast1(nodes))
		default:
			return atLeast1(pairs)
		}
	}
	switch p.P.Kind {
	case Const:
		facts, subjects, objects := st.PredStats(p.P.ID)
		switch {
		case sRes && oRes:
			return 1
		case p.S.Kind == Const:
			return atLeast1(len(st.Objects(p.S.ID, p.P.ID)))
		case sRes:
			return atLeast1(facts / atLeast1(subjects))
		case p.O.Kind == Const:
			return atLeast1(len(st.Subjects(p.P.ID, p.O.ID)))
		case oRes:
			return atLeast1(facts / atLeast1(objects))
		default:
			return atLeast1(facts)
		}
	case Var:
		// Predicate variable: bound → one predicate's facts on average;
		// free → a scan over every predicate.
		nPreds := atLeast1(len(st.Predicates()))
		if pl.resolvedAt(p.P, bound) {
			if sRes && oRes {
				return 1
			}
			return atLeast1(st.Size() / nPreds)
		}
		if sRes && oRes {
			return nPreds
		}
		return atLeast1(st.Size()) + nPreds
	}
	return atLeast1(st.Size())
}

func atLeast1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// lower appends the operator for one pattern. bound is the set of slots
// already bound by earlier operators — it determines the access path the
// operator will take at runtime, which lower records for Explain.
func (pl *Plan) lower(p Pattern, src, est int, bound []bool) {
	o := op{
		s:   pl.lowerTerm(p.S),
		p:   pl.lowerTerm(p.P),
		o:   pl.lowerTerm(p.O),
		src: src,
		est: est,
	}
	switch {
	case p.O.Kind == Literal:
		o.kind = opLabel
		o.lit = p.O.Lit
	case p.Star:
		o.kind = opStar
	case pl.semantic:
		o.kind = opSemTriple
	default:
		o.kind = opTriple
	}
	o.path = pl.accessPath(p, o.kind, bound)
	o.text = pl.patternText(p)
	pl.ops = append(pl.ops, o)
}

// accessPath names the store index the operator reads for the bound-shape
// it runs under — the "index chosen per pattern" line of Explain. The shape
// is known at planning time: a position is concrete when it is a constant
// or a variable some earlier operator binds.
func (pl *Plan) accessPath(p Pattern, kind opKind, bound []bool) string {
	sRes := pl.resolvedAt(p.S, bound)
	oRes := pl.resolvedAt(p.O, bound)
	pRes := pl.resolvedAt(p.P, bound)
	switch kind {
	case opLabel:
		if sRes {
			return "HasLabel(s,lit)"
		}
		return "LabeledElements(lit)"
	case opStar:
		switch {
		case sRes && oRes:
			return "Reaches(s,p*,o)"
		case sRes:
			return "ForwardClosure(s,p*)"
		case oRes:
			return "BackwardClosure(p*,o)"
		default:
			return "ClosurePairs(p*)"
		}
	case opSemTriple:
		if pRes {
			return "sem:FactsWithPredicate(p'≥p)"
		}
		return "sem:Predicates×Facts"
	default: // opTriple
		inner := ""
		switch {
		case sRes && oRes:
			inner = "Has(s,p,o)"
		case sRes:
			inner = "Objects(s,p)"
		case oRes:
			inner = "Subjects(p,o)"
		default:
			inner = "FactsWithPredicate(p)"
		}
		if !pRes {
			return "Predicates→" + inner
		}
		return inner
	}
}

// patternText renders the source pattern with vocabulary names for Explain.
func (pl *Plan) patternText(p Pattern) string {
	var sb strings.Builder
	sb.WriteString(pl.termText(p.S, vocab.Element))
	sb.WriteByte(' ')
	sb.WriteString(pl.termText(p.P, vocab.Relation))
	if p.Star {
		sb.WriteByte('*')
	}
	sb.WriteByte(' ')
	sb.WriteString(pl.termText(p.O, vocab.Element))
	return sb.String()
}

func (pl *Plan) termText(t Term, k vocab.Kind) string {
	switch t.Kind {
	case Const:
		if k == vocab.Relation {
			if n := pl.v.RelationName(t.ID); n != "" {
				return n
			}
		} else if n := pl.v.ElementName(t.ID); n != "" {
			return n
		}
		return strconv.Itoa(int(t.ID))
	case Var:
		return "$" + t.Name
	case Literal:
		return strconv.Quote(t.Lit)
	}
	return "*"
}

// Vars returns the plan's variable slots in slot order (sorted by name).
// The slice is shared; do not modify.
func (pl *Plan) Vars() []PlanVar { return pl.vars }

// Describe renders the plan for diagnostics: one line per operator in
// execution order, with its selectivity estimate.
func (pl *Plan) Describe() string {
	var sb strings.Builder
	for i, o := range pl.ops {
		fmt.Fprintf(&sb, "%d: %s pattern#%d est=%d\n", i, opKindNames[o.kind], o.src, o.est)
	}
	return sb.String()
}

var opKindNames = [...]string{"triple", "star", "label", "sem-triple"}

// OpExplain is one operator's row in an Explain report.
type OpExplain struct {
	Op      int    // position in execution order
	Kind    string // operator kind (triple/star/label/sem-triple)
	Pattern int    // source pattern index in the BGP
	Text    string // rendered source pattern
	Path    string // store index / access path the operator reads
	Est     int    // planner's selectivity estimate (candidate-set size)
	// Actuals, populated only when the plan runs with Observe enabled.
	// Past a projected Stream's cut (see Stream) the operators run as an
	// existence probe, so there RowsIn and RowsOut count probe steps, and
	// the last operator's RowsOut counts rows yielded, not solutions.
	Evals   int64 // plan evaluations accounted so far
	RowsIn  int64 // partial rows entering this operator, across all evals
	RowsOut int64 // partial rows surviving it
}

// ExplainOps returns the operator table behind Explain — execution order,
// source pattern, chosen access path, the planner's estimate, and (when the
// plan was Observed and has run) the actual rows in/out of each operator.
func (pl *Plan) ExplainOps() []OpExplain {
	evals := pl.evals.Load()
	out := make([]OpExplain, len(pl.ops))
	for i, o := range pl.ops {
		e := OpExplain{
			Op:      i,
			Kind:    opKindNames[o.kind],
			Pattern: o.src,
			Text:    o.text,
			Path:    o.path,
			Est:     o.est,
			Evals:   evals,
		}
		if pl.actual != nil {
			e.RowsIn = pl.actual[i].Load()
			e.RowsOut = pl.actual[i+1].Load()
		}
		out[i] = e
	}
	return out
}

// Explain renders the compiled plan as a human-readable table: one line per
// operator in execution order with the source pattern, the access path the
// planner chose, the selectivity estimate, and — once the plan has run with
// observation enabled — the actual per-operator cardinalities, so estimate
// quality is visible at a glance.
func (pl *Plan) Explain() string {
	ops := pl.ExplainOps()
	var sb strings.Builder
	mode := "exact"
	if pl.semantic {
		mode = "semantic"
	}
	fmt.Fprintf(&sb, "plan: %d ops, %d vars, %s mode", len(pl.ops), len(pl.vars), mode)
	if pl.actual != nil {
		fmt.Fprintf(&sb, ", %d evals observed", pl.evals.Load())
	}
	sb.WriteByte('\n')
	for _, e := range ops {
		fmt.Fprintf(&sb, "  #%d %-10s pat#%d  %-28s via %-28s est=%-6d",
			e.Op, e.Kind, e.Pattern, e.Text, e.Path, e.Est)
		if pl.actual != nil && e.Evals > 0 {
			fmt.Fprintf(&sb, " rows_in=%-8d rows_out=%-8d", e.RowsIn, e.RowsOut)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// exec is the per-run scratch state of one Stream call: one reusable row
// plus the consumer of emitted rows. yield receives the scratch row each
// time the pipeline completes a solution (the slice is reused — consumers
// retaining a row must copy it); returning false stops the run. cut is the
// operator from which the run is an existence probe (len(ops) when every
// operator runs in full; see Stream). counts, when non-nil, tallies step
// entries per operator for this run (merged into the plan's atomics once at
// the end).
type exec struct {
	row     []vocab.TermID
	yield   func(row []vocab.TermID) bool
	cut     int
	stop    bool
	emitted int
	counts  []int64
}

// Stream runs the plan push-based and calls yield with a row of the plan's
// variable slots, in production order: neither sorted nor deduplicated. The
// row slice is the run's scratch row, valid only for the duration of the
// call; copy it to retain it. Returning false from yield stops the whole
// run. It is the only way rows leave a plan.
//
// proj lists the slots the consumer reads; nil means every slot, and then
// yield sees every solution, the same logical row possibly more than once.
// Otherwise the plan finds its cut, the first operator after which every
// projected slot is bound (operator 0 for an empty proj). The operators
// before the cut run in full; from the cut on, the pipeline is an existence
// probe that stops at its first completion, and the row is yielded once per
// prefix that has one. Only the projected slots of such a row are
// meaningful: slots first bound past the cut read as unbound. The distinct
// projected tuples are exactly those of the full stream, and the same tuple
// can still arrive more than once when prefixes differ outside proj.
//
// The cut is chosen per call, so one cached plan serves consumers that
// project different variables. Stream returns the number of rows yielded —
// after the cut, so with a projection it counts probe successes, not
// solutions — and counts as one evaluation on the plan's metrics.
func (pl *Plan) Stream(proj []int, yield func(row []vocab.TermID) bool) int {
	ex := &exec{row: make([]vocab.TermID, len(pl.vars)), cut: pl.cutFor(proj), yield: yield}
	for i := range ex.row {
		ex.row[i] = freeVal
	}
	if pl.actual == nil {
		pl.step(ex, 0)
		return ex.emitted
	}
	start := time.Now()
	ex.counts = make([]int64, len(pl.ops)+1)
	pl.step(ex, 0)
	for i, c := range ex.counts {
		pl.actual[i].Add(c)
	}
	pl.evals.Add(1)
	pl.metrics.EvalDone(ex.emitted, time.Since(start))
	return ex.emitted
}

// cutFor returns the index of the first operator after which every slot in
// proj is bound, or len(ops) for a nil proj.
func (pl *Plan) cutFor(proj []int) int {
	if proj == nil {
		return len(pl.ops)
	}
	cut := 0
	for _, slot := range proj {
		i := 0
		for i < len(pl.ops) && !pl.ops[i].binds(slot) {
			i++
		}
		cut = max(cut, i+1)
	}
	return min(cut, len(pl.ops))
}

// binds reports whether the operator binds the slot when it is still free.
func (o *op) binds(slot int) bool {
	return int(o.s.slot) == slot || int(o.p.slot) == slot || int(o.o.slot) == slot
}

func (ex *exec) emit() {
	ex.emitted++
	if !ex.yield(ex.row) {
		ex.stop = true
	}
}

// resolve returns the concrete value of a term under the current row.
func (ex *exec) resolve(t planTerm) (vocab.TermID, bool) {
	if t.isConst {
		return t.constID, true
	}
	if t.slot >= 0 {
		if v := ex.row[t.slot]; v != freeVal {
			return v, true
		}
	}
	return 0, false
}

// trySet binds a term position to v. Constants and wildcards pass through
// unchecked (the operator that calls trySet has already honoured constant
// constraints through its index choice, and the semantic operator checks
// them with Leq first). For variables it
// binds a free slot (fresh=true: caller must unset after the continuation)
// or requires equality with the existing binding.
func (ex *exec) trySet(t planTerm, v vocab.TermID) (ok, fresh bool) {
	if t.slot < 0 {
		return true, false
	}
	cur := ex.row[t.slot]
	if cur == freeVal {
		ex.row[t.slot] = v
		return true, true
	}
	return cur == v, false
}

func (ex *exec) unset(t planTerm) { ex.row[t.slot] = freeVal }

// step executes operator i and recurses into the rest of the pipeline. A
// stopped exec (yield returned false, or a probe found its witness) unwinds
// without entering any further operator. At the cut, the rest of the
// pipeline runs as a probe: its first completion sets stop, which the cut
// clears before yielding the row once.
func (pl *Plan) step(ex *exec, i int) {
	if ex.stop {
		return
	}
	if ex.counts != nil {
		ex.counts[i]++
	}
	switch {
	case i == len(pl.ops) && ex.cut < i:
		ex.stop = true // the probe's witness
	case i == len(pl.ops):
		ex.emit()
	case i == ex.cut:
		pl.runOp(ex, i)
		if ex.stop { // only a witness stops a probe
			ex.stop = false
			ex.emit()
		}
	default:
		pl.runOp(ex, i)
	}
}

// runOp executes operator i, calling step(i+1) for each partial row it
// produces.
func (pl *Plan) runOp(ex *exec, i int) {
	o := &pl.ops[i]
	switch o.kind {
	case opLabel:
		pl.runLabel(ex, o, i)
	case opStar:
		pl.runStar(ex, o, i)
	case opTriple:
		if pr, ok := ex.resolve(o.p); ok {
			pl.runTriple(ex, o, pr, i)
		} else {
			for _, pr := range pl.store.Predicates() {
				if ex.stop {
					return
				}
				if ok, fresh := ex.trySet(o.p, pr); ok {
					pl.runTriple(ex, o, pr, i)
					if fresh {
						ex.unset(o.p)
					}
				}
			}
		}
	case opSemTriple:
		pl.runSemDispatch(ex, o, i)
	}
}

func (pl *Plan) runLabel(ex *exec, o *op, i int) {
	if s, ok := ex.resolve(o.s); ok {
		if pl.store.HasLabel(s, o.lit) {
			pl.step(ex, i+1)
		}
		return
	}
	for _, s := range pl.store.LabeledElements(o.lit) {
		if ex.stop {
			return
		}
		if ok, fresh := ex.trySet(o.s, s); ok {
			pl.step(ex, i+1)
			if fresh {
				ex.unset(o.s)
			}
		}
	}
}

// runStar matches `S p* O` against the store's closure index.
func (pl *Plan) runStar(ex *exec, o *op, i int) {
	st := pl.store
	pred := o.p.constID // validated: star predicates are constant
	s, sOK := ex.resolve(o.s)
	obj, oOK := ex.resolve(o.o)
	switch {
	case sOK && oOK:
		if st.Reaches(s, pred, obj) {
			pl.step(ex, i+1)
		}
	case sOK:
		l := st.ForwardClosure(s, pred)
		if l == nil {
			// Closure is exactly {s}: the zero-length path.
			if ok, fresh := ex.trySet(o.o, s); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.o)
				}
			}
			return
		}
		for _, t := range l {
			if ex.stop {
				return
			}
			if ok, fresh := ex.trySet(o.o, t); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.o)
				}
			}
		}
	case oOK:
		l := st.BackwardClosure(obj, pred)
		if l == nil {
			if ok, fresh := ex.trySet(o.s, obj); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.s)
				}
			}
			return
		}
		for _, t := range l {
			if ex.stop {
				return
			}
			if ok, fresh := ex.trySet(o.s, t); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.s)
				}
			}
		}
	default:
		// Both free: the precomputed reachability relation, no per-call
		// dedup map — ClosurePairs is already duplicate-free.
		for _, e := range st.ClosurePairs(pred) {
			if ex.stop {
				return
			}
			ok1, fr1 := ex.trySet(o.s, e.S)
			if !ok1 {
				continue
			}
			if ok2, fr2 := ex.trySet(o.o, e.O); ok2 {
				pl.step(ex, i+1)
				if fr2 {
					ex.unset(o.o)
				}
			}
			if fr1 {
				ex.unset(o.s)
			}
		}
	}
}

// runTriple matches an exact triple pattern under a concrete predicate,
// reading the most specific index the bound positions allow.
func (pl *Plan) runTriple(ex *exec, o *op, pred vocab.TermID, i int) {
	st := pl.store
	s, sOK := ex.resolve(o.s)
	obj, oOK := ex.resolve(o.o)
	switch {
	case sOK && oOK:
		if st.Has(ontology.Fact{S: s, P: pred, O: obj}) {
			pl.step(ex, i+1)
		}
	case sOK:
		for _, x := range st.Objects(s, pred) {
			if ex.stop {
				return
			}
			if ok, fresh := ex.trySet(o.o, x); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.o)
				}
			}
		}
	case oOK:
		for _, x := range st.Subjects(pred, obj) {
			if ex.stop {
				return
			}
			if ok, fresh := ex.trySet(o.s, x); ok {
				pl.step(ex, i+1)
				if fresh {
					ex.unset(o.s)
				}
			}
		}
	default:
		for _, f := range st.FactsWithPredicate(pred) {
			if ex.stop {
				return
			}
			ok1, fr1 := ex.trySet(o.s, f.S)
			if !ok1 {
				continue
			}
			if ok2, fr2 := ex.trySet(o.o, f.O); ok2 {
				pl.step(ex, i+1)
				if fr2 {
					ex.unset(o.o)
				}
			}
			if fr1 {
				ex.unset(o.s)
			}
		}
	}
}

// runSemDispatch enumerates candidate predicates for a semantic triple: a
// pattern predicate q matches any stored predicate q' with q ≤ q'. Bound
// predicate variables additionally require equality.
func (pl *Plan) runSemDispatch(ex *exec, o *op, i int) {
	if o.p.isConst {
		for _, pr := range pl.store.Predicates() {
			if ex.stop {
				return
			}
			if pl.v.LeqR(o.p.constID, pr) {
				pl.runSemTriple(ex, o, pr, i)
			}
		}
		return
	}
	pv, bound := ex.resolve(o.p)
	for _, pr := range pl.store.Predicates() {
		if ex.stop {
			return
		}
		if bound && !pl.v.LeqR(pv, pr) {
			continue
		}
		if ok, fresh := ex.trySet(o.p, pr); ok {
			pl.runSemTriple(ex, o, pr, i)
			if fresh {
				ex.unset(o.p)
			}
		}
	}
}

// semScanFloor is the per-predicate fact count below which runSemTriple
// always takes the linear scan: index probing cannot beat a scan this short.
const semScanFloor = 64

// semSide names the pattern side a candidate list is exact for.
type semSide uint8

const (
	semNone    semSide = iota // a superset: both bound sides still need ≤
	semSubject                // every candidate passes the subject's ≤
	semObject                 // every candidate passes the object's ≤
)

// semCandidates returns the facts runSemTriple must consider for a pattern
// with the given bound sides, in FactsWithPredicate order (Fact.Less, i.e.
// (S, O) within one predicate), and the side those candidates are exact for. sVar says
// the bound subject is a variable bound by an earlier operator: trySet then
// requires the stored subject to equal it, which is stricter than ≤, so the
// candidates are just the predicate's run of facts with that subject. When
// a constant side's descendant cone is small relative to the predicate's
// fact list, the candidates are the store's memoized cone for that side
// (ontology.Store.SemCone) — exactly the subsequence of the full scan that
// survives that side's ≤ filter. Either way the caller skips the exact
// side's filter. Otherwise it returns the predicate's shared
// FactsWithPredicate run and the caller's per-fact filters do the work.
func (pl *Plan) semCandidates(pred vocab.TermID, s vocab.TermID, sOK, sVar bool, obj vocab.TermID, oOK bool) ([]ontology.Fact, semSide) {
	st := pl.store
	all := st.FactsWithPredicate(pred)
	if sVar {
		return subjectRun(all, s), semSubject
	}
	if len(all) <= semScanFloor || (!sOK && !oOK) {
		return all, semNone
	}
	if sOK {
		if cone, ok := st.SemCone(pred, s, false); ok {
			return cone, semSubject
		}
	}
	if oOK {
		if cone, ok := st.SemCone(pred, obj, true); ok {
			return cone, semObject
		}
	}
	return all, semNone
}

// subjectRun returns the contiguous run of facts with subject s in a
// predicate's FactsWithPredicate run, which is sorted by (S, O).
func subjectRun(all []ontology.Fact, s vocab.TermID) []ontology.Fact {
	lo := sort.Search(len(all), func(i int) bool { return all[i].S >= s })
	hi := sort.Search(len(all), func(i int) bool { return all[i].S > s })
	return all[lo:hi]
}

// runSemTriple matches the pattern against facts stored under one concrete
// predicate with Definition 2.5 semantics: a stored fact g witnesses the
// pattern fact f when f ≤ g, and free variables additionally range over
// generalizations of the stored values (the vocabulary's shared
// ancestors-and-self lists, iterated in place).
func (pl *Plan) runSemTriple(ex *exec, o *op, pred vocab.TermID, i int) {
	v := pl.v
	s, sOK := ex.resolve(o.s)
	obj, oOK := ex.resolve(o.o)
	cands, exact := pl.semCandidates(pred, s, sOK, sOK && !o.s.isConst, obj, oOK)
	checkS, checkO := sOK && exact != semSubject, oOK && exact != semObject
	freeS, freeO := !sOK && o.s.slot >= 0, !oOK && o.o.slot >= 0
	for _, g := range cands {
		if ex.stop {
			return
		}
		if checkS && !v.LeqE(s, g.S) {
			continue
		}
		if checkO && !v.LeqE(obj, g.O) {
			continue
		}
		subjects := []vocab.TermID{g.S}
		if freeS {
			subjects = v.ElementAncestorsAndSelf(g.S)
		}
		objects := []vocab.TermID{g.O}
		if freeO {
			objects = v.ElementAncestorsAndSelf(g.O)
		}
		for _, sv := range subjects {
			ok1, fr1 := ex.trySet(o.s, sv)
			if !ok1 {
				continue
			}
			for _, ov := range objects {
				if ok2, fr2 := ex.trySet(o.o, ov); ok2 {
					pl.step(ex, i+1)
					if fr2 {
						ex.unset(o.o)
					}
				}
			}
			if fr1 {
				ex.unset(o.s)
			}
		}
	}
}
