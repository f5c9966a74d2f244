package assign

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"oassis/internal/oassisql"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// VarSpec describes one mining variable of the space.
type VarSpec struct {
	Name string
	Kind vocab.Kind
	Mult oassisql.Multiplicity
	// Bound reports whether the WHERE clause constrains the variable; an
	// unbound variable ranges over its entire namespace (this is how
	// OASSIS-QL captures classic frequent itemset mining).
	Bound bool
}

// Space is the assignment universe of one query: the projection of the
// WHERE clause's valid assignments onto the SATISFYING variables, expanded
// with all their generalizations (Algorithm 1, line 1), multiplicity
// combinations (Proposition 5.1) and MORE-fact extensions. Assignments are
// generated lazily through Roots, Successors and Predecessors.
//
// Every assignment handed out by a Space is interned: structurally equal
// assignments are the same pointer and carry a dense NodeID, so identity
// checks are pointer/integer comparisons and per-node state elsewhere can
// live in slices. Successor/predecessor lists, the root set and closure
// membership are memoized on the space and shared — concurrency-safely —
// by every driver, user and re-run over the same query.
type Space struct {
	v     *vocab.Vocabulary
	query *oassisql.Query
	vars  []VarSpec
	kinds map[string]vocab.Kind

	valid []*Assignment

	// ub is the upper-bound antichain per variable: the most specific
	// WHERE-derived constraints. Generalization stays within
	// {t | ∀u ∈ ub: u ≤ t}. nil means unrestricted.
	ub map[string][]vocab.TermID

	morePool ontology.FactSet

	// in is the interner and shared edge/closure/root cache. Its mutex
	// guards every mutable field below (including coverCache); the
	// immutable query-derived fields above are read lock-free.
	in *interner

	// coverCache memoizes validMatch: singleton products repeat heavily
	// across closure checks of related assignments. keyBuf is the reused
	// buffer its keys are built in, and validCols the lazily built column
	// table validMatch and ValidScan read (see validColumns). All guarded
	// by in.mu; coverCache is made on the first closure or validity check.
	coverCache map[string]bool
	keyBuf     []byte
	validCols  *validTable
}

// newSpaceShell builds the query-derived skeleton of a Space: mining
// variable specs, namespaces, upper bounds and the MORE pool.
// NewSpaceFromPlan then fills in 𝒜valid from the WHERE results.
func newSpaceShell(q *oassisql.Query, morePool ontology.FactSet) (*Space, error) {
	if err := sparql.CheckVarKinds(q.Where); err != nil {
		return nil, err
	}
	sat := q.SatVars()
	s := &Space{
		v:     q.Vocabulary(),
		query: q,
		vars:  make([]VarSpec, len(sat)),
		kinds: make(map[string]vocab.Kind, len(sat)),
		ub:    make(map[string][]vocab.TermID),
		in:    newInterner(),
	}
	for i, sv := range sat {
		_, bound := sparql.VarKind(q.Where, sv.Name)
		s.vars[i] = VarSpec{Name: sv.Name, Kind: sv.Kind, Mult: sv.Mult, Bound: bound}
		s.kinds[sv.Name] = sv.Kind
	}
	if q.Satisfying.More {
		s.morePool = canonicalMore(s.v, morePool)
	}
	s.computeUpperBounds()
	return s, nil
}

// projSchema maps the bound mining variables, sorted by name (the canonical
// Assignment layout), onto the columns of a plan's result rows.
type projSchema struct {
	names  []string
	kinds  []vocab.Kind
	colIdx []int
}

// schemaFor builds the projection schema against a plan's variable slots.
// s.vars is sorted by name, so the columns come out in name order. colIdx
// is never nil: Plan.Stream reads a nil projection as "every slot".
func (s *Space) schemaFor(planVars []sparql.PlanVar) projSchema {
	n := len(s.vars)
	sch := projSchema{
		names:  make([]string, 0, n),
		kinds:  make([]vocab.Kind, 0, n),
		colIdx: make([]int, 0, n),
	}
	for _, vs := range s.vars {
		if !vs.Bound {
			continue
		}
		for i, pv := range planVars {
			if pv.Name == vs.Name {
				sch.names = append(sch.names, vs.Name)
				sch.kinds = append(sch.kinds, vs.Kind)
				sch.colIdx = append(sch.colIdx, i)
				break
			}
		}
	}
	return sch
}

// internTuples builds 𝒜valid. slab packs n projected tuples, one value per
// schema column (variables in name order), duplicates allowed. The distinct
// tuples are put in canonical key order with one sort (distinctTuples) and
// registered in that order, so NodeID i is Valid()[i].
//
// The space costs a fixed number of allocations whatever |𝒜valid| is: the
// nodes live in one []Assignment, their singleton value sets are one
// [][]TermID slicing one flat value array, and they are registered on the
// fresh interner in one pass without hashing (see registerFresh). Keys stay
// lazy: the sort orders the values as their keys would.
func (s *Space) internTuples(sch projSchema, slab []vocab.TermID, n int) {
	w := len(sch.names)
	vals, m := distinctTuples(slab, w, n)

	// Singleton value sets are trivially canonical and the name/kind
	// slices are immutable, so every node shares them and slices its
	// values out of vals.
	nodes := make([]Assignment, m)
	sets := make([][]vocab.TermID, m*w)
	for i := range sets {
		sets[i] = vals[i : i+1 : i+1]
	}
	valid := make([]*Assignment, m)
	for r := range nodes {
		a := &nodes[r]
		a.names, a.kinds, a.vals = sch.names, sch.kinds, sets[r*w:(r+1)*w:(r+1)*w]
		valid[r] = a
	}

	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	s.in.registerFresh(valid)
	s.valid = valid
}

// distinctTuples returns the m distinct tuples of the n width-w tuples
// packed in slab, packed the same way in a fresh array, in canonical key
// order: column by column, each value ordered as its decimal rendering
// followed by ';' (vocab.CompareDecimal). When packTuples can give every
// tuple one integer key, that is one integer sort; otherwise the tuples
// are sorted with CompareDecimal.
func distinctTuples(slab []vocab.TermID, w, n int) ([]vocab.TermID, int) {
	tuple := func(i int) []vocab.TermID { return slab[i*w : (i+1)*w] }
	if packed, shift, ok := packTuples(slab, w, n); ok {
		slices.Sort(packed)
		packed = slices.CompactFunc(packed, func(a, b uint64) bool { return a>>shift == b>>shift })
		vals := make([]vocab.TermID, 0, len(packed)*w)
		for _, p := range packed {
			vals = append(vals, tuple(int(p&(1<<shift-1)))...)
		}
		return vals, len(packed)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ta, tb := tuple(int(a)), tuple(int(b))
		for c, x := range ta {
			if d := vocab.CompareDecimal(x, tb[c]); d != 0 {
				return d
			}
		}
		return 0
	})
	order = slices.CompactFunc(order, func(a, b int32) bool { return slices.Equal(tuple(int(a)), tuple(int(b))) })
	vals := make([]vocab.TermID, 0, len(order)*w)
	for _, i := range order {
		vals = append(vals, tuple(int(i))...)
	}
	return vals, len(order)
}

// packTuples gives each of the n width-w tuples in slab one uint64: its
// values' vocab.DecimalKey digits in base vocab.DecimalKeyBound, shifted
// left by shift bits, plus its row index. Sorting the words sorts the
// tuples in key order, and equal tuples share the bits above shift. ok is
// false when some value is negative or the words would not fit in 64
// bits.
func packTuples(slab []vocab.TermID, w, n int) (packed []uint64, shift uint, ok bool) {
	var top vocab.TermID
	for _, x := range slab[:n*w] {
		if x < 0 {
			return nil, 0, false
		}
		top = max(top, x)
	}
	d := vocab.DecimalDigits(top)
	base := vocab.DecimalKeyBound(d)
	span := uint64(1) // base^w, the number of distinct tuple keys
	for range w {
		hi, lo := bits.Mul64(span, base)
		if hi != 0 {
			return nil, 0, false
		}
		span = lo
	}
	shift = uint(bits.Len(uint(max(n, 1) - 1)))
	if bits.Len64(span-1)+int(shift) > 64 {
		return nil, 0, false
	}
	packed = make([]uint64, n)
	for i := range packed {
		var k uint64
		for _, x := range slab[i*w : (i+1)*w] {
			k = k*base + vocab.DecimalKey(x, d)
		}
		packed[i] = k<<shift | uint64(i)
	}
	return packed, shift, true
}

// Vocabulary returns the space's vocabulary.
func (s *Space) Vocabulary() *vocab.Vocabulary { return s.v }

// Query returns the query the space was built for.
func (s *Space) Query() *oassisql.Query { return s.query }

// Vars returns the mining variables (shared slice; do not modify).
func (s *Space) Vars() []VarSpec { return s.vars }

// Kinds returns the variable→namespace map (shared; do not modify).
func (s *Space) Kinds() map[string]vocab.Kind { return s.kinds }

// Valid returns the projected valid assignments 𝒜valid (multiplicity 1)
// in canonical key order, the one order internTuples sorts them in, so
// Valid()[i] is the node with NodeID i.
func (s *Space) Valid() []*Assignment { return s.valid }

// MorePool returns the MORE candidate pool ("" when MORE is off).
func (s *Space) MorePool() ontology.FactSet { return s.morePool }

// Leq reports a ≤ b within this space.
func (s *Space) Leq(a, b *Assignment) bool { return Leq(s.v, a, b) }

// Canon returns the canonical interned twin of a, registering it (and
// assigning a dense NodeID) on first sight. Assignments returned by Roots,
// Successors, Predecessors and Valid are already canonical; Canon is for
// assignments built externally (e.g. planted test fixtures).
func (s *Space) Canon(a *Assignment) *Assignment {
	s.in.mu.RLock()
	if s.in.canonical(a) {
		s.in.mu.RUnlock()
		return a
	}
	s.in.mu.RUnlock()
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.canonLocked(a)
}

// canonLocked interns a; caller holds in.mu.
func (s *Space) canonLocked(a *Assignment) *Assignment {
	if s.in.canonical(a) {
		return a // already canonical in this space
	}
	c, _ := s.in.intern(a)
	return c
}

// NumNodes returns the number of assignments interned so far; NodeIDs are
// dense in [0, NumNodes). It grows as the lattice is explored lazily.
func (s *Space) NumNodes() int {
	s.in.mu.RLock()
	defer s.in.mu.RUnlock()
	return len(s.in.nodes)
}

// SpaceStats is a point-in-time snapshot of the interner and shared edge
// cache, surfaced for observability (Space.Stats). Hits/misses are
// cumulative since construction.
type SpaceStats struct {
	Nodes        int   // assignments interned (dense NodeID range)
	Valid        int   // projected valid assignments |𝒜valid|
	InternHits   int64 // intern() calls answered by an existing node
	InternMisses int64 // intern() calls that registered a new node
	EdgeHits     int64 // Successors/Predecessors served from the memo
	EdgeMisses   int64 // Successors/Predecessors that computed edge lists
}

// Stats snapshots the interner/edge-cache counters. The counters are
// atomics, so Stats never contends with the mining hot path.
func (s *Space) Stats() SpaceStats {
	s.in.mu.RLock()
	nodes := len(s.in.nodes)
	valid := len(s.valid)
	s.in.mu.RUnlock()
	return SpaceStats{
		Nodes:        nodes,
		Valid:        valid,
		InternHits:   s.in.internHits.Load(),
		InternMisses: s.in.internMisses.Load(),
		EdgeHits:     s.in.edgeHits.Load(),
		EdgeMisses:   s.in.edgeMisses.Load(),
	}
}

// computeUpperBounds derives, per variable, the most specific generalization
// cap implied by the WHERE clause: patterns `$v subClassOf* C` and
// `$v instanceOf C` cap v at C, and `$v instanceOf $w` (or a subClassOf path
// to $w) makes v inherit w's cap. This matches Figure 3, whose top node is
// (Attraction, Activity) rather than the vocabulary root.
func (s *Space) computeUpperBounds() {
	consts := map[string][]vocab.TermID{}
	links := map[string][]string{}
	for _, p := range s.query.Where {
		if p.S.Kind != sparql.Var || p.P.Kind != sparql.Const {
			continue
		}
		rel := s.v.RelationName(p.P.ID)
		if rel != ontology.RelSubClassOf && rel != ontology.RelInstanceOf {
			continue
		}
		switch p.O.Kind {
		case sparql.Const:
			consts[p.S.Name] = append(consts[p.S.Name], p.O.ID)
		case sparql.Var:
			links[p.S.Name] = append(links[p.S.Name], p.O.Name)
		}
	}
	// Propagate constants through links to a fixpoint.
	for changed := true; changed; {
		changed = false
		for from, tos := range links {
			for _, to := range tos {
				for _, c := range consts[to] {
					if !containsID(consts[from], c) {
						consts[from] = append(consts[from], c)
						changed = true
					}
				}
			}
		}
	}
	for _, vs := range s.vars {
		if cs, ok := consts[vs.Name]; ok && vs.Kind == vocab.Element {
			s.ub[vs.Name] = maximalElements(s.v, vs.Kind, cs)
		}
	}
}

func containsID(ids []vocab.TermID, id vocab.TermID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// maximalElements keeps the most specific terms of a constraint set (the
// conjunction of the caps).
func maximalElements(v *vocab.Vocabulary, k vocab.Kind, ids []vocab.TermID) []vocab.TermID {
	out := canonicalSet(v, k, ids)
	return out
}

// withinUB reports whether a term satisfies every cap of the variable.
func (s *Space) withinUB(name string, t vocab.TermID) bool {
	ub, ok := s.ub[name]
	if !ok {
		return true
	}
	for _, u := range ub {
		if !s.v.Leq(s.kinds[name], u, t) {
			return false
		}
	}
	return true
}

// ubMinimal returns the most general terms allowed for the variable: the
// minimal elements of the region {t | ∀u ∈ ub: u ≤ t}. For an unrestricted
// variable these are the namespace roots.
func (s *Space) ubMinimal(name string) []vocab.TermID {
	ub, ok := s.ub[name]
	if !ok {
		if s.kinds[name] == vocab.Relation {
			return s.v.RelationRoots()
		}
		return s.v.ElementRoots()
	}
	if len(ub) == 1 {
		return []vocab.TermID{ub[0]}
	}
	// Multiple incomparable caps: the minimal common specializations.
	var topo []vocab.TermID
	if s.kinds[name] == vocab.Relation {
		topo = s.v.RelationsTopo()
	} else {
		topo = s.v.ElementsTopo()
	}
	var out []vocab.TermID
	for _, t := range topo {
		if !s.withinUB(name, t) {
			continue
		}
		minimal := true
		for _, p := range s.v.Parents(s.kinds[name], t) {
			if s.withinUB(name, p) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, t)
		}
	}
	return out
}

// Roots returns the minimal assignments of the space: each variable with
// Min ≥ 1 takes one most-general value (one root per combination when caps
// are incomparable), variables with Min = 0 start empty, and there are no
// MORE facts. The traversal of Algorithm 1 starts here. The result is
// memoized and shared — callers must treat it as read-only.
func (s *Space) Roots() []*Assignment {
	s.in.mu.RLock()
	if s.in.rootsDone {
		out := s.in.roots
		s.in.mu.RUnlock()
		return out
	}
	s.in.mu.RUnlock()

	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	if !s.in.rootsDone {
		s.in.roots = s.computeRootsLocked()
		s.in.rootsDone = true
	}
	return s.in.roots
}

func (s *Space) computeRootsLocked() []*Assignment {
	choices := make([][]vocab.TermID, 0, len(s.vars))
	names := make([]string, 0, len(s.vars))
	for _, vs := range s.vars {
		if vs.Mult.Min == 0 {
			continue
		}
		names = append(names, vs.Name)
		choices = append(choices, s.ubMinimal(vs.Name))
	}
	var out []*Assignment
	pick := make([]vocab.TermID, len(names))
	var rec func(i int)
	rec = func(i int) {
		if i == len(names) {
			vals := make(map[string][]vocab.TermID, len(names))
			for j, n := range names {
				vals[n] = []vocab.TermID{pick[j]}
			}
			out = append(out, s.canonLocked(New(s.v, s.kinds, vals, nil)))
			return
		}
		for _, c := range choices[i] {
			pick[i] = c
			rec(i + 1)
		}
	}
	rec(0)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return dedupe(out)
}

// inClosureLocked reports membership in the expanded assignment set 𝒜:
// every singleton-product of the assignment's value sets must generalize
// some valid assignment (the combination closure of Proposition 5.1), and
// every MORE fact must generalize some pool fact. Unbound variables are
// unconstrained. The verdict is memoized per interned node; caller holds
// in.mu.
func (s *Space) inClosureLocked(a *Assignment) bool {
	id := a.id
	interned := id != noID && int(id) < len(s.in.nodes) && s.in.nodes[id] == a
	if m := s.in.memoAt(id); interned && m != nil {
		switch m.closure {
		case 1:
			return true
		case 2:
			return false
		}
	}
	in := s.computeInClosureLocked(a)
	if interned {
		m := s.in.fill(id)
		if in {
			m.closure = 1
		} else {
			m.closure = 2
		}
	}
	return in
}

func (s *Space) computeInClosureLocked(a *Assignment) bool {
	var bound []int
	for j, vs := range s.vars {
		if vs.Bound && len(a.Values(vs.Name)) > 0 {
			bound = append(bound, j)
		}
	}
	if !s.everyProduct(a, bound, false) {
		return false
	}
	for _, f := range a.More() {
		ok := false
		for _, g := range s.morePool {
			if ontology.LeqFact(s.v, f, g) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// IsValid reports strict validity w.r.t. the query (the `M ∩ 𝒜valid` filter
// of Algorithm 1, line 9): multiplicities are within bounds and every
// singleton-product over the bound variables is itself a valid assignment.
// Variables a product omits (legally empty under multiplicity 0) may take
// any value there: dropping a multiplicity-0 variable deletes its
// meta-facts, not the assignment's validity (Section 3). MORE facts never
// affect validity.
func (s *Space) IsValid(a *Assignment) bool {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	var bound []int
	for j, vs := range s.vars {
		n := len(a.Values(vs.Name))
		if !vs.Mult.Allows(n) {
			return false
		}
		if vs.Bound && n > 0 {
			bound = append(bound, j)
		} else if vs.Bound && vs.Mult.Min > 0 {
			return false
		}
	}
	return s.everyProduct(a, bound, true)
}

// everyProduct reports whether every singleton product of a's value sets
// over the variables s.vars[bound[i]] matches some valid assignment (see
// validMatch). Caller holds in.mu.
func (s *Space) everyProduct(a *Assignment, bound []int, exact bool) bool {
	pick := make([]vocab.TermID, len(bound))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(bound) {
			return s.validMatch(bound, pick, exact)
		}
		for _, v := range a.Values(s.vars[bound[i]].Name) {
			pick[i] = v
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// validMatch reports whether some valid assignment binds, for every i, one
// value w to variable s.vars[cols[i]] with pick[i] ≤ w — or pick[i] == w
// when exact is set. The first form is the closure test (the product
// generalizes a valid assignment), the second the validity test. Results
// are memoized in coverCache: related assignments share most of their
// products. Caller holds in.mu.
func (s *Space) validMatch(cols []int, pick []vocab.TermID, exact bool) bool {
	key := s.keyBuf[:0]
	if exact {
		key = append(key, '=')
	} else {
		key = append(key, '<')
	}
	for i, j := range cols {
		key = binary.LittleEndian.AppendUint32(key, uint32(j))
		key = binary.LittleEndian.AppendUint32(key, uint32(pick[i]))
	}
	s.keyBuf = key
	if v, ok := s.coverCache[string(key)]; ok {
		return v
	}
	tab := s.validColumns()
	found := false
rows:
	for r := range s.valid {
		for i, j := range cols {
			w := tab.cols[j][r]
			if exact && w != pick[i] || !exact && !s.v.Leq(s.vars[j].Kind, pick[i], w) {
				continue rows
			}
		}
		found = true
		break
	}
	if s.coverCache == nil {
		s.coverCache = make(map[string]bool)
	}
	s.coverCache[string(key)] = found
	return found
}

// validTable is 𝒜valid by column: row r is Valid()[r], the node with
// NodeID r. internTuples builds every row with one value for each bound
// variable, under the variable's kind, and no MORE facts, so the columns
// describe the rows completely. The table is built on the first closure,
// validity or scan request rather than during construction, so spaces that
// are never mined do not pay for it, and it is immutable once built.
type validTable struct {
	// cols[j][r] is the value s.Valid()[r] binds to s.vars[j]. Unbound
	// variables get no column.
	cols [][]vocab.TermID
	// vals[j] lists the distinct values of column j, and slot[j][r] is the
	// position of cols[j][r] in it, so per-value state can live in dense
	// slices.
	vals [][]vocab.TermID
	slot [][]int32
}

// validColumns returns the valid-assignment column table, building it on
// first use. Caller holds in.mu.
func (s *Space) validColumns() *validTable {
	if s.validCols != nil {
		return s.validCols
	}
	t := &validTable{
		cols: make([][]vocab.TermID, len(s.vars)),
		vals: make([][]vocab.TermID, len(s.vars)),
		slot: make([][]int32, len(s.vars)),
	}
	for j, vs := range s.vars {
		if !vs.Bound {
			continue
		}
		col := make([]vocab.TermID, len(s.valid))
		slot := make([]int32, len(s.valid))
		pos := map[vocab.TermID]int32{}
		for r, psi := range s.valid {
			w := psi.Values(vs.Name)[0]
			i, ok := pos[w]
			if !ok {
				i = int32(len(t.vals[j]))
				pos[w] = i
				t.vals[j] = append(t.vals[j], w)
			}
			col[r], slot[r] = w, i
		}
		t.cols[j], t.slot[j] = col, slot
	}
	s.validCols = t
	return t
}

// varIndex returns the position of a mining variable in s.vars, or -1.
func (s *Space) varIndex(name string) int {
	for j, vs := range s.vars {
		if vs.Name == name {
			return j
		}
	}
	return -1
}

// ValidScan counts the valid assignments classified by a growing sequence
// of marks: a significant mark m classifies every ψ ∈ 𝒜valid with ψ ≤ m,
// an insignificant one every ψ with m ≤ ψ (Observation 4.4). The count is
// the "classified valid" series of the pace-of-collection curves (Figures
// 4d–4e).
//
// A valid row binds one value t to each bound variable and nothing else
// (see validTable), so the order test splits into one test per variable:
// ∃q ∈ m(x): t ≤ q for a significant mark, ∀q ∈ m(x): q ≤ t for an
// insignificant one. Each mark therefore computes one verdict per distinct
// column value, cached under an epoch stamp, and an unclassified row costs
// a few slice loads instead of a Leq walk.
//
// The scan takes the space's lock once, on its first mark, to fetch the
// column table; after that it reads only immutable data. A ValidScan is not
// safe for concurrent use; each engine run owns one.
type ValidScan struct {
	s   *Space
	tab *validTable
	// rows are the rows not yet classified.
	rows []int32
	n    int
	// memo[j][i] caches the current mark's verdict on vals[j][i] as
	// epoch<<1 | verdict; an entry with an older epoch is stale. epoch
	// counts marks, and no run comes near the 2^31 that would wrap it.
	memo  [][]uint32
	epoch uint32
	// Per-mark scratch: the mark's values and kind per column, and the
	// columns a row is tested on.
	mvals  [][]vocab.TermID
	mkinds []vocab.Kind
	active []int
}

// NewValidScan returns a scan over the space's valid assignments with
// nothing classified yet.
func (s *Space) NewValidScan() *ValidScan { return &ValidScan{s: s} }

// Classified returns the number of valid assignments classified so far.
func (vs *ValidScan) Classified() int { return vs.n }

func (vs *ValidScan) init() {
	s := vs.s
	s.in.mu.Lock()
	vs.tab = s.validColumns()
	s.in.mu.Unlock()
	vs.rows = make([]int32, len(s.valid))
	for r := range vs.rows {
		vs.rows[r] = int32(r)
	}
	n := len(s.vars)
	vs.memo = make([][]uint32, n)
	for j, vals := range vs.tab.vals {
		vs.memo[j] = make([]uint32, len(vals))
	}
	vs.mvals = make([][]vocab.TermID, n)
	vs.mkinds = make([]vocab.Kind, n)
}

// Mark records that m was marked significant (sig) or insignificant and
// counts the valid assignments it newly classifies.
func (vs *ValidScan) Mark(m *Assignment, sig bool) {
	if vs.tab == nil {
		vs.init()
	}
	vs.epoch++
	if vs.prepare(m, sig) {
		vs.scanRows(sig)
	}
}

// prepare loads the mark's values per column and picks the columns a row
// is tested on. It reports false when the mark classifies no row at all:
// an insignificant mark with MORE facts, or binding a variable no column
// describes, is above no valid row.
func (vs *ValidScan) prepare(m *Assignment, sig bool) bool {
	s := vs.s
	clear(vs.mvals)
	for i, name := range m.names {
		if len(m.vals[i]) == 0 {
			continue
		}
		j := s.varIndex(name)
		if j < 0 || vs.tab.cols[j] == nil {
			if !sig {
				return false
			}
			continue
		}
		vs.mvals[j], vs.mkinds[j] = m.vals[i], m.kinds[i]
	}
	if !sig && len(m.more) > 0 {
		return false
	}
	vs.active = vs.active[:0]
	for j, col := range vs.tab.cols {
		switch {
		case col == nil:
		case sig:
			// ψ ≤ m is tested under ψ's kinds, which are the columns'.
			vs.mkinds[j] = s.vars[j].Kind
			vs.active = append(vs.active, j)
		case len(vs.mvals[j]) > 0:
			vs.active = append(vs.active, j)
		}
	}
	return true
}

// scanRows classifies the unclassified rows against the prepared mark.
func (vs *ValidScan) scanRows(sig bool) {
	rest := vs.rows[:0]
rows:
	for _, r := range vs.rows {
		for _, j := range vs.active {
			i := vs.tab.slot[j][r]
			c := vs.memo[j][i]
			if c>>1 != vs.epoch {
				c = vs.epoch << 1
				if vs.holds(j, vs.tab.vals[j][i], sig) {
					c |= 1
				}
				vs.memo[j][i] = c
			}
			if c&1 == 0 {
				rest = append(rest, r)
				continue rows
			}
		}
		vs.n++
	}
	vs.rows = rest
}

// holds is the per-value verdict: ∃q ∈ m(x_j): t ≤ q for a significant
// mark, ∀q ∈ m(x_j): q ≤ t for an insignificant one.
func (vs *ValidScan) holds(j int, t vocab.TermID, sig bool) bool {
	v, k := vs.s.v, vs.mkinds[j]
	for _, q := range vs.mvals[j] {
		if sig && v.Leq(k, t, q) {
			return true
		}
		if !sig && !v.Leq(k, q, t) {
			return false
		}
	}
	return !sig
}

// Instantiate applies the assignment to the SATISFYING meta-fact-set
// (𝜙(A_SAT)): variables expand to their value sets (cross product within a
// pattern), wildcards become the Any term, patterns containing an
// empty-valued variable are dropped (multiplicity 0), and MORE facts are
// appended. The result is the fact-set whose support the crowd is asked for.
func (s *Space) Instantiate(a *Assignment) ontology.FactSet {
	var facts []ontology.Fact
	for _, p := range s.query.Satisfying.Patterns {
		svals, ok := s.termValues(a, p.S)
		if !ok {
			continue
		}
		pvals, ok := s.termValues(a, p.P)
		if !ok {
			continue
		}
		ovals, ok := s.termValues(a, p.O)
		if !ok {
			continue
		}
		for _, sv := range svals {
			for _, pv := range pvals {
				for _, ov := range ovals {
					facts = append(facts, ontology.Fact{S: sv, P: pv, O: ov})
				}
			}
		}
	}
	facts = append(facts, a.More()...)
	return ontology.NewFactSet(facts...)
}

// termValues expands one meta-fact position; ok=false means the position's
// variable is empty and the pattern must be dropped.
func (s *Space) termValues(a *Assignment, t sparql.Term) ([]vocab.TermID, bool) {
	switch t.Kind {
	case sparql.Const:
		return []vocab.TermID{t.ID}, true
	case sparql.Wildcard:
		return []vocab.TermID{ontology.Any}, true
	case sparql.Var:
		vals := a.Values(t.Name)
		return vals, len(vals) > 0
	}
	return nil, false
}

// Successors lazily generates the immediate successors of an assignment
// within 𝒜: one-step specializations of a value, multiplicity extensions by
// a maximally-general new value derived from the valid assignments
// (Section 5's combinations), and MORE-fact extensions/specializations.
// The result is deduplicated, deterministically ordered, memoized on the
// space, and shared — callers must treat it as read-only.
func (s *Space) Successors(a *Assignment) []*Assignment {
	// Steady-state fast path: a canonical node whose successor list is
	// memoized needs only a shared read lock — concurrent drivers never
	// serialize on cache hits.
	s.in.mu.RLock()
	if m := s.in.memoAt(a.id); s.in.canonical(a) && m != nil && m.succDone {
		out := m.succs
		s.in.mu.RUnlock()
		s.in.edgeHits.Add(1)
		return out
	}
	s.in.mu.RUnlock()

	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	a = s.canonLocked(a)
	if m := s.in.memoAt(a.id); m != nil && m.succDone {
		// Lost the upgrade race to another filler: still a hit.
		s.in.edgeHits.Add(1)
		return m.succs
	}
	s.in.edgeMisses.Add(1)
	out := s.computeSuccessorsLocked(a)
	// computeSuccessorsLocked may have interned and filled other nodes,
	// moving the memo table; look the node up afresh.
	m := s.in.fill(a.id)
	m.succs, m.succDone = out, true
	return out
}

func (s *Space) computeSuccessorsLocked(a *Assignment) []*Assignment {
	var out []*Assignment
	// 1. Specialize one value one vocabulary step.
	for _, vs := range s.vars {
		vals := a.Values(vs.Name)
		for i, v := range vals {
			for _, c := range s.v.Children(vs.Kind, v) {
				nv := replaceAt(vals, i, c)
				cand := s.canonLocked(s.withVals(a, vs.Name, nv))
				if cand != a && s.inClosureLocked(cand) {
					out = append(out, cand)
				}
			}
		}
	}
	// 2. Extend a multiplicity set with a new, incomparable value.
	for _, vs := range s.vars {
		vals := a.Values(vs.Name)
		if vs.Mult.Max >= 0 && len(vals) >= vs.Mult.Max {
			continue
		}
		for _, u := range s.extensionCandidates(vs, vals) {
			nv := append(append([]vocab.TermID{}, vals...), u)
			cand := s.withVals(a, vs.Name, nv)
			if len(cand.Values(vs.Name)) != len(vals)+1 {
				continue // absorbed by canonicalization
			}
			cand = s.canonLocked(cand)
			if cand != a && s.inClosureLocked(cand) {
				out = append(out, cand)
			}
		}
	}
	// 3. MORE-fact moves.
	if len(s.morePool) > 0 {
		out = append(out, s.moreSuccessorsLocked(a)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return dedupe(out)
}

// extensionCandidates returns the maximally-general terms that can extend
// the value set: the most general terms within the variable's cap region
// that are incomparable to every current value. It walks top-down from the
// region's minimal elements, emitting the incomparable frontier — nodes
// below an emitted candidate are never maximal, and nodes below a current
// value are reached by specialization moves instead.
func (s *Space) extensionCandidates(vs VarSpec, cur []vocab.TermID) []vocab.TermID {
	comparable := func(t vocab.TermID) (below, above bool) {
		for _, w := range cur {
			if s.v.Leq(vs.Kind, t, w) {
				below = true // t is an ancestor of a current value
			}
			if s.v.Leq(vs.Kind, w, t) {
				above = true // t specializes a current value
			}
		}
		return
	}
	seen := map[vocab.TermID]bool{}
	var out []vocab.TermID
	queue := append([]vocab.TermID{}, s.ubMinimal(vs.Name)...)
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		if seen[t] {
			continue
		}
		seen[t] = true
		below, above := comparable(t)
		switch {
		case above:
			// t (and all its descendants) specialize a current
			// value: covered by specialization moves.
		case below:
			// t generalizes a current value: descend — a child may
			// leave the comparable cone.
			queue = append(queue, s.v.Children(vs.Kind, t)...)
		default:
			// Incomparable and as general as possible on this path.
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// moreSuccessorsLocked extends the assignment with a pool fact or
// specializes an existing MORE fact one step (staying below some pool fact).
func (s *Space) moreSuccessorsLocked(a *Assignment) []*Assignment {
	var out []*Assignment
	cur := a.More()
	// Add a pool fact incomparable to the current MORE facts.
	for _, g := range s.morePool {
		comparable := false
		for _, f := range cur {
			if ontology.LeqFact(s.v, f, g) || ontology.LeqFact(s.v, g, f) {
				comparable = true
				break
			}
		}
		if comparable {
			continue
		}
		nm := append(append(ontology.FactSet{}, cur...), g)
		cand := s.canonLocked(s.withMore(a, nm))
		if cand != a && s.inClosureLocked(cand) {
			out = append(out, cand)
		}
	}
	// Specialize one component of one MORE fact.
	for i, f := range cur {
		for _, fc := range s.factSpecializations(f) {
			nm := append(ontology.FactSet{}, cur...)
			nm[i] = fc
			cand := s.canonLocked(s.withMore(a, nm))
			if cand != a && s.inClosureLocked(cand) {
				out = append(out, cand)
			}
		}
	}
	return out
}

// factSpecializations returns the facts obtained by specializing one
// component of f one vocabulary step.
func (s *Space) factSpecializations(f ontology.Fact) []ontology.Fact {
	var out []ontology.Fact
	if f.S != ontology.Any {
		for _, c := range s.v.ElementChildren(f.S) {
			out = append(out, ontology.Fact{S: c, P: f.P, O: f.O})
		}
	}
	if f.P != ontology.Any {
		for _, c := range s.v.RelationChildren(f.P) {
			out = append(out, ontology.Fact{S: f.S, P: c, O: f.O})
		}
	}
	if f.O != ontology.Any {
		for _, c := range s.v.ElementChildren(f.O) {
			out = append(out, ontology.Fact{S: f.S, P: f.P, O: c})
		}
	}
	return out
}

// Predecessors generates the immediate generalizations of an assignment:
// one-step generalization of a value (within the cap region), removal of a
// value from a multiplicity set, and generalization/removal of MORE facts.
// Like Successors, the result is memoized and shared — read-only.
func (s *Space) Predecessors(a *Assignment) []*Assignment {
	s.in.mu.RLock()
	if m := s.in.memoAt(a.id); s.in.canonical(a) && m != nil && m.predDone {
		out := m.preds
		s.in.mu.RUnlock()
		s.in.edgeHits.Add(1)
		return out
	}
	s.in.mu.RUnlock()

	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	a = s.canonLocked(a)
	if m := s.in.memoAt(a.id); m != nil && m.predDone {
		s.in.edgeHits.Add(1)
		return m.preds
	}
	s.in.edgeMisses.Add(1)
	out := s.computePredecessorsLocked(a)
	m := s.in.fill(a.id)
	m.preds, m.predDone = out, true
	return out
}

func (s *Space) computePredecessorsLocked(a *Assignment) []*Assignment {
	var out []*Assignment
	for _, vs := range s.vars {
		vals := a.Values(vs.Name)
		for i, v := range vals {
			for _, p := range s.v.Parents(vs.Kind, v) {
				if !s.withinUB(vs.Name, p) {
					continue
				}
				cand := s.canonLocked(s.withVals(a, vs.Name, replaceAt(vals, i, p)))
				if cand != a {
					out = append(out, cand)
				}
			}
			if len(vals)-1 >= vs.Mult.Min && len(vals) > 1 {
				cand := s.canonLocked(s.withVals(a, vs.Name, removeAt(vals, i)))
				if cand != a {
					out = append(out, cand)
				}
			}
		}
	}
	cur := a.More()
	for i, f := range cur {
		nm := append(ontology.FactSet{}, cur...)
		nm = append(nm[:i], nm[i+1:]...)
		cand := s.canonLocked(s.withMore(a, nm))
		if cand != a {
			out = append(out, cand)
		}
		for _, fg := range s.factGeneralizations(f) {
			nm2 := append(ontology.FactSet{}, cur...)
			nm2[i] = fg
			cand := s.canonLocked(s.withMore(a, nm2))
			if cand != a {
				out = append(out, cand)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return dedupe(out)
}

func (s *Space) factGeneralizations(f ontology.Fact) []ontology.Fact {
	var out []ontology.Fact
	if f.S != ontology.Any {
		for _, p := range s.v.ElementParents(f.S) {
			out = append(out, ontology.Fact{S: p, P: f.P, O: f.O})
		}
	}
	if f.P != ontology.Any {
		for _, p := range s.v.RelationParents(f.P) {
			out = append(out, ontology.Fact{S: f.S, P: p, O: f.O})
		}
	}
	if f.O != ontology.Any {
		for _, p := range s.v.ElementParents(f.O) {
			out = append(out, ontology.Fact{S: f.S, P: f.P, O: p})
		}
	}
	return out
}

// withVals derives a new assignment replacing one variable's value set.
func (s *Space) withVals(a *Assignment, name string, vals []vocab.TermID) *Assignment {
	nv := make(map[string][]vocab.TermID, len(a.names)+1)
	for i, n := range a.names {
		if n != name {
			nv[n] = a.vals[i]
		}
	}
	nv[name] = vals
	return New(s.v, s.kinds, nv, a.more)
}

// withMore derives a new assignment replacing the MORE fact-set.
func (s *Space) withMore(a *Assignment, more ontology.FactSet) *Assignment {
	nv := make(map[string][]vocab.TermID, len(a.names))
	for i, n := range a.names {
		nv[n] = a.vals[i]
	}
	return New(s.v, s.kinds, nv, more)
}

func replaceAt(vals []vocab.TermID, i int, v vocab.TermID) []vocab.TermID {
	out := make([]vocab.TermID, len(vals))
	copy(out, vals)
	out[i] = v
	return out
}

func removeAt(vals []vocab.TermID, i int) []vocab.TermID {
	out := make([]vocab.TermID, 0, len(vals)-1)
	out = append(out, vals[:i]...)
	out = append(out, vals[i+1:]...)
	return out
}

// dedupe removes adjacent duplicates from a sorted slice of interned
// assignments. Interning makes equality pointer equality.
func dedupe(as []*Assignment) []*Assignment {
	out := as[:0]
	var prev *Assignment
	for _, a := range as {
		if a != prev {
			out = append(out, a)
		}
		prev = a
	}
	return out
}

// DescribeVar formats a variable spec for diagnostics.
func (vs VarSpec) String() string {
	b := "unbound"
	if vs.Bound {
		b = "bound"
	}
	return fmt.Sprintf("$%s(%s%s, %s)", vs.Name, vs.Kind, vs.Mult, b)
}
