// Package vocab implements the vocabulary of Definition 2.1 in the OASSIS
// paper: two interned namespaces (element names and relation names), each
// carrying a partial order.
//
// The order convention follows the paper: a ≤ b means a is MORE GENERAL than
// b ("semantically reversed subsumption"), e.g. Sport ≤ Biking because biking
// is a sport. Orders are declared through immediate specialization edges
// (parent = more general, child = more specific) and queried after Freeze,
// which precomputes ancestor sets so that Leq runs in O(1) amortized.
package vocab

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// TermID identifies an interned element or relation name. Element IDs and
// relation IDs live in separate namespaces; a TermID is only meaningful
// together with the Kind of the variable or position it appears in.
type TermID int32

// NoTerm is returned by lookups that fail.
const NoTerm TermID = -1

// Kind distinguishes the two vocabulary namespaces.
type Kind uint8

const (
	// Element is the namespace of nouns and actions (ℰ).
	Element Kind = iota
	// Relation is the namespace of relation names (ℛ).
	Relation
)

func (k Kind) String() string {
	if k == Element {
		return "element"
	}
	return "relation"
}

// Vocabulary is the tuple (ℰ, ≤ℰ, ℛ, ≤ℛ) of Definition 2.1. A Vocabulary is
// built incrementally (AddElement, AddRelation, order edges) and must be
// frozen with Freeze before order queries; mutation after Freeze panics.
type Vocabulary struct {
	elems *namespace
	rels  *namespace
}

// New returns an empty vocabulary.
func New() *Vocabulary {
	return &Vocabulary{elems: newNamespace(), rels: newNamespace()}
}

// namespace is one interned name set with its partial order.
type namespace struct {
	names  []string
	byName map[string]TermID

	// parents[id] lists the immediate generalizations of id (p ≤ id, one
	// step). children is the reverse.
	parents  [][]TermID
	children [][]TermID

	frozen bool
	// ancestors[id] is the set of all strict generalizations of id,
	// computed at Freeze.
	ancestors []bitset
	// topo holds ids in topological order, most general first.
	topo []TermID
	// depth[id] is the length of the longest chain from a root to id.
	depth []int
	// up.of(id) lists id's strict generalizations in topological
	// (general-first) order followed by id itself; down.of(id) lists id
	// followed by its strict specializations in topological order. Both are
	// built for every term in one pass (buildLists) on the first list
	// request after Freeze — read them through upOf and downOf — so a
	// vocabulary that only answers Leq never pays for them.
	listsOnce sync.Once
	up        termLists
	down      termLists
}

func newNamespace() *namespace {
	return &namespace{byName: make(map[string]TermID)}
}

func (n *namespace) add(name string) (TermID, error) {
	if name == "" {
		return NoTerm, fmt.Errorf("vocab: empty term name")
	}
	if id, ok := n.byName[name]; ok {
		return id, nil
	}
	if n.frozen {
		return NoTerm, fmt.Errorf("vocab: cannot add %q to a frozen vocabulary", name)
	}
	id := TermID(len(n.names))
	n.names = append(n.names, name)
	n.byName[name] = id
	n.parents = append(n.parents, nil)
	n.children = append(n.children, nil)
	return id, nil
}

func (n *namespace) addEdge(parent, child TermID) error {
	if n.frozen {
		return fmt.Errorf("vocab: cannot add order edge to a frozen vocabulary")
	}
	if !n.valid(parent) || !n.valid(child) {
		return fmt.Errorf("vocab: order edge with unknown term (%d, %d)", parent, child)
	}
	if parent == child {
		return fmt.Errorf("vocab: self-loop on %q", n.names[parent])
	}
	for _, p := range n.parents[child] {
		if p == parent {
			return nil // already present
		}
	}
	n.parents[child] = append(n.parents[child], parent)
	n.children[parent] = append(n.children[parent], child)
	return nil
}

func (n *namespace) valid(id TermID) bool {
	return id >= 0 && int(id) < len(n.names)
}

// freeze computes the topological order and ancestor closures. It reports an
// error if the declared edges contain a cycle.
func (n *namespace) freeze() error {
	if n.frozen {
		return nil
	}
	size := len(n.names)
	indeg := make([]int, size)
	for child := range n.parents {
		indeg[child] = len(n.parents[child])
	}
	queue := make([]TermID, 0, size)
	for id := 0; id < size; id++ {
		if indeg[id] == 0 {
			queue = append(queue, TermID(id))
		}
	}
	n.topo = make([]TermID, 0, size)
	n.depth = make([]int, size)
	n.ancestors = make([]bitset, size)
	for i := range n.ancestors {
		n.ancestors[i] = newBitset(size)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		n.topo = append(n.topo, id)
		for _, c := range n.children[id] {
			n.ancestors[c].or(n.ancestors[id])
			n.ancestors[c].set(int(id))
			if d := n.depth[id] + 1; d > n.depth[c] {
				n.depth[c] = d
			}
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(n.topo) != size {
		return fmt.Errorf("vocab: order contains a cycle")
	}
	// Deterministic neighbour order for deterministic traversal.
	for id := range n.parents {
		sortIDs(n.parents[id])
		sortIDs(n.children[id])
	}
	n.frozen = true
	return nil
}

// termLists packs one list per term into a single array: term id's list is
// ids[off[id]:off[id+1]].
type termLists struct {
	ids []TermID
	off []int
}

// of returns id's list, capacity-capped so that a caller appending to it
// reallocates instead of clobbering the next term's list.
func (l termLists) of(id TermID) []TermID {
	lo, hi := l.off[id], l.off[id+1]
	return l.ids[lo:hi:hi]
}

// upOf returns id's up list, building every term's lists on first use.
func (n *namespace) upOf(id TermID) []TermID {
	n.listsOnce.Do(n.buildLists)
	return n.up.of(id)
}

// downOf returns id's down list, building every term's lists on first use.
func (n *namespace) downOf(id TermID) []TermID {
	n.listsOnce.Do(n.buildLists)
	return n.down.of(id)
}

// buildLists fills up and down. It first builds every up list in
// topological order, each from its parents' lists — a copy for a single
// parent, a stamped union sorted by topological position for several —
// followed by the term itself, then packs them by ID. down is the
// transpose, filled by walking terms in topological order so each list
// comes out general-first with its term in front.
func (n *namespace) buildLists() {
	size := len(n.names)
	pos := make([]int32, size)
	// A term's up list has at least depth+1 entries, exactly that many in
	// a forest, so buf only grows for multi-parent terms.
	estimate := 0
	for i, id := range n.topo {
		pos[id] = int32(i)
		estimate += n.depth[id] + 1
	}
	byPos := func(a, b TermID) int { return int(pos[a] - pos[b]) }
	buf := make([]TermID, 0, estimate)
	start, end := make([]int, size), make([]int, size)
	stamp := make([]int32, size)
	for i, id := range n.topo {
		start[id] = len(buf)
		switch ps := n.parents[id]; len(ps) {
		case 0:
		case 1:
			buf = append(buf, buf[start[ps[0]]:end[ps[0]]]...)
		default:
			for _, p := range ps {
				for _, a := range buf[start[p]:end[p]] {
					if stamp[a] != int32(i+1) {
						stamp[a] = int32(i + 1)
						buf = append(buf, a)
					}
				}
			}
			slices.SortFunc(buf[start[id]:], byPos)
		}
		buf = append(buf, id)
		end[id] = len(buf)
	}
	n.up = termLists{ids: make([]TermID, 0, len(buf)), off: make([]int, size+1)}
	downOff := make([]int, size+1)
	for id := 0; id < size; id++ {
		l := buf[start[id]:end[id]]
		n.up.ids = append(n.up.ids, l...)
		n.up.off[id+1] = len(n.up.ids)
		for _, a := range l {
			downOff[a+1]++
		}
	}
	for id := 0; id < size; id++ {
		downOff[id+1] += downOff[id]
	}
	n.down = termLists{ids: make([]TermID, len(buf)), off: downOff}
	next := start // no longer needed: reuse it as each down list's fill cursor
	copy(next, downOff)
	for _, t := range n.topo {
		for _, a := range n.up.of(t) {
			n.down.ids[next[a]] = t
			next[a]++
		}
	}
}

func sortIDs(ids []TermID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// leq reports whether a ≤ b, i.e. a is b itself or a generalization of b.
func (n *namespace) leq(a, b TermID) bool {
	if a == b {
		return n.valid(a)
	}
	if !n.valid(a) || !n.valid(b) {
		return false
	}
	if !n.frozen {
		panic("vocab: Leq before Freeze")
	}
	return n.ancestors[b].has(int(a))
}

// AddElement interns an element name, returning its ID. Adding an existing
// name returns the existing ID.
func (v *Vocabulary) AddElement(name string) (TermID, error) { return v.elems.add(name) }

// AddRelation interns a relation name.
func (v *Vocabulary) AddRelation(name string) (TermID, error) { return v.rels.add(name) }

// MustElement is AddElement for construction code where errors are
// programming bugs.
func (v *Vocabulary) MustElement(name string) TermID {
	id, err := v.AddElement(name)
	if err != nil {
		panic(err)
	}
	return id
}

// MustRelation is AddRelation panicking on error.
func (v *Vocabulary) MustRelation(name string) TermID {
	id, err := v.AddRelation(name)
	if err != nil {
		panic(err)
	}
	return id
}

// OrderElements declares general ≤ℰ specific (one immediate step).
func (v *Vocabulary) OrderElements(general, specific TermID) error {
	return v.elems.addEdge(general, specific)
}

// OrderRelations declares general ≤ℛ specific (one immediate step).
func (v *Vocabulary) OrderRelations(general, specific TermID) error {
	return v.rels.addEdge(general, specific)
}

// Freeze finalizes the vocabulary: it validates acyclicity and precomputes
// the closures needed by Leq and by generalization/specialization traversal.
func (v *Vocabulary) Freeze() error {
	if err := v.elems.freeze(); err != nil {
		return fmt.Errorf("elements: %w", err)
	}
	if err := v.rels.freeze(); err != nil {
		return fmt.Errorf("relations: %w", err)
	}
	return nil
}

// Element returns the ID of an element name, or NoTerm.
func (v *Vocabulary) Element(name string) TermID {
	if id, ok := v.elems.byName[name]; ok {
		return id
	}
	return NoTerm
}

// Relation returns the ID of a relation name, or NoTerm.
func (v *Vocabulary) Relation(name string) TermID {
	if id, ok := v.rels.byName[name]; ok {
		return id
	}
	return NoTerm
}

// ElementName returns the name for an element ID ("" if invalid).
func (v *Vocabulary) ElementName(id TermID) string { return v.name(v.elems, id) }

// RelationName returns the name for a relation ID ("" if invalid).
func (v *Vocabulary) RelationName(id TermID) string { return v.name(v.rels, id) }

func (v *Vocabulary) name(n *namespace, id TermID) string {
	if !n.valid(id) {
		return ""
	}
	return n.names[id]
}

// NumElements returns |ℰ|.
func (v *Vocabulary) NumElements() int { return len(v.elems.names) }

// NumRelations returns |ℛ|.
func (v *Vocabulary) NumRelations() int { return len(v.rels.names) }

// LeqE reports a ≤ℰ b (a more general than, or equal to, b).
func (v *Vocabulary) LeqE(a, b TermID) bool { return v.elems.leq(a, b) }

// LeqR reports a ≤ℛ b.
func (v *Vocabulary) LeqR(a, b TermID) bool { return v.rels.leq(a, b) }

// Leq dispatches on kind.
func (v *Vocabulary) Leq(k Kind, a, b TermID) bool {
	if k == Element {
		return v.LeqE(a, b)
	}
	return v.LeqR(a, b)
}

// ElementParents returns the immediate generalizations of an element.
// The returned slice is shared; callers must not modify it.
func (v *Vocabulary) ElementParents(id TermID) []TermID { return v.elems.parents[id] }

// ElementChildren returns the immediate specializations of an element.
func (v *Vocabulary) ElementChildren(id TermID) []TermID { return v.elems.children[id] }

// RelationParents returns the immediate generalizations of a relation.
func (v *Vocabulary) RelationParents(id TermID) []TermID { return v.rels.parents[id] }

// RelationChildren returns the immediate specializations of a relation.
func (v *Vocabulary) RelationChildren(id TermID) []TermID { return v.rels.children[id] }

// Parents dispatches on kind.
func (v *Vocabulary) Parents(k Kind, id TermID) []TermID {
	if k == Element {
		return v.ElementParents(id)
	}
	return v.RelationParents(id)
}

// Children dispatches on kind.
func (v *Vocabulary) Children(k Kind, id TermID) []TermID {
	if k == Element {
		return v.ElementChildren(id)
	}
	return v.RelationChildren(id)
}

// ElementDepth returns the longest-chain depth of an element (roots are 0).
func (v *Vocabulary) ElementDepth(id TermID) int { return v.elems.depth[id] }

// RelationDepth returns the longest-chain depth of a relation (roots are 0).
func (v *Vocabulary) RelationDepth(id TermID) int { return v.rels.depth[id] }

// ElementsTopo returns all element IDs most-general-first. The slice is
// shared; callers must not modify it.
func (v *Vocabulary) ElementsTopo() []TermID { return v.elems.topo }

// RelationsTopo returns all relation IDs most-general-first.
func (v *Vocabulary) RelationsTopo() []TermID { return v.rels.topo }

// ElementDescendants returns id and every element e with id ≤ℰ e, in
// topological (general-first) order, id first. The list is built once, with
// every other term's, on the first list request after Freeze, and shared:
// callers may read it or append to it (it is capacity-capped, so append
// reallocates) but must not write its elements in place.
func (v *Vocabulary) ElementDescendants(id TermID) []TermID {
	n := v.elems
	if !n.valid(id) {
		return nil
	}
	if !n.frozen {
		panic("vocab: Descendants before Freeze")
	}
	return n.downOf(id)
}

// ElementAncestors returns every strict generalization of id in topological
// general-first order. The list is built and shared as ElementDescendants'
// is: callers may read it or append to it (it is capacity-capped, so append
// reallocates) but must not write its elements in place.
func (v *Vocabulary) ElementAncestors(id TermID) []TermID {
	up := v.ElementAncestorsAndSelf(id)
	if len(up) == 0 {
		return nil
	}
	return up[: len(up)-1 : len(up)-1]
}

// ElementAncestorsAndSelf returns ElementAncestors(id) followed by id itself:
// every e with e ≤ℰ id, general-first, id last. It is the shared list itself,
// handed out without copying; the sharing rules of ElementAncestors apply.
func (v *Vocabulary) ElementAncestorsAndSelf(id TermID) []TermID {
	n := v.elems
	if !n.valid(id) {
		return nil
	}
	if !n.frozen {
		panic("vocab: Ancestors before Freeze")
	}
	return n.upOf(id)
}

// ElementRoots returns the most general elements (those with no parents).
func (v *Vocabulary) ElementRoots() []TermID { return roots(v.elems) }

// RelationRoots returns the most general relations.
func (v *Vocabulary) RelationRoots() []TermID { return roots(v.rels) }

func roots(n *namespace) []TermID {
	var out []TermID
	for id := range n.names {
		if len(n.parents[id]) == 0 {
			out = append(out, TermID(id))
		}
	}
	return out
}
