package assign

import (
	"sync"
	"sync/atomic"
)

// NodeID is the dense integer identity of a canonical assignment within one
// Space. The interner assigns IDs in materialization order starting at 0, so
// every per-space structure (classifier verdicts, edge caches, kernel state)
// can be keyed by a machine word — or indexed into a slice — instead of
// hashing the canonical key string on every hot-path lookup.
type NodeID uint32

// noID marks an assignment that has not been interned into any space.
const noID = ^NodeID(0)

// ID returns the assignment's dense identity within the space that interned
// it, or NoID for an assignment built outside a space (use Space.Canon to
// obtain the interned twin).
func (a *Assignment) ID() NodeID { return a.id }

// NoID is the ID of an assignment no space has interned.
const NoID = noID

// interner deduplicates assignments structurally and assigns dense NodeIDs.
// It doubles as the shared edge cache: successor and predecessor lists are
// computed once per node and shared by every driver, user and re-run over
// the space. All fields are guarded by mu (held by the Space's public
// methods); nodes are immutable once published. mu is a RWMutex so the
// steady-state hit path — an already-interned node whose edge lists are
// memoized — runs under a shared read lock; only cache fills take the
// write lock. The stats counters are atomics updated outside any lock.
type interner struct {
	mu sync.RWMutex

	// Hit/miss accounting, readable without the lock via Space.Stats().
	internHits   atomic.Int64 // intern() found an existing node
	internMisses atomic.Int64 // intern() registered a new node
	edgeHits     atomic.Int64 // Successors/Predecessors served memoized
	edgeMisses   atomic.Int64 // Successors/Predecessors had to compute

	// nodes[id] is the canonical assignment with that ID.
	nodes []*Assignment
	// buckets maps a structural hash to the IDs that share it. It is
	// built on the first intern call (see index), so a space whose nodes
	// were all registered in bulk and that is never explored never
	// hashes them.
	buckets map[uint64][]NodeID

	// memo[id] is node id's edge and closure memo. It is grown (under the
	// write lock) on the first fill, not when nodes are interned, so a
	// space that is never explored has none; an ID at or past its end is
	// simply not memoized yet.
	memo []nodeMemo

	// roots memoizes the space's minimal assignments.
	roots     []*Assignment
	rootsDone bool
}

// nodeMemo is one node's memoized edge lists and closure verdict. The Done
// flags distinguish "not computed" from "computed empty".
type nodeMemo struct {
	succs, preds       []*Assignment
	succDone, predDone bool
	closure            uint8 // inClosureLocked: 0 unknown, 1 in, 2 out
}

func newInterner() *interner { return &interner{} }

// registerFresh registers pairwise distinct assignments on an interner that
// holds no node yet, assigning NodeIDs in slice order. It counts one miss
// per node, as interning them one by one would, but builds no hash index.
// The interner adopts as with its capacity clipped to its length, so a
// later intern appends into a new array instead of writing past the
// caller's slice. The caller must hold mu.
func (in *interner) registerFresh(as []*Assignment) {
	if len(in.nodes) != 0 {
		panic("assign: registerFresh on a non-empty interner")
	}
	for i, a := range as {
		a.id = NodeID(i)
	}
	in.nodes = as[:len(as):len(as)]
	in.internMisses.Add(int64(len(as)))
}

// index builds the hash index over every node registered so far. The
// caller must hold mu.
func (in *interner) index() {
	in.buckets = make(map[uint64][]NodeID, len(in.nodes))
	for id, a := range in.nodes {
		h := a.hash()
		in.buckets[h] = append(in.buckets[h], NodeID(id))
	}
}

// intern returns the canonical node equal to a, registering a (and assigning
// it the next dense ID) when no equal node exists. The caller must hold mu.
// The second result reports whether a new node was registered.
func (in *interner) intern(a *Assignment) (*Assignment, bool) {
	if in.buckets == nil {
		in.index()
	}
	h := a.hash()
	for _, id := range in.buckets[h] {
		if in.nodes[id].equal(a) {
			in.internHits.Add(1)
			return in.nodes[id], false
		}
	}
	id := NodeID(len(in.nodes))
	a.id = id
	in.nodes = append(in.nodes, a)
	in.buckets[h] = append(in.buckets[h], id)
	in.internMisses.Add(1)
	return a, true
}

// canonical reports whether a is this interner's published node for its ID.
// Safe under either lock mode: nodes are append-only and immutable.
func (in *interner) canonical(a *Assignment) bool {
	id := a.id
	return id != noID && int(id) < len(in.nodes) && in.nodes[id] == a
}

// memoAt returns node id's memo, or nil when the table does not reach id
// yet. Safe under either lock mode.
func (in *interner) memoAt(id NodeID) *nodeMemo {
	if int(id) < len(in.memo) {
		return &in.memo[id]
	}
	return nil
}

// fill returns node id's memo for writing, first growing the table to cover
// every interned node. The caller must hold the write lock, and must not
// keep the pointer across a call that may fill another node.
func (in *interner) fill(id NodeID) *nodeMemo {
	if d := len(in.nodes) - len(in.memo); d > 0 {
		in.memo = append(in.memo, make([]nodeMemo, d)...)
	}
	return &in.memo[id]
}

// hash is a structural FNV-1a over the canonical content: variable names,
// kinds, value sets and MORE facts. Equal assignments hash equally; the
// interner resolves collisions with equal.
func (a *Assignment) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	step := func(x uint64) {
		h ^= x
		h *= prime64
	}
	for i, n := range a.names {
		for j := 0; j < len(n); j++ {
			step(uint64(n[j]))
		}
		step(0xFF)
		step(uint64(a.kinds[i]))
		for _, id := range a.vals[i] {
			step(uint64(uint32(id)))
		}
		step(0xFE)
	}
	for _, f := range a.more {
		step(uint64(uint32(f.S)))
		step(uint64(uint32(f.P)))
		step(uint64(uint32(f.O)))
	}
	return h
}

// equal reports structural equality of two canonical assignments.
func (a *Assignment) equal(b *Assignment) bool {
	if a == b {
		return true
	}
	if len(a.names) != len(b.names) || len(a.more) != len(b.more) {
		return false
	}
	for i, n := range a.names {
		if n != b.names[i] || a.kinds[i] != b.kinds[i] {
			return false
		}
		av, bv := a.vals[i], b.vals[i]
		if len(av) != len(bv) {
			return false
		}
		for j, x := range av {
			if x != bv[j] {
				return false
			}
		}
	}
	for i, f := range a.more {
		if f != b.more[i] {
			return false
		}
	}
	return true
}
