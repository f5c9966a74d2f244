package vocab

import (
	"sync"
)

// ShardedInterner is the first phase of the N-Triples loader's two-phase term
// interning. Many parse workers intern names concurrently and receive
// *provisional* IDs; a later serial merge walks the parsed triples in input
// order and maps each provisional ID to its final TermID at first occurrence,
// so the final vocabulary is byte-identical to one built by a serial pass
// (see ontology.LoadNTriples and DESIGN.md §12).
//
// The interner is sharded by name hash: a worker read-locks exactly one
// shard per lookup, and because unique names are few relative to total
// occurrences the read path dominates after warm-up (read-mostly). A
// provisional ID packs the shard index into its low bits, so resolving an ID
// back to its name or to a remap slot is array arithmetic, not hashing.
type ShardedInterner struct {
	shards [internShards]internShard
}

// internShards is the shard count; 64 spreads write contention well past the
// core counts the loader fans out to while keeping the provisional ID space
// dense (6 bits of shard).
const internShards = 64

const internShardBits = 6

type internShard struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // name -> packed provisional ID
	names []string
}

// NewShardedInterner returns an empty interner.
func NewShardedInterner() *ShardedInterner {
	si := &ShardedInterner{}
	for i := range si.shards {
		si.shards[i].ids = make(map[string]uint32)
	}
	return si
}

// internHash is FNV-1a over the name, folded to a shard index.
func internHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & (internShards - 1)
}

// Intern returns the provisional ID for name, assigning one on first sight.
// Safe for concurrent use. Provisional IDs are arbitrary (they depend on
// worker scheduling); only the name they resolve to is meaningful.
func (si *ShardedInterner) Intern(name string) uint32 {
	shardIdx := internHash(name)
	sh := &si.shards[shardIdx]
	sh.mu.RLock()
	id, ok := sh.ids[name]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok := sh.ids[name]; ok {
		return id
	}
	id = uint32(len(sh.names))<<internShardBits | shardIdx
	sh.names = append(sh.names, name)
	sh.ids[name] = id
	return id
}

// Name resolves a provisional ID back to its interned name.
func (si *ShardedInterner) Name(prov uint32) string {
	return si.shards[prov&(internShards-1)].names[prov>>internShardBits]
}

// Len returns the number of distinct names interned so far. Callers must
// ensure no concurrent Intern calls are in flight.
func (si *ShardedInterner) Len() int {
	n := 0
	for i := range si.shards {
		n += len(si.shards[i].names)
	}
	return n
}

// ProvBound returns an exclusive upper bound on every provisional ID issued
// so far, for sizing remap arrays. Callers must ensure no concurrent Intern
// calls are in flight.
func (si *ShardedInterner) ProvBound() uint32 {
	maxLocal := 0
	for i := range si.shards {
		if len(si.shards[i].names) > maxLocal {
			maxLocal = len(si.shards[i].names)
		}
	}
	if maxLocal == 0 {
		return 0
	}
	return (uint32(maxLocal)-1)<<internShardBits | (internShards - 1) + 1
}
