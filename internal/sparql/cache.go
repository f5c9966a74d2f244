package sparql

import (
	"strconv"
	"sync"
	"sync/atomic"

	"oassis/internal/ontology"
)

// This file implements the compiled-plan cache. Compiling a WHERE clause is
// cheap (~µs) but not free: validation, variable-slot assignment, selectivity
// estimation against the store indexes and operator lowering all re-run per
// query, and the multi-run server plus synthetic fleets compile the same
// handful of query shapes over and over. The cache keys plans by a
// *normalized query shape* — the BGP with variables α-renamed to their slot
// numbers plus the evaluation mode — so any two queries that are guaranteed
// to compile to the same operator pipeline share one compilation.
//
// Soundness: two BGPs get equal keys only when they are identical up to an
// order-preserving renaming of variables (slot numbers come from sorted
// variable names, so only renamings that keep the sorted order map to the
// same slots). Such queries produce identical result-row tuples over the
// same frozen store and mode; only the column *names* differ, which a cache
// hit restores by rebinding the caller's names onto the shared operator
// pipeline (see Plan.rebind). Queries whose variables sort differently hash
// to different keys and never share an entry — conservative, but provably
// safe.
//
// The cache lives per frozen store (ontology.Store.PlanMemo), so plans never
// outlive the indexes they were estimated against and independent stores
// never cross-contaminate.

// PlanCache memoizes compiled plans by normalized query shape. Safe for
// concurrent use. Obtain a per-store shared instance with SharedPlanCache or
// wire one into an Evaluator with UseSharedCache.
type PlanCache struct {
	mu      sync.RWMutex
	entries map[string]*Plan // shape key -> plan (shape-canonical names)
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache { return &PlanCache{entries: make(map[string]*Plan)} }

// Stats reports cache traffic: hits, misses, and resident entries.
func (c *PlanCache) Stats() (hits, misses, entries int64) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.hits.Load(), c.misses.Load(), int64(len(c.entries))
}

// sharedCacheKey is the PlanMemo key under which a store's PlanCache lives.
type sharedCacheKey struct{}

// SharedPlanCache returns the plan cache shared by every evaluator over the
// given store, creating it on first use. The store should be frozen: plans
// snapshot its indexes and statistics at compile time.
func SharedPlanCache(s *ontology.Store) *PlanCache {
	memo := s.PlanMemo()
	if v, ok := memo.Load(sharedCacheKey{}); ok {
		return v.(*PlanCache)
	}
	v, _ := memo.LoadOrStore(sharedCacheKey{}, NewPlanCache())
	return v.(*PlanCache)
}

// UseSharedCache wires the store's shared plan cache into the evaluator and
// returns the evaluator for chaining. Subsequent Compile calls consult the
// cache first; a hit skips compilation entirely (the Compiles counter does
// not move) and counts on the CacheHits metric instead.
func (e *Evaluator) UseSharedCache() *Evaluator {
	e.Cache = SharedPlanCache(e.store)
	return e
}

// appendShapeKey appends the BGP's normalized shape to dst: the evaluation
// mode, then each pattern in BGP order with constants as C<id>, variables
// as V<slot> (slots from vars, exactly as compile assigns them), wildcards
// as W, and literals length-prefixed so no literal byte sequence can
// collide with the key's own separators.
func appendShapeKey(dst []byte, bgp BGP, semantic bool, vars []PlanVar) []byte {
	if semantic {
		dst = append(dst, 'S')
	} else {
		dst = append(dst, 'E')
	}
	for _, p := range bgp {
		dst = append(dst, '|')
		if p.Star {
			dst = append(dst, '*')
		}
		for _, t := range [3]Term{p.S, p.P, p.O} {
			switch t.Kind {
			case Const:
				dst = append(dst, 'C')
				dst = strconv.AppendInt(dst, int64(t.ID), 10)
			case Var:
				dst = append(dst, 'V')
				dst = strconv.AppendInt(dst, int64(varSlot(vars, t.Name)), 10)
			case Literal:
				dst = append(dst, 'L')
				dst = strconv.AppendInt(dst, int64(len(t.Lit)), 10)
				dst = append(dst, ':')
				dst = append(dst, t.Lit...)
			default:
				dst = append(dst, 'W')
			}
			dst = append(dst, ',')
		}
	}
	return dst
}

// rebind clones the plan for a query that shares its shape but may name its
// variables differently: the immutable operator pipeline, store and mode are
// shared, and vars, the caller's slots in slot order, replace the variable
// table (equal shapes give each slot the same kind). The clone starts
// unobserved (fresh per-operator actuals); Explain on a rebound plan renders
// patterns with the shape-defining names the entry was first compiled under.
func (pl *Plan) rebind(vars []PlanVar) *Plan {
	return &Plan{store: pl.store, v: pl.v, semantic: pl.semantic, ops: pl.ops, vars: vars}
}

// lookup serves one Compile through the cache: a hit rebinds the cached
// pipeline to the query's names without compiling; a miss compiles, caches
// the plan under its shape, and reports compile time as usual. Compile
// errors are returned without caching (the next lookup re-compiles).
func (c *PlanCache) lookup(e *Evaluator, bgp BGP) (*Plan, error) {
	vars := bgpVars(bgp)
	// The key is built on the stack and the map is indexed with
	// string(key), which the compiler does without allocating, so a hit
	// allocates only vars and the rebound plan.
	var buf [256]byte
	key := appendShapeKey(buf[:0], bgp, e.Semantic, vars)
	c.mu.RLock()
	cached := c.entries[string(key)]
	c.mu.RUnlock()
	if cached != nil {
		c.hits.Add(1)
		e.Metrics.CacheHit()
		pl := cached.rebind(vars)
		if e.Metrics != nil {
			pl.Observe(e.Metrics)
		}
		return pl, nil
	}
	c.misses.Add(1)
	e.Metrics.CacheMiss()
	pl, err := e.compileTimed(bgp)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.entries[string(key)] == nil {
		c.entries[string(key)] = pl.rebind(pl.vars)
	}
	c.mu.Unlock()
	return pl, nil
}
