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
	entries sync.Map // shape key (string) -> *Plan (shape-canonical names)
	hits    atomic.Int64
	misses  atomic.Int64
	size    atomic.Int64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache { return &PlanCache{} }

// Stats reports cache traffic: hits, misses, and resident entries.
func (c *PlanCache) Stats() (hits, misses, entries int64) {
	return c.hits.Load(), c.misses.Load(), c.size.Load()
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

// shapeKey renders the BGP's normalized shape: the evaluation mode, then
// each pattern in BGP order with constants as C<id>, variables as V<slot>
// (slots from bgpVars, exactly as compile assigns them), wildcards as W,
// and literals length-prefixed so no literal byte sequence can collide
// with the key's own separators. It returns the variable slots alongside
// so a cache hit can rebind them onto the cached plan.
func shapeKey(bgp BGP, semantic bool) (string, []PlanVar) {
	vars := bgpVars(bgp)
	buf := make([]byte, 0, 16+24*len(bgp))
	if semantic {
		buf = append(buf, 'S')
	} else {
		buf = append(buf, 'E')
	}
	for _, p := range bgp {
		buf = append(buf, '|')
		if p.Star {
			buf = append(buf, '*')
		}
		for _, t := range []Term{p.S, p.P, p.O} {
			switch t.Kind {
			case Const:
				buf = append(buf, 'C')
				buf = strconv.AppendInt(buf, int64(t.ID), 10)
			case Var:
				buf = append(buf, 'V')
				buf = strconv.AppendInt(buf, int64(varSlot(vars, t.Name)), 10)
			case Literal:
				buf = append(buf, 'L')
				buf = strconv.AppendInt(buf, int64(len(t.Lit)), 10)
				buf = append(buf, ':')
				buf = append(buf, t.Lit...)
			default:
				buf = append(buf, 'W')
			}
			buf = append(buf, ',')
		}
	}
	return string(buf), vars
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
	key, vars := shapeKey(bgp, e.Semantic)
	if v, ok := c.entries.Load(key); ok {
		c.hits.Add(1)
		e.lastHit.Store(true)
		e.Metrics.CacheHit()
		pl := v.(*Plan).rebind(vars)
		if e.Metrics != nil {
			pl.Observe(e.Metrics)
		}
		return pl, nil
	}
	c.misses.Add(1)
	e.lastHit.Store(false)
	e.Metrics.CacheMiss()
	pl, err := e.compileTimed(bgp)
	if err != nil {
		return nil, err
	}
	if _, loaded := c.entries.LoadOrStore(key, pl.rebind(pl.vars)); !loaded {
		c.size.Add(1)
	}
	return pl, nil
}
