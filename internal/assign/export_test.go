package assign

// Test-only hooks: the streaming tuple helpers, recomputations that bypass
// the shared edge cache, so tests (and benchmarks) can pin the cached
// results against the raw computation, and probes of unexported state (the
// closure check, the insignificant border).

// StreamTuples and DistinctTuples expose streamTuples and distinctTuples.
var (
	StreamTuples   = streamTuples
	DistinctTuples = distinctTuples
)

// UncachedSuccessors recomputes a's successor list without consulting or
// populating the edge cache.
func (s *Space) UncachedSuccessors(a *Assignment) []*Assignment {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.computeSuccessorsLocked(s.canonLocked(a))
}

// UncachedPredecessors recomputes a's predecessor list without consulting
// or populating the edge cache.
func (s *Space) UncachedPredecessors(a *Assignment) []*Assignment {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.computePredecessorsLocked(s.canonLocked(a))
}

// InClosure reports membership in the expanded assignment set 𝒜 through
// inClosureLocked, the check the successor filter applies.
func (s *Space) InClosure(a *Assignment) bool {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	return s.inClosureLocked(a)
}

// InsignificantBorder returns the minimal insignificant antichain.
func (c *Classifier) InsignificantBorder() []*Assignment { return c.insig }
