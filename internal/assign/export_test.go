package assign

// Test-only hooks that bypass the shared edge cache, so tests (and
// benchmarks) can pin the cached results against the raw computation, and
// that drive the streaming constructor's slab with a chosen compaction
// floor.

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

// AddValidRow interns a and appends it to the space's valid assignments,
// so tests can pin closure and validity checks on rows no WHERE clause
// produces (for instance ones binding several values to one variable). It
// must run before the first closure or validity check.
func (s *Space) AddValidRow(a *Assignment) *Assignment {
	s.in.mu.Lock()
	defer s.in.mu.Unlock()
	if s.validCols != nil {
		panic("assign: AddValidRow after the column index was built")
	}
	a = s.canonLocked(a)
	s.valid = append(s.valid, a)
	return a
}
