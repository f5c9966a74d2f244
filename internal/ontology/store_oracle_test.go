package ontology_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"oassis/internal/ontology"
	"oassis/internal/vocab"
)

// oracleCase is a random vocabulary and a random fact list with duplicates,
// some elements in no fact, and one hub subject with hundreds of facts.
type oracleCase struct {
	v          *vocab.Vocabulary
	nE, nR     int
	facts      []ontology.Fact // as added, duplicates included
	set        map[ontology.Fact]bool
	predicates []vocab.TermID
}

func newOracleCase(rng *rand.Rand) *oracleCase {
	v := vocab.New()
	nE, nR := 20+rng.Intn(120), 1+rng.Intn(6)
	for i := 0; i < nE; i++ {
		id := v.MustElement(fmt.Sprintf("e%d", i))
		if i > 0 && rng.Intn(3) > 0 {
			if err := v.OrderElements(vocab.TermID(rng.Intn(i)), id); err != nil {
				panic(err)
			}
		}
	}
	for i := 0; i < nR; i++ {
		id := v.MustRelation(fmt.Sprintf("r%d", i))
		if i > 0 && rng.Intn(3) == 0 {
			if err := v.OrderRelations(vocab.TermID(rng.Intn(i)), id); err != nil {
				panic(err)
			}
		}
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	c := &oracleCase{v: v, nE: nE, nR: nR, set: make(map[ontology.Fact]bool)}
	// The last quarter of the elements and the last relation (when there
	// are two or more) occur in no fact.
	live := nE - nE/4
	liveR := nR
	if nR > 1 {
		liveR--
	}
	add := func(f ontology.Fact) {
		c.facts = append(c.facts, f)
		c.set[f] = true
	}
	elem := func() vocab.TermID { return vocab.TermID(rng.Intn(live)) }
	rel := func() vocab.TermID { return vocab.TermID(rng.Intn(liveR)) }
	for i, n := 0, rng.Intn(4*nE); i < n; i++ {
		add(ontology.Fact{S: elem(), P: rel(), O: elem()})
	}
	hub := elem()
	for i := 0; i < 200+rng.Intn(200); i++ {
		add(ontology.Fact{S: hub, P: rel(), O: elem()})
	}
	for i, n := 0, len(c.facts)/3; i < n; i++ {
		add(c.facts[rng.Intn(len(c.facts))])
	}
	rng.Shuffle(len(c.facts), func(i, j int) { c.facts[i], c.facts[j] = c.facts[j], c.facts[i] })
	for p := 0; p < nR; p++ {
		for f := range c.set {
			if f.P == vocab.TermID(p) {
				c.predicates = append(c.predicates, vocab.TermID(p))
				break
			}
		}
	}
	return c
}

// sorted returns the oracle facts matching keep, in Fact.Less order.
func (c *oracleCase) sorted(keep func(ontology.Fact) bool) []ontology.Fact {
	var out []ontology.Fact
	for f := range c.set {
		if keep(f) {
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b ontology.Fact) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return out
}

// reach is the brute-force zero-or-more-step closure of start over pred,
// backwards when back is set: nil when start has no edge that way.
func (c *oracleCase) reach(start, pred vocab.TermID, back bool) []vocab.TermID {
	adj := map[vocab.TermID][]vocab.TermID{}
	for f := range c.set {
		if f.P != pred {
			continue
		}
		if back {
			adj[f.O] = append(adj[f.O], f.S)
		} else {
			adj[f.S] = append(adj[f.S], f.O)
		}
	}
	if len(adj[start]) == 0 {
		return nil
	}
	seen := map[vocab.TermID]bool{start: true}
	for frontier := []vocab.TermID{start}; len(frontier) > 0; {
		var next []vocab.TermID
		for _, x := range frontier {
			for _, y := range adj[x] {
				if !seen[y] {
					seen[y] = true
					next = append(next, y)
				}
			}
		}
		frontier = next
	}
	var out []vocab.TermID
	for x := range seen {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

// TestStoreOracle checks every read of a frozen store against brute force
// over the fact set, on random vocabularies and fact lists.
func TestStoreOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := newOracleCase(rng)
		s := ontology.NewStore(c.v)
		for _, f := range c.facts {
			s.MustAdd(f)
		}
		if s.Size() != 0 || s.Objects(c.facts[0].S, c.facts[0].P) != nil || len(s.Predicates()) != 0 {
			t.Fatalf("seed %d: an unfrozen store must read as empty", seed)
		}
		s.Freeze()
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
		}

		if s.Size() != len(c.set) {
			fail("Size = %d, want %d", s.Size(), len(c.set))
		}
		if all, want := s.AllFacts(), c.sorted(func(ontology.Fact) bool { return true }); !slices.Equal(all, want) {
			fail("AllFacts diverges from the oracle")
		}
		if got := s.Predicates(); !slices.Equal(got, c.predicates) {
			fail("Predicates = %v, want %v", got, c.predicates)
		}
		// Every key from below the vocabulary to past its end, so the
		// offset tables' bounds are probed too.
		for p := vocab.TermID(-2); int(p) <= c.nR; p++ {
			run := c.sorted(func(f ontology.Fact) bool { return f.P == p })
			if got := s.FactsWithPredicate(p); !slices.Equal(got, run) {
				fail("FactsWithPredicate(%d) = %v, want %v", p, got, run)
			}
			subj, obj := map[vocab.TermID]bool{}, map[vocab.TermID]bool{}
			for _, f := range run {
				subj[f.S], obj[f.O] = true, true
			}
			if n, ns, no := s.PredStats(p); n != len(run) || ns != len(subj) || no != len(obj) {
				fail("PredStats(%d) = (%d, %d, %d), want (%d, %d, %d)", p, n, ns, no, len(run), len(subj), len(obj))
			}
			objects, subjects := map[vocab.TermID][]vocab.TermID{}, map[vocab.TermID][]vocab.TermID{}
			for _, f := range run {
				objects[f.S] = append(objects[f.S], f.O)
				subjects[f.O] = append(subjects[f.O], f.S)
			}
			for x := vocab.TermID(-2); int(x) <= c.nE; x++ {
				objs, subs := objects[x], subjects[x]
				slices.Sort(subs)
				if got := s.Objects(x, p); !slices.Equal(got, objs) || (got == nil) != (objs == nil) {
					fail("Objects(%d, %d) = %v, want %v", x, p, got, objs)
				}
				if got := s.Subjects(p, x); !slices.Equal(got, subs) || (got == nil) != (subs == nil) {
					fail("Subjects(%d, %d) = %v, want %v", p, x, got, subs)
				}
			}
		}
		for i := 0; i < 2000; i++ {
			f := ontology.Fact{
				S: vocab.TermID(rng.Intn(c.nE+4) - 2),
				P: vocab.TermID(rng.Intn(c.nR+4) - 2),
				O: vocab.TermID(rng.Intn(c.nE+4) - 2),
			}
			if i%2 == 0 {
				f = c.facts[rng.Intn(len(c.facts))]
			}
			if s.Has(f) != c.set[f] {
				fail("Has(%v) = %v", f, !c.set[f])
			}
		}

		for _, p := range c.predicates {
			// Reaches before the closure index exists (the early-exit
			// walk over the runs), then the closure reads, then Reaches
			// again over the built index.
			type probe struct{ a, b vocab.TermID }
			var probes []probe
			for i := 0; i < 300; i++ {
				probes = append(probes, probe{vocab.TermID(rng.Intn(c.nE)), vocab.TermID(rng.Intn(c.nE))})
			}
			reaches := func(a, b vocab.TermID) bool {
				return a == b || slices.Contains(c.reach(a, p, false), b)
			}
			for _, pr := range probes {
				if got := s.Reaches(pr.a, p, pr.b); got != reaches(pr.a, pr.b) {
					fail("cold Reaches(%d, %d, %d) = %v", pr.a, p, pr.b, got)
				}
			}
			var pairs []ontology.Edge
			nodes := 0
			for x := vocab.TermID(0); int(x) < c.nE; x++ {
				fwd, bwd := c.reach(x, p, false), c.reach(x, p, true)
				if got := s.ForwardClosure(x, p); !slices.Equal(got, fwd) || (got == nil) != (fwd == nil) {
					fail("ForwardClosure(%d, %d) = %v, want %v", x, p, got, fwd)
				}
				if got := s.BackwardClosure(x, p); !slices.Equal(got, bwd) || (got == nil) != (bwd == nil) {
					fail("BackwardClosure(%d, %d) = %v, want %v", x, p, got, bwd)
				}
				switch {
				case fwd != nil:
					nodes++
					for _, y := range fwd {
						pairs = append(pairs, ontology.Edge{S: x, O: y})
					}
				case bwd != nil:
					nodes++
					pairs = append(pairs, ontology.Edge{S: x, O: x})
				}
			}
			if got := s.ClosurePairs(p); !slices.Equal(got, pairs) {
				fail("ClosurePairs(%d) = %v, want %v", p, got, pairs)
			}
			if np, nn := s.StarStats(p); np != len(pairs) || nn != nodes {
				fail("StarStats(%d) = (%d, %d), want (%d, %d)", p, np, nn, len(pairs), nodes)
			}
			for _, pr := range probes {
				if got := s.Reaches(pr.a, p, pr.b); got != reaches(pr.a, pr.b) {
					fail("indexed Reaches(%d, %d, %d) = %v", pr.a, p, pr.b, got)
				}
			}

			run := s.FactsWithPredicate(p)
			for term := vocab.TermID(0); int(term) < c.nE; term++ {
				for _, object := range []bool{false, true} {
					cone, ok := s.SemCone(p, term, object)
					if wantOK := len(c.v.ElementDescendants(term))*8 <= len(run); ok != wantOK {
						fail("SemCone(%d, %d, %v) verdict %v, want %v", p, term, object, ok, wantOK)
					}
					if !ok {
						continue
					}
					want := c.sorted(func(f ontology.Fact) bool {
						x := f.S
						if object {
							x = f.O
						}
						return f.P == p && c.v.LeqE(term, x)
					})
					if !slices.Equal(cone, want) {
						fail("SemCone(%d, %d, %v) = %v, want %v", p, term, object, cone, want)
					}
				}
			}
		}
	}
}

// TestStoreAddRejectsOutsideVocabulary pins that Add refuses, with an
// error, every fact naming a term the vocabulary has not issued — the
// pseudo-terms NoTerm and Any, other negative IDs, and IDs at or past the
// element or relation count — and that the refused facts leave no trace.
func TestStoreAddRejectsOutsideVocabulary(t *testing.T) {
	v := vocab.New()
	a, b := v.MustElement("a"), v.MustElement("b")
	r := v.MustRelation("r")
	if err := v.Freeze(); err != nil {
		t.Fatal(err)
	}
	nE, nR := vocab.TermID(v.NumElements()), vocab.TermID(v.NumRelations())
	s := ontology.NewStore(v)
	bad := map[string]ontology.Fact{
		"NoTerm subject":         {S: vocab.NoTerm, P: r, O: b},
		"NoTerm predicate":       {S: a, P: vocab.NoTerm, O: b},
		"NoTerm object":          {S: a, P: r, O: vocab.NoTerm},
		"Any subject":            {S: ontology.Any, P: r, O: b},
		"Any predicate":          {S: a, P: ontology.Any, O: b},
		"Any object":             {S: a, P: r, O: ontology.Any},
		"negative subject":       {S: -7, P: r, O: b},
		"negative object":        {S: a, P: r, O: -7},
		"subject = NumElements":  {S: nE, P: r, O: b},
		"object = NumElements":   {S: a, P: r, O: nE},
		"object past elements":   {S: a, P: r, O: nE + 100},
		"predicate = NumRelns":   {S: a, P: nR, O: b},
		"predicate past relns":   {S: a, P: nR + 100, O: b},
		"relation as an element": {S: a, P: r, O: vocab.TermID(5)},
	}
	for name, f := range bad {
		if err := s.Add(f); err == nil {
			t.Errorf("%s: Add(%v) accepted a term outside the vocabulary", name, f)
		}
	}
	good := ontology.Fact{S: a, P: r, O: b}
	if err := s.Add(good); err != nil {
		t.Fatalf("Add(%v): %v", good, err)
	}
	s.Freeze()
	if s.Size() != 1 || !s.Has(good) {
		t.Fatalf("after the refused adds the store holds %v, want only %v", s.AllFacts(), good)
	}
}

// TestStoreFreezeAllocsFlat pins that Freeze allocates a fixed number of
// slices whatever the fact count: counting sorts into whole-store arrays,
// no per-key slice and no map. The process-wide malloc counter also sees
// the runtime's own occasional allocations, so each size keeps the least
// of five Freezes.
func TestStoreFreezeAllocsFlat(t *testing.T) {
	v, facts := freezeFixture(100000)
	measure := func(n int) uint64 {
		least := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			s := ontology.NewStore(v)
			for _, f := range facts[:n] {
				s.MustAdd(f)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			s.Freeze()
			runtime.ReadMemStats(&after)
			if s.Size() == 0 {
				t.Fatal("empty fixture")
			}
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	small, large := measure(10000), measure(100000)
	t.Logf("Freeze allocations: %d at 10k facts, %d at 100k", small, large)
	if small != large {
		t.Fatalf("Freeze allocates %d times at 10k facts but %d at 100k: a per-key cost crept back", small, large)
	}
}

// freezeFixture returns a vocabulary of 5,000 elements and 16 relations
// and n random facts over it, every relation used.
func freezeFixture(n int) (*vocab.Vocabulary, []ontology.Fact) {
	rng := rand.New(rand.NewSource(1))
	v := vocab.New()
	const nE, nR = 5000, 16
	for i := 0; i < nE; i++ {
		v.MustElement(fmt.Sprintf("e%d", i))
	}
	for i := 0; i < nR; i++ {
		v.MustRelation(fmt.Sprintf("r%d", i))
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	facts := make([]ontology.Fact, n)
	for i := range facts {
		facts[i] = ontology.Fact{
			S: vocab.TermID(rng.Intn(nE)),
			P: vocab.TermID(i % nR),
			O: vocab.TermID(rng.Intn(nE)),
		}
	}
	return v, facts
}

// BenchmarkStoreFreeze times Freeze alone over 100k queued facts.
func BenchmarkStoreFreeze(b *testing.B) {
	v, facts := freezeFixture(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := ontology.NewStore(v)
		for _, f := range facts {
			s.MustAdd(f)
		}
		b.StartTimer()
		s.Freeze()
	}
}
