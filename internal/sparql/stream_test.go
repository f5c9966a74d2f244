package sparql_test

// Tests for the streaming execution path and the shared plan cache, plus
// the row-collecting helpers the package's tests read solutions through.
// The cache tests fuzz the shape normalizer: whenever two compilations
// share a cache entry, their result tuples must be identical, and
// near-miss shapes (literal edits, star toggles, mode flips) must not
// share.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// solutions runs the full Stream of pl and returns its distinct rows:
// copied, sorted with slices.Compare and deduplicated.
func solutions(pl *sparql.Plan) [][]vocab.TermID {
	var rows [][]vocab.TermID
	pl.Stream(nil, func(row []vocab.TermID) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	slices.SortFunc(rows, slices.Compare)
	return slices.CompactFunc(rows, slices.Equal)
}

// evalBindings compiles bgp on e and returns its solutions in map form,
// ordered by refKey as refEvaluator orders its own.
func evalBindings(e *sparql.Evaluator, bgp sparql.BGP) ([]Binding, error) {
	pl, err := e.Compile(bgp)
	if err != nil {
		return nil, err
	}
	var out []Binding
	for _, row := range solutions(pl) {
		b := make(Binding, len(row))
		for i, pv := range pl.Vars() {
			b[pv.Name] = row[i]
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return refKey(out[i]) < refKey(out[j]) })
	return out, nil
}

// TestStreamEarlyStop checks that a yield returning false halts the
// pipeline: the producer must not call back again after being told to stop.
func TestStreamEarlyStop(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	pl, err := e.Compile(benchBGP(v))
	if err != nil {
		t.Fatal(err)
	}
	total := pl.Stream(nil, func([]vocab.TermID) bool { return true })
	if total < 2 {
		t.Fatalf("fixture streams %d rows; need >= 2 for an early stop to mean anything", total)
	}
	for stopAfter := 1; stopAfter < 4; stopAfter++ {
		calls := 0
		n := pl.Stream(nil, func([]vocab.TermID) bool {
			calls++
			return calls < stopAfter
		})
		if calls != stopAfter {
			t.Fatalf("stopAfter=%d: callback ran %d times", stopAfter, calls)
		}
		if n != calls {
			t.Fatalf("stopAfter=%d: Stream returned %d, callback saw %d", stopAfter, n, calls)
		}
	}
}

// rowsEqual compares two result row sets positionally.
func rowsEqual(a, b [][]vocab.TermID) bool { return slices.EqualFunc(a, b, slices.Equal) }

// TestPlanCacheSoundness fuzzes the shape normalizer: random BGP pairs over
// one store compile through a shared cache, and every compile — hit or miss
// — must produce the same result tuples as an uncached compile of the same
// BGP. This is exactly the property that fails if two distinct-result
// queries ever share a cache entry.
func TestPlanCacheSoundness(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		cs := randomStore(rng)
		cs.s.Freeze()
		for _, semantic := range []bool{false, true} {
			for i := 0; i < 3; i++ {
				bgp := randomBGP(rng, cs)
				cached := sparql.NewEvaluator(cs.s).UseSharedCache()
				cached.Semantic = semantic
				plain := sparql.NewEvaluator(cs.s)
				plain.Semantic = semantic
				cpl, cerr := cached.Compile(bgp)
				ppl, perr := plain.Compile(bgp)
				if (cerr != nil) != (perr != nil) {
					t.Fatalf("seed %d: cached compile err %v, plain compile err %v\n%s",
						seed, cerr, perr, describeCase(cs.s, bgp))
				}
				if cerr != nil {
					continue
				}
				if !rowsEqual(solutions(cpl), solutions(ppl)) {
					hits, misses, entries := cached.Cache.Stats()
					t.Fatalf("seed %d semantic=%v (cache hits=%d misses=%d entries=%d): cached plan diverges from direct compile\n%s",
						seed, semantic, hits, misses, entries, describeCase(cs.s, bgp))
				}
			}
		}
	}
}

// TestPlanCacheRenamedHit pins the positive side of the normalizer: an
// order-preserving variable renaming is the same shape, so the second
// compile must be a hit and the rebound plan must expose the caller's
// names while producing identical tuples.
func TestPlanCacheRenamedHit(t *testing.T) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)

	// Rename every variable but keep the sort order (w,x,y,z -> va..vd).
	names := map[string]bool{}
	for _, p := range bgp {
		for _, tm := range []sparql.Term{p.S, p.P, p.O} {
			if tm.Kind == sparql.Var {
				names[tm.Name] = true
			}
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	ren := map[string]string{}
	for i, n := range sorted {
		ren[n] = fmt.Sprintf("v%c", 'a'+i)
	}
	renamed := make(sparql.BGP, len(bgp))
	for i, p := range bgp {
		q := p
		for _, tm := range []*sparql.Term{&q.S, &q.P, &q.O} {
			if tm.Kind == sparql.Var {
				tm.Name = ren[tm.Name]
			}
		}
		renamed[i] = q
	}

	e1 := sparql.NewEvaluator(s).UseSharedCache()
	pl1, err := e1.Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	e2 := sparql.NewEvaluator(s).UseSharedCache()
	pl2, err := e2.Compile(renamed)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses, _ := e2.Cache.Stats()
	if hits < 1 {
		t.Fatalf("order-preserving renaming missed the cache (hits=%d misses=%d)", hits, misses)
	}
	if !rowsEqual(solutions(pl1), solutions(pl2)) {
		t.Fatal("renamed plan produces different tuples")
	}
	vars2 := pl2.Vars()
	for i, pv := range vars2 {
		if want := fmt.Sprintf("v%c", 'a'+i); pv.Name != want {
			t.Fatalf("rebound plan var %d named %q, want %q", i, pv.Name, want)
		}
	}
}

// TestPlanCacheNearMisses drives shapes that are one edit apart through a
// shared cache and checks none of them collide: a different literal, a
// toggled star, a different constant, an order-breaking renaming and a
// mode flip must all compile as misses.
func TestPlanCacheNearMisses(t *testing.T) {
	v, s := paperdata.Build()
	rel := func(name string) vocab.TermID { return v.Relation(name) }
	el := func(name string) vocab.TermID { return v.Element(name) }
	base := sparql.BGP{
		{S: sparql.VarTerm("w"), P: sparql.ConstTerm(rel("subClassOf")), O: sparql.ConstTerm(el("Attraction")), Star: true},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("instanceOf")), O: sparql.VarTerm("w")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(rel("hasLabel")), O: sparql.LiteralTerm("child-friendly")},
	}
	mutate := func(f func(b sparql.BGP)) sparql.BGP {
		b := make(sparql.BGP, len(base))
		copy(b, base)
		f(b)
		return b
	}
	variants := []struct {
		name     string
		bgp      sparql.BGP
		semantic bool
	}{
		{"literal", mutate(func(b sparql.BGP) { b[2].O = sparql.LiteralTerm("romantic") }), false},
		{"star", mutate(func(b sparql.BGP) { b[0].Star = false }), false},
		{"const", mutate(func(b sparql.BGP) { b[0].O = sparql.ConstTerm(el("Activity")) }), false},
		{"wildcard", mutate(func(b sparql.BGP) { b[1].O = sparql.WildcardTerm() }), false},
		{"mode", base, true},
	}
	e := sparql.NewEvaluator(s).UseSharedCache()
	if _, err := e.Compile(base); err != nil {
		t.Fatal(err)
	}
	for _, vt := range variants {
		ev := sparql.NewEvaluator(s).UseSharedCache()
		ev.Semantic = vt.semantic
		before, _, _ := ev.Cache.Stats()
		if _, err := ev.Compile(vt.bgp); err != nil {
			t.Fatalf("%s: compile: %v", vt.name, err)
		}
		after, _, _ := ev.Cache.Stats()
		if after != before {
			t.Fatalf("%s: near-miss variant hit the cache entry of the base shape", vt.name)
		}
	}
	// The unchanged base shape, by contrast, must hit.
	ev := sparql.NewEvaluator(s).UseSharedCache()
	before, _, _ := ev.Cache.Stats()
	if _, err := ev.Compile(base); err != nil {
		t.Fatal(err)
	}
	if after, _, _ := ev.Cache.Stats(); after != before+1 {
		t.Fatal("identical shape did not hit the cache")
	}
}

// TestPlanCacheHitAllocs pins the cost of a plan-cache hit: the shape key
// is built on the stack and looked up without converting it to a string,
// so a hit allocates only the query's variable table and the rebound plan.
func TestPlanCacheHitAllocs(t *testing.T) {
	v, s := paperdata.Build()
	bgp := benchBGP(v)
	e := sparql.NewEvaluator(s).UseSharedCache()
	if _, err := e.Compile(bgp); err != nil { // warm the shared entry
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.Compile(bgp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("a plan-cache hit allocates %.0f times, want at most 2", allocs)
	}
}

// TestSemanticStreamAllocsFlat guards the allocation-free semantic path: a
// warm semantic Stream allocates the same fixed per-run scratch whether
// its anchor yields a few rows or ten times as many — no per-fact
// ancestor-list copy, no per-call cone rebuild or sort.
func TestSemanticStreamAllocsFlat(t *testing.T) {
	s, el := semStarStore()
	e := sparql.NewEvaluator(s)
	e.Semantic = true
	measure := func(anchor string) (rows int, allocs float64) {
		pl, err := e.Compile(semStarBGP(s, el(anchor)))
		if err != nil {
			t.Fatal(err)
		}
		yield := func([]vocab.TermID) bool { return true }
		rows = pl.Stream(nil, yield) // warm the store's cone memo
		return rows, testing.AllocsPerRun(5, func() { pl.Stream(nil, yield) })
	}
	smallRows, smallAllocs := measure("city3_4")
	bigRows, bigAllocs := measure("region3")
	if smallRows == 0 || bigRows < 8*smallRows {
		t.Fatalf("anchors stream %d and %d rows; want about 10× apart", smallRows, bigRows)
	}
	if bigAllocs > smallAllocs {
		t.Fatalf("warm semantic Stream allocates %.0f for %d rows but %.0f for %d rows",
			smallAllocs, smallRows, bigAllocs, bigRows)
	}
	t.Logf("rows %d → %d, allocs/run %.0f → %.0f", smallRows, bigRows, smallAllocs, bigAllocs)
}
