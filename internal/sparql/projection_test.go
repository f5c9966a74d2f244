package sparql_test

// Oracle tests for projected streaming. Plan.Stream(proj, ...) runs the
// operators past the projection's cut as an existence probe, so it yields
// far fewer rows than the full stream. What must not change is what a
// consumer of the projected slots can see: on randomized stores and BGPs
// in both modes, for every projection subset, the distinct projected
// tuples must equal those of the full stream (nil proj), the row count
// may only shrink (and stays exact when no operator is cut), and a yield
// returning false still ends the run.

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"oassis/internal/obs"
	"oassis/internal/ontology"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// projStore builds a random element hierarchy mirrored as subClassOf facts
// (as the ontology loader does), random facts over a small ordered
// relation set, and a few labels.
func projStore(rng *rand.Rand) (*caseStore, vocab.TermID) {
	v := vocab.New()
	nElem := 5 + rng.Intn(8)
	elems := make([]vocab.TermID, nElem)
	var order [][2]vocab.TermID
	for i := range elems {
		elems[i] = v.MustElement(fmt.Sprintf("e%d", i))
		if i > 0 && rng.Float64() < 0.7 {
			parent := elems[rng.Intn(i)]
			if err := v.OrderElements(parent, elems[i]); err != nil {
				panic(err)
			}
			order = append(order, [2]vocab.TermID{elems[i], parent})
		}
	}
	hasLabel := v.MustRelation(ontology.RelHasLabel)
	subClassOf := v.MustRelation(ontology.RelSubClassOf)
	rels := make([]vocab.TermID, 3)
	for i := range rels {
		rels[i] = v.MustRelation(fmt.Sprintf("r%d", i))
		if i > 0 && rng.Float64() < 0.4 {
			if err := v.OrderRelations(rels[rng.Intn(i)], rels[i]); err != nil {
				panic(err)
			}
		}
	}
	if err := v.Freeze(); err != nil {
		panic(err)
	}
	s := ontology.NewStore(v)
	for _, e := range order {
		s.MustAdd(ontology.Fact{S: e[0], P: subClassOf, O: e[1]})
	}
	for i := rng.Intn(3 * nElem); i > 0; i-- {
		s.MustAdd(ontology.Fact{S: elems[rng.Intn(nElem)], P: rels[rng.Intn(len(rels))], O: elems[rng.Intn(nElem)]})
	}
	for i := rng.Intn(5); i > 0; i-- {
		if err := s.AddLabel(elems[rng.Intn(nElem)], []string{"red", "blue"}[rng.Intn(2)]); err != nil {
			panic(err)
		}
	}
	s.Freeze()
	return &caseStore{s: s, elems: elems, rels: rels, hasLabel: hasLabel}, subClassOf
}

// projBGP draws a star, a chain or a variable-predicate join, then maybe
// adds a hasLabel filter and a subClassOf* path on its variables. One draw
// in six is randomBGP's free mix instead.
func projBGP(rng *rand.Rand, cs *caseStore, subClassOf vocab.TermID) sparql.BGP {
	if rng.Intn(6) == 0 {
		return randomBGP(rng, cs)
	}
	rel := func() sparql.Term { return sparql.ConstTerm(cs.rels[rng.Intn(len(cs.rels))]) }
	elem := func() sparql.Term { return sparql.ConstTerm(cs.elems[rng.Intn(len(cs.elems))]) }
	v := sparql.VarTerm
	var bgp sparql.BGP
	var vars []string
	switch rng.Intn(3) {
	case 0: // star: $s links to several objects, some of them dropped later
		bgp = append(bgp, sparql.Pattern{S: v("s"), P: sparql.ConstTerm(subClassOf), O: elem(), Star: true})
		vars = []string{"s"}
		for i := 1; i <= 1+rng.Intn(3); i++ {
			o := fmt.Sprintf("o%d", i)
			bgp = append(bgp, sparql.Pattern{S: v("s"), P: rel(), O: v(o)})
			vars = append(vars, o)
		}
	case 1: // chain: $x → $y → $z (→ $w)
		vars = []string{"x", "y", "z", "w"}[:3+rng.Intn(2)]
		for i := 0; i+1 < len(vars); i++ {
			bgp = append(bgp, sparql.Pattern{S: v(vars[i]), P: rel(), O: v(vars[i+1])})
		}
	default: // variable predicates
		bgp = append(bgp,
			sparql.Pattern{S: v("x"), P: v("p"), O: v("y")},
			sparql.Pattern{S: v("y"), P: rel(), O: v("z")})
		if rng.Intn(2) == 0 {
			bgp = append(bgp, sparql.Pattern{S: v("z"), P: v("q"), O: elem()})
		}
		vars = []string{"x", "y", "z"}
	}
	if rng.Intn(3) == 0 {
		bgp = append(bgp, sparql.Pattern{
			S: v(vars[rng.Intn(len(vars))]), P: sparql.ConstTerm(cs.hasLabel),
			O: sparql.LiteralTerm([]string{"red", "blue"}[rng.Intn(2)]),
		})
	}
	if rng.Intn(3) == 0 {
		o := elem()
		if rng.Intn(2) == 0 {
			o = v(vars[rng.Intn(len(vars))])
		}
		bgp = append(bgp, sparql.Pattern{S: v(vars[rng.Intn(len(vars))]), P: sparql.ConstTerm(subClassOf), O: o, Star: true})
	}
	rng.Shuffle(len(bgp), func(i, j int) { bgp[i], bgp[j] = bgp[j], bgp[i] })
	return bgp
}

// projCase is one compiled plan of the oracle sweep.
type projCase struct {
	tag     string
	plan    *sparql.Plan
	full    [][]vocab.TermID // every row of the full stream, in order
	compile func() *sparql.Plan
}

// projCases compiles n random cases in both modes.
func projCases(t *testing.T, n int64) []projCase {
	t.Helper()
	var out []projCase
	for seed := int64(0); seed < n; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cs, sub := projStore(rng)
		bgp := projBGP(rng, cs, sub)
		for _, semantic := range []bool{false, true} {
			c := projCase{tag: fmt.Sprintf("seed %d semantic=%v\n%s", seed, semantic, describeCase(cs.s, bgp))}
			c.compile = func() *sparql.Plan {
				e := sparql.NewEvaluator(cs.s)
				e.Semantic = semantic
				pl, err := e.Compile(bgp)
				if err != nil {
					t.Fatalf("%s: compile: %v", c.tag, err)
				}
				return pl
			}
			c.plan = c.compile()
			c.plan.Stream(nil, func(row []vocab.TermID) bool {
				c.full = append(c.full, slices.Clone(row))
				return true
			})
			out = append(out, c)
		}
	}
	return out
}

// projections returns every subset of the plan's slots, the empty one
// included, each in ascending slot order.
func projections(pl *sparql.Plan) [][]int {
	n := len(pl.Vars())
	out := make([][]int, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		proj := []int{}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				proj = append(proj, i)
			}
		}
		out = append(out, proj)
	}
	return out
}

// projectDistinct returns the distinct projections of rows onto proj,
// sorted.
func projectDistinct(rows [][]vocab.TermID, proj []int) [][]vocab.TermID {
	out := make([][]vocab.TermID, 0, len(rows))
	for _, r := range rows {
		t := make([]vocab.TermID, len(proj))
		for i, c := range proj {
			t[i] = r[c]
		}
		out = append(out, t)
	}
	slices.SortFunc(out, slices.Compare)
	return slices.CompactFunc(out, slices.Equal)
}

// streamProjected collects the rows a projected Stream yields.
func streamProjected(pl *sparql.Plan, proj []int) ([][]vocab.TermID, int) {
	var rows [][]vocab.TermID
	n := pl.Stream(proj, func(row []vocab.TermID) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	return rows, n
}

// TestStreamProjectionOracle sweeps random stars (with dropped link
// variables), chains, variable predicates, hasLabel filters and
// subClassOf* paths in both modes, over every projection subset.
func TestStreamProjectionOracle(t *testing.T) {
	cut := 0
	for _, c := range projCases(t, 150) {
		nOps := len(c.plan.PatternOrder())
		for _, proj := range projections(c.plan) {
			got, n := streamProjected(c.plan, proj)
			if n != len(got) {
				t.Fatalf("%v: Stream returned %d, yield saw %d\n%s", proj, n, len(got), c.tag)
			}
			if n > len(c.full) {
				t.Fatalf("%v: projected stream yielded %d rows, full stream %d\n%s", proj, n, len(c.full), c.tag)
			}
			if c.plan.CutFor(proj) == nOps {
				// Nothing is cut: the stream is the full stream, row for row.
				if !slices.EqualFunc(got, c.full, slices.Equal) {
					t.Fatalf("%v: uncut stream differs from the full stream\n%s", proj, c.tag)
				}
			} else if n < len(c.full) {
				cut++
			}
			want, have := projectDistinct(c.full, proj), projectDistinct(got, proj)
			if !slices.EqualFunc(want, have, slices.Equal) {
				t.Fatalf("%v: projected tuples %v, full stream has %v\n%s", proj, have, want, c.tag)
			}
			// A consumer's false ends the run: no yield after it.
			for stopAt := 1; stopAt <= min(n, 3); stopAt++ {
				calls, stopped := 0, false
				m := c.plan.Stream(proj, func([]vocab.TermID) bool {
					if stopped {
						t.Fatalf("%v: yield called after returning false\n%s", proj, c.tag)
					}
					calls++
					stopped = calls == stopAt
					return !stopped
				})
				if calls != stopAt || m != calls {
					t.Fatalf("%v stop at %d: %d calls, Stream returned %d\n%s", proj, stopAt, calls, m, c.tag)
				}
			}
		}
	}
	if cut == 0 {
		t.Fatal("no projection ever shrank the stream: the sweep does not exercise the cut")
	}
}

// TestStreamProjectionObserved checks the cardinality accounting of a
// projected Stream: the plan's count past its last operator is the number
// of rows yielded after the cut, which is what Stream returns.
func TestStreamProjectionObserved(t *testing.T) {
	for _, c := range projCases(t, 40) {
		for _, proj := range projections(c.plan) {
			// A fresh plan per projection: actuals accumulate across runs.
			pl := c.compile()
			pl.Observe(nil)
			n := pl.Stream(proj, func([]vocab.TermID) bool { return true })
			ops := pl.ExplainOps()
			if last := ops[len(ops)-1].RowsOut; last != int64(n) {
				t.Fatalf("%v: last operator's RowsOut %d, Stream returned %d\n%s", proj, last, n, c.tag)
			}
		}
	}
}

// TestStreamProjectionConcurrent streams one cached, observed plan from 8
// goroutines at once, each with its own projection; every run must match
// the serial answer for its projection. Run with -race.
func TestStreamProjectionConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cs, sub := projStore(rng)
	var pl *sparql.Plan
	for pl == nil || len(pl.Vars()) < 3 || pl.Stream(nil, func([]vocab.TermID) bool { return true }) == 0 {
		bgp := projBGP(rng, cs, sub)
		e := sparql.NewEvaluator(cs.s)
		e.Semantic = rng.Intn(2) == 0
		e.Cache = sparql.NewPlanCache()
		e.Metrics = obs.NewPlanMetrics(obs.NewRegistry())
		for range 2 { // the second compile is served from the cache
			var err error
			if pl, err = e.Compile(bgp); err != nil {
				t.Fatal(err)
			}
		}
		if hits, misses, _ := e.Cache.Stats(); hits != 1 || misses != 1 {
			t.Fatalf("two compiles of one shape: %d cache hits and %d misses, want 1 and 1", hits, misses)
		}
	}
	projs := projections(pl)
	want := make([][][]vocab.TermID, len(projs))
	for i, proj := range projs {
		want[i], _ = streamProjected(pl, proj)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				i := (g + r*8) % len(projs)
				got, _ := streamProjected(pl, projs[i])
				if !slices.EqualFunc(got, want[i], slices.Equal) {
					t.Errorf("goroutine %d: projection %v diverges under concurrency", g, projs[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
