package assign_test

import (
	"slices"
	"testing"

	"oassis/internal/assign"
	"oassis/internal/oassisql"
	"oassis/internal/sparql"
	"oassis/internal/synth"
)

func benchDAG(b *testing.B) *synth.DAG {
	b.Helper()
	d, err := synth.NewDAG(synth.DAGConfig{
		Width: 150, Depth: 6, MSPPercent: 0.02, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkLeq measures the hot partial-order comparison.
func BenchmarkLeq(b *testing.B) {
	d := benchDAG(b)
	valid := d.Space.Valid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := valid[i%len(valid)]
		c := valid[(i*7+3)%len(valid)]
		_ = d.Space.Leq(a, c)
	}
}

// benchFrontier expands two DAG levels and returns the frontier nodes.
func benchFrontier(d *synth.DAG) []*assign.Assignment {
	frontier := d.Space.Roots()
	for i := 0; i < 2; i++ {
		var next []*assign.Assignment
		for _, a := range frontier {
			next = append(next, d.Space.Successors(a)...)
		}
		frontier = next
	}
	return frontier
}

// BenchmarkSuccessors measures successor retrieval through the shared edge
// cache (the engine's steady-state path: edges are computed once per node).
func BenchmarkSuccessors(b *testing.B) {
	d := benchDAG(b)
	frontier := benchFrontier(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Space.Successors(frontier[i%len(frontier)])
	}
}

// BenchmarkSuccessorsUncached measures the raw lazy generation the cache
// amortizes (one-step specializations + multiplicity extensions + closure
// checks), via the test-only cache bypass.
func BenchmarkSuccessorsUncached(b *testing.B) {
	d := benchDAG(b)
	frontier := benchFrontier(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Space.UncachedSuccessors(frontier[i%len(frontier)])
	}
}

// BenchmarkClassifierStatus measures border-based classification with a
// populated classifier.
func BenchmarkClassifierStatus(b *testing.B) {
	d := benchDAG(b)
	cls := assign.NewClassifier(d.Space)
	for _, p := range d.Planted {
		cls.MarkSignificant(p)
		for _, s := range d.Space.Successors(p) {
			cls.MarkInsignificant(s)
		}
	}
	valid := d.Space.Valid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cls.Status(valid[i%len(valid)])
	}
}

// BenchmarkClassifierStatusUnknown measures the cursor scan: Status on
// nodes a fresh classifier has never seen, against a long mark log that
// classifies none of them, so every call compares the node with every mark
// once. BenchmarkClassifierStatus, by contrast, measures cached verdicts.
func BenchmarkClassifierStatusUnknown(b *testing.B) {
	d := benchDAG(b)
	// Insignificant marks on the leaves (nothing specializes them) and
	// significant marks on the roots (nothing generalizes them): neither
	// classifies the inner valid assignments or the frontier nodes.
	roots := d.Space.Roots()
	var insig, queries []*assign.Assignment
	for _, a := range d.Space.Valid() {
		switch {
		case len(d.Space.Successors(a)) == 0:
			insig = append(insig, a)
		case !slices.Contains(roots, a):
			queries = append(queries, a)
		}
	}
	queries = append(queries, benchFrontier(d)...)
	fresh := func() *assign.Classifier {
		cls := assign.NewClassifier(d.Space)
		for _, a := range insig {
			cls.MarkInsignificant(a)
		}
		for _, a := range roots {
			cls.MarkSignificant(a)
		}
		return cls
	}
	cls := fresh()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%len(queries) == 0 {
			b.StopTimer()
			cls = fresh()
			b.StartTimer()
		}
		if cls.Status(queries[i%len(queries)]) != assign.Unknown {
			b.Fatal("benchmark query node is classified")
		}
	}
}

// BenchmarkInstantiate measures meta-fact-set instantiation.
func BenchmarkInstantiate(b *testing.B) {
	d := benchDAG(b)
	valid := d.Space.Valid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.Space.Instantiate(valid[i%len(valid)])
	}
}

// BenchmarkSpaceStreaming measures the space constructor, whose rows flow
// from plan operators straight into candidate building. The query carries
// a fan-out variable ($q) that the projection drops, so the full row count
// exceeds the distinct-candidate count by two orders of magnitude. The
// planner runs
// $q's pattern last, so the streaming constructor's projection turns it
// into an existence probe: the benchmark fails unless exactly one row per
// valid assignment streams, which catches a lost cut.
func BenchmarkSpaceStreaming(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 40, Depth: 3, MSPPercent: 0.05, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := oassisql.Parse(
		`SELECT FACT-SETS WHERE $y subClassOf* Stuff. $q subClassOf* Stuff. $p subClassOf* Somewhere SATISFYING $y doAt $p WITH SUPPORT = 0.5`,
		d.Vocab)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := sparql.NewEvaluator(d.Store).Compile(q.Where)
	if err != nil {
		b.Fatal(err)
	}
	ref, streamed, err := assign.NewSpaceFromPlan(q, plan, nil)
	if err != nil {
		b.Fatal(err)
	}
	want := len(ref.Valid())
	b.Logf("streamed %d rows into %d nodes (%d valid)", streamed, ref.NumNodes(), want)
	if streamed != want {
		b.Fatalf("streamed %d rows for %d valid assignments: the projection cut did not engage", streamed, want)
	}
	b.Run("streaming", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp, _, err := assign.NewSpaceFromPlan(q, plan, nil)
			if err != nil {
				b.Fatal(err)
			}
			if len(sp.Valid()) != want {
				b.Fatalf("valid count %d, want %d", len(sp.Valid()), want)
			}
		}
	})
}

// BenchmarkSpaceConstruction measures building the space from bindings.
func BenchmarkSpaceConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := synth.NewDAG(synth.DAGConfig{
			Width: 100, Depth: 5, MSPPercent: 0.02, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Space.Valid()) == 0 {
			b.Fatal("empty space")
		}
	}
}

// BenchmarkValidScan measures the classified-valid count behind the
// pace-of-collection curves over one long mark sequence on a width-500 DAG:
// every node of the first five lattice levels, in breadth-first order,
// marked significant when it generalizes a planted MSP and insignificant
// otherwise — the shape of a mining run's marks. One op is the whole
// sequence on a fresh scan. "scan" is ValidScan; "leq" is the incremental
// Space.Leq pass over the unclassified rows it replaced.
func BenchmarkValidScan(b *testing.B) {
	d, err := synth.NewDAG(synth.DAGConfig{Width: 500, Depth: 6, MSPPercent: 0.02, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	sp := d.Space
	type mark struct {
		a   *assign.Assignment
		sig bool
	}
	var marks []mark
	seen := map[*assign.Assignment]bool{}
	level := sp.Roots()
	for depth := 0; depth < 5; depth++ {
		var next []*assign.Assignment
		for _, a := range level {
			if seen[a] {
				continue
			}
			seen[a] = true
			sig := slices.ContainsFunc(d.Planted, func(p *assign.Assignment) bool { return sp.Leq(a, p) })
			marks = append(marks, mark{a, sig})
			next = append(next, sp.Successors(a)...)
		}
		level = next
	}
	want := -1
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scan := sp.NewValidScan()
			for _, m := range marks {
				scan.Mark(m.a, m.sig)
			}
			if want < 0 {
				want = scan.Classified()
			} else if scan.Classified() != want {
				b.Fatalf("classified %d, want %d", scan.Classified(), want)
			}
		}
		b.ReportMetric(float64(len(marks)), "marks/op")
	})
	b.Run("leq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rest := append([]*assign.Assignment{}, sp.Valid()...)
			for _, m := range marks {
				kept := rest[:0]
				for _, psi := range rest {
					if m.sig && !sp.Leq(psi, m.a) || !m.sig && !sp.Leq(m.a, psi) {
						kept = append(kept, psi)
					}
				}
				rest = kept
			}
			if n := len(sp.Valid()) - len(rest); want >= 0 && n != want {
				b.Fatalf("classified %d, want %d", n, want)
			}
		}
		b.ReportMetric(float64(len(marks)), "marks/op")
	})
}
