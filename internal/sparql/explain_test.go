package sparql_test

import (
	"strings"
	"sync"
	"testing"

	"oassis/internal/obs"
	"oassis/internal/paperdata"
	"oassis/internal/sparql"
	"oassis/internal/vocab"
)

// TestPlanExplain pins the Explain report: one line per operator with the
// source pattern, the chosen access path, the estimate, and — after running
// with observation on — actual per-operator cardinalities.
func TestPlanExplain(t *testing.T) {
	s, v := skewedStore(t)
	bgp := sparql.BGP{
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("big")), O: sparql.VarTerm("y")},
		{S: sparql.VarTerm("x"), P: sparql.ConstTerm(v.Relation("small")), O: sparql.VarTerm("z")},
	}
	pl, err := sparql.NewEvaluator(s).Compile(bgp)
	if err != nil {
		t.Fatal(err)
	}
	// Unobserved: the table shows estimates and paths, no actuals.
	out := pl.Explain()
	if !strings.Contains(out, "FactsWithPredicate(p)") {
		t.Fatalf("missing scan path for the leading pattern:\n%s", out)
	}
	if !strings.Contains(out, "Objects(s,p)") {
		t.Fatalf("second operator should use the SP index ($x bound):\n%s", out)
	}
	if !strings.Contains(out, "$x small $z") || !strings.Contains(out, "$x big $y") {
		t.Fatalf("pattern rendering missing:\n%s", out)
	}
	if strings.Contains(out, "rows_in") {
		t.Fatalf("actuals shown without observation:\n%s", out)
	}

	pl.Observe(nil) // counting without a metric sink
	if rows := solutions(pl); len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	ops := pl.ExplainOps()
	if len(ops) != 2 {
		t.Fatalf("ops = %d", len(ops))
	}
	// Execution order: small (1 fact) then big. Root enters once; one
	// survivor enters the big operator; one final row.
	if ops[0].Pattern != 1 || ops[0].RowsIn != 1 || ops[0].RowsOut != 1 {
		t.Fatalf("op0 = %+v", ops[0])
	}
	if ops[1].Pattern != 0 || ops[1].RowsIn != 1 || ops[1].RowsOut != 1 {
		t.Fatalf("op1 = %+v", ops[1])
	}
	if !strings.Contains(pl.Explain(), "rows_in") {
		t.Fatalf("observed Explain lacks actuals:\n%s", pl.Explain())
	}
}

// TestCompileWithMetrics: an evaluator carrying a PlanMetrics set times
// compiles and auto-observes the plans it produces; Stream feeds the eval
// counters and per-operator actuals.
func TestCompileWithMetrics(t *testing.T) {
	v, s := paperdata.Build()
	o := obs.New()
	e := sparql.NewEvaluator(s)
	e.Metrics = o.Plan
	pl, err := e.Compile(figure2WhereBGP(t, v))
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Plan.Compiles.Value(); got != 1 {
		t.Fatalf("compiles = %d", got)
	}
	n := pl.Stream(nil, func([]vocab.TermID) bool { return true })
	if o.Plan.Evals.Value() != 1 {
		t.Fatalf("evals = %d", o.Plan.Evals.Value())
	}
	if got := o.Plan.Rows.Value(); got != int64(n) || n != 42 {
		t.Fatalf("rows counter %d, Stream yielded %d, want 42", got, n)
	}
	if o.Plan.EvalDur.Count() != 1 || o.Plan.CompileDur.Count() != 1 {
		t.Fatal("duration histograms not fed")
	}
}

// TestObservedEvalConcurrent: per-operator accounting must be race-free and
// additive across concurrent Streams of one shared plan.
func TestObservedEvalConcurrent(t *testing.T) {
	v, s := paperdata.Build()
	e := sparql.NewEvaluator(s)
	pl, err := e.Compile(figure2WhereBGP(t, v))
	if err != nil {
		t.Fatal(err)
	}
	pl.Observe(nil)
	base := len(solutions(pl))
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if n := len(solutions(pl)); n != base {
				t.Errorf("concurrent eval rows = %d, want %d", n, base)
			}
		}()
	}
	wg.Wait()
	ops := pl.ExplainOps()
	if ops[0].Evals != workers+1 {
		t.Fatalf("evals = %d, want %d", ops[0].Evals, workers+1)
	}
	// Root operator entries scale exactly with eval count.
	if ops[0].RowsIn != int64(workers+1) {
		t.Fatalf("root rows_in = %d, want %d", ops[0].RowsIn, workers+1)
	}
}
