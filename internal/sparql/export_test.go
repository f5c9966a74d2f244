package sparql

import "oassis/internal/vocab"

// EvalInterpreted exposes the seed recursive matcher so differential tests
// and BenchmarkWhereEval can pin the compiled plan against it.
func (e *Evaluator) EvalInterpreted(bgp BGP) ([]Binding, error) {
	return e.evalInterpreted(bgp)
}

// CompareRows orders two result rows as Eval's sorted, deduplicated
// Results are ordered, so tests can reproduce Eval from streamed rows.
func CompareRows(a, b []vocab.TermID) int { return cmpRows(a, b) }

// CutFor exposes the operator a Stream over proj turns into an existence
// probe at (len(ops) when no operator does).
func (pl *Plan) CutFor(proj []int) int { return pl.cutFor(proj) }
