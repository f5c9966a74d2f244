package sparql

// CutFor exposes the operator a Stream over proj turns into an existence
// probe at (len(ops) when no operator does).
func (pl *Plan) CutFor(proj []int) int { return pl.cutFor(proj) }

// PatternOrder returns, per operator, the index of the BGP pattern it was
// lowered from — the selectivity order the planner chose.
func (pl *Plan) PatternOrder() []int {
	out := make([]int, len(pl.ops))
	for i, o := range pl.ops {
		out[i] = o.src
	}
	return out
}
