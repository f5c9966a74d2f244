package sparql

// CutFor exposes the operator a Stream over proj turns into an existence
// probe at (len(ops) when no operator does).
func (pl *Plan) CutFor(proj []int) int { return pl.cutFor(proj) }
