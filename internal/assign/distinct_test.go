package assign

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"oassis/internal/vocab"
)

// TestDistinctTuples checks distinctTuples against sorting the tuples'
// rendered "value;" fragments as strings and deduplicating them, on random
// slabs of widths 0-4 with many duplicates, negative IDs and the int32
// extremes. The slabs must exercise both the packed integer sort and the
// CompareDecimal fallback.
func TestDistinctTuples(t *testing.T) {
	render := func(tup []vocab.TermID) string {
		var b strings.Builder
		for _, x := range tup {
			b.WriteString(strconv.Itoa(int(x)) + ";")
		}
		return b.String()
	}
	var paths [2]int // slabs sorted by the fallback, packed
	rng := rand.New(rand.NewSource(1))
	pool := []vocab.TermID{math.MinInt32, -2, -1, 0, 1, 2, 9, 10, 11, 99, 100, 1 << 16, math.MaxInt32 - 1, math.MaxInt32}
	for w := 0; w <= 4; w++ {
		for trial := 0; trial < 200; trial++ {
			n := rng.Intn(40)
			slab := make([]vocab.TermID, n*w)
			for i := range slab {
				if rng.Intn(2) == 0 {
					slab[i] = pool[rng.Intn(len(pool))]
				} else {
					slab[i] = vocab.TermID(rng.Int31n(8))
				}
			}
			var want [][]vocab.TermID
			for i := 0; i < n; i++ {
				want = append(want, slab[i*w:(i+1)*w])
			}
			slices.SortFunc(want, func(a, b []vocab.TermID) int { return strings.Compare(render(a), render(b)) })
			want = slices.CompactFunc(want, slices.Equal[[]vocab.TermID])
			if _, _, ok := packTuples(slab, w, n); ok {
				paths[1]++
			} else {
				paths[0]++
			}

			vals, m := distinctTuples(slices.Clone(slab), w, n)
			if m != len(want) || len(vals) != m*w {
				t.Fatalf("w=%d: %d tuples (%d values), want %d", w, m, len(vals), len(want))
			}
			for i, tup := range want {
				if got := vals[i*w : (i+1)*w]; !slices.Equal(got, tup) {
					t.Fatalf("w=%d: tuple %d is %v, want %v", w, i, got, tup)
				}
			}
		}
	}
	if paths[0] == 0 || paths[1] == 0 {
		t.Fatalf("%d slabs took the fallback and %d the packed sort; want both", paths[0], paths[1])
	}
}
