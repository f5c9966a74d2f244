package vocab

import (
	"cmp"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// decimalRef is the definition CompareDecimal implements: the order of the
// IDs' "value;" key fragments as strings.
func decimalRef(a, b TermID) int {
	return strings.Compare(strconv.Itoa(int(a))+";", strconv.Itoa(int(b))+";")
}

// TestCompareDecimalEdges checks every pair drawn from 0, the powers of ten
// and their neighbours, the int32 extremes and their negations.
func TestCompareDecimalEdges(t *testing.T) {
	var ids []TermID
	for p := int64(1); p <= math.MaxInt32; p *= 10 {
		for _, x := range []int64{p - 1, p, p + 1} {
			ids = append(ids, TermID(x), TermID(-x))
		}
	}
	ids = append(ids, 0, math.MaxInt32, math.MaxInt32-1, math.MinInt32, math.MinInt32+1, 19, 2, 20, 199, 1999999999)
	for _, a := range ids {
		for _, b := range ids {
			if got, want := CompareDecimal(a, b), decimalRef(a, b); got != want {
				t.Fatalf("CompareDecimal(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestCompareDecimalRandom checks 10⁶ random pairs, half of them drawn
// with a shared magnitude so common-prefix cases are frequent.
func TestCompareDecimalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() TermID {
		switch rng.Intn(4) {
		case 0:
			return TermID(rng.Int31())
		case 1:
			return TermID(-rng.Int31())
		case 2:
			return TermID(rng.Intn(1000))
		}
		return TermID(rng.Int63n(1 << uint(rng.Intn(31)+1)))
	}
	for i := 0; i < 1_000_000; i++ {
		a, b := draw(), draw()
		if i%2 == 1 {
			// b extends a's rendering by a digit or is a's prefix.
			b = TermID(int64(a)*10 + int64(rng.Intn(10)))
			if int64(b) > math.MaxInt32 || int64(b) < math.MinInt32 {
				b = a / 10
			}
		}
		if got, want := CompareDecimal(a, b), decimalRef(a, b); got != want {
			t.Fatalf("CompareDecimal(%d, %d) = %d, want %d", a, b, got, want)
		}
	}
}

// TestDecimalKey checks DecimalKey's order against CompareDecimal on every
// pair of IDs below 3,000, keyed at their own digit count and at ten
// digits, and on every pair drawn from the powers of ten, their neighbours
// and MaxInt32, keyed at ten digits; every key must lie below the bound.
func TestDecimalKey(t *testing.T) {
	check := func(ids []TermID, d int) {
		t.Helper()
		keys := make([]uint64, len(ids))
		for i, id := range ids {
			if keys[i] = DecimalKey(id, d); keys[i] >= DecimalKeyBound(d) {
				t.Fatalf("DecimalKey(%d, %d) = %d, not below %d", id, d, keys[i], DecimalKeyBound(d))
			}
		}
		for i, a := range ids {
			for j, b := range ids {
				if got, want := cmp.Compare(keys[i], keys[j]), CompareDecimal(a, b); got != want {
					t.Fatalf("keys at %d digits order %d, %d as %d, want %d", d, a, b, got, want)
				}
			}
		}
	}
	small := make([]TermID, 3000)
	for i := range small {
		small[i] = TermID(i)
	}
	check(small, DecimalDigits(2999))
	check(small, 10)
	var edges []TermID
	for p := int64(1); p <= math.MaxInt32; p *= 10 {
		for _, x := range []int64{p - 1, p, p + 1} {
			edges = append(edges, TermID(x))
		}
	}
	check(append(edges, math.MaxInt32), 10)
}
