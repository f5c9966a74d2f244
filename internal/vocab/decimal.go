package vocab

import (
	"cmp"
	"math/bits"
)

// CompareDecimal orders two term IDs as their decimal renderings followed by
// ';', the layout of an assignment's "name=value;" key: "10" sorts before
// "9", and a value whose decimal is a proper prefix of the other's sorts
// after it (';' > digit). It returns -1, 0 or +1, the sign of
// strings.Compare(strconv.Itoa(a)+";", strconv.Itoa(b)+";"), without
// rendering either number: it compares digit counts, then the shorter
// number against the longer one's leading digits.
func CompareDecimal(a, b TermID) int {
	if a == b {
		return 0
	}
	if (a < 0) != (b < 0) {
		// '-' sorts below every digit.
		if a < 0 {
			return -1
		}
		return 1
	}
	// Two negatives share the '-' and compare as their magnitudes.
	x, y := magnitude(a), magnitude(b)
	dx, dy := decimalDigits(x), decimalDigits(y)
	switch {
	case dx == dy:
		return cmp.Compare(x, y)
	case dx < dy:
		return shorterOrder(x, y, dy-dx)
	}
	return -shorterOrder(y, x, dx-dy)
}

// DecimalDigits returns the number of decimal digits of a non-negative
// term ID (1 for 0).
func DecimalDigits(t TermID) int { return decimalDigits(uint64(t)) }

// DecimalKey returns an integer that orders non-negative term IDs of at most
// d ≤ 10 digits as CompareDecimal does, so a sort can compute each ID's
// position once instead of comparing renderings pairwise. It pads the ID's
// digits with 9s to d places, multiplies by d+1 and adds the number of
// padded places: an ID whose decimal is a proper prefix of another's pads
// to at least the other's value and, on a tie, carries more padding, so it
// sorts after its extensions as ';' does in the keys. Keys lie in
// [0, DecimalKeyBound(d)).
func DecimalKey(t TermID, d int) uint64 {
	x := uint64(t)
	pad := d - decimalDigits(x)
	return ((x+1)*pow10[pad]-1)*uint64(d+1) + uint64(pad)
}

// DecimalKeyBound returns (d+1)·10^d, the bound DecimalKey's keys for
// d-digit IDs lie below.
func DecimalKeyBound(d int) uint64 { return uint64(d+1) * pow10[d] }

// shorterOrder compares x with y, which has d more digits. x sorts first
// only when it is below y's leading digits, that is when
// (x+1)·10^d ≤ y; when it is above them or equal to them (a proper prefix
// of y) it sorts after.
func shorterOrder(x, y uint64, d int) int {
	if (x+1)*pow10[d] <= y {
		return -1
	}
	return 1
}

// pow10[i] is 10^i; |TermID| has at most 10 decimal digits.
var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

func magnitude(t TermID) uint64 {
	if t < 0 {
		return uint64(-int64(t))
	}
	return uint64(t)
}

// decimalDigits returns the number of decimal digits of x (1 for 0), from
// its bit length: bits·1233/4096 underestimates log10 by at most one.
func decimalDigits(x uint64) int {
	d := bits.Len64(x) * 1233 >> 12
	if x >= pow10[d] {
		d++
	}
	return max(d, 1)
}
