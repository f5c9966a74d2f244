package vocab

// bitset is a fixed-capacity bit vector used for ancestor closures.
type bitset []uint64

func newBitset(n int) bitset {
	return make(bitset, (n+63)/64)
}

func (b bitset) set(i int) {
	b[i>>6] |= 1 << (uint(i) & 63)
}

func (b bitset) has(i int) bool {
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// or merges other into b; both must have the same capacity.
func (b bitset) or(other bitset) {
	for i, w := range other {
		b[i] |= w
	}
}
