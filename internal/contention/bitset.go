package contention

import "math/bits"

// bitset is a fixed-capacity set of small non-negative integers packed
// 64 per word. All binary operations require operands of equal length;
// the package only ever combines sets carved for the same graph, so
// lengths always agree.
type bitset []uint64

// wordsFor returns the number of 64-bit words needed for n members.
func wordsFor(n int) int { return (n + 63) >> 6 }

func newBitset(n int) bitset { return make(bitset, wordsFor(n)) }

func (s bitset) set(i int)      { s[i>>6] |= 1 << uint(i&63) }
func (s bitset) unset(i int)    { s[i>>6] &^= 1 << uint(i&63) }
func (s bitset) has(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

func (s bitset) empty() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

func (s bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// zero clears every member.
func (s bitset) zero() {
	for i := range s {
		s[i] = 0
	}
}

// fill sets members [0, n).
func (s bitset) fill(n int) {
	for i := range s {
		s[i] = ^uint64(0)
	}
	s.trim(n)
}

// trim clears the unused high bits of the last word so that count and
// empty stay exact for an n-member universe.
func (s bitset) trim(n int) {
	if r := uint(n & 63); r != 0 && len(s) > 0 {
		s[len(s)-1] &= (1 << r) - 1
	}
}

// copyFrom overwrites s with t.
func (s bitset) copyFrom(t bitset) { copy(s, t) }

// intersect sets s = a ∩ b.
func (s bitset) intersect(a, b bitset) {
	for i := range s {
		s[i] = a[i] & b[i]
	}
}

// subtract sets s = a \ b.
func (s bitset) subtract(a, b bitset) {
	for i := range s {
		s[i] = a[i] &^ b[i]
	}
}

// intersectCount returns |a ∩ b| without materializing the result.
func intersectCount(a, b bitset) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// appendMembers appends the members of s to dst in ascending order and
// returns the extended slice.
func (s bitset) appendMembers(dst []int) []int {
	for wi, w := range s {
		base := wi << 6
		for w != 0 {
			dst = append(dst, base+bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
	return dst
}

// clearBelow removes members [0, k).
func (s bitset) clearBelow(k int) {
	clear(s[:k>>6])
	if r := uint(k & 63); r != 0 {
		s[k>>6] &^= (1 << r) - 1
	}
}

// cut deletes members [a, b) and renumbers every member m ≥ b to
// m−(b−a): the bitset form of removing a contiguous vertex range and
// compacting the indices above it. Members below a are untouched and
// the vacated top bits read as zero.
func (s bitset) cut(a, b int) {
	d := b - a
	if d <= 0 {
		return
	}
	first := a >> 6
	low := uint64(1)<<uint(a&63) - 1 // bits of word first below a
	for wi := first; wi < len(s); wi++ {
		// Destination bits wi·64… take source bits wi·64+d…, which lie
		// in words ≥ wi, so ascending order never reads a written word.
		src := wi<<6 + d
		sw, off := src>>6, uint(src&63)
		var v uint64
		if sw < len(s) {
			v = s[sw] >> off
			if sw+1 < len(s) {
				v |= s[sw+1] << (64 - off) // off == 0 shifts out to 0
			}
		}
		if wi == first {
			v = s[wi]&low | v&^low
		}
		s[wi] = v
	}
}
