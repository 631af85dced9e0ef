// Package bitset provides fixed-width bit sequences used as path ids in
// the path encoding scheme of Li, Lee and Hsu (XSym 2005), which the
// ICDE 2006 estimation system builds on.
//
// A path id over an XML document with n distinct root-to-leaf paths is a
// sequence of n bits; bit i (counted from the left, 1-based, matching
// the paper's presentation) is set when the element occurs on the path
// whose encoding is i. The package implements the bit-or aggregation
// used during labeling and the bit-and containment test of Section 2 of
// the paper.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Bitset is a fixed-width sequence of bits. The zero value is a
// zero-width bitset; use New to create one with a given width. Bit
// positions are 1-based from the left to match the paper's notation:
// position 1 is the most significant conceptual position.
type Bitset struct {
	width int
	words []uint64
}

// New returns a Bitset of the given width with all bits zero.
// It panics if width is negative.
func New(width int) *Bitset {
	if width < 0 {
		panic(fmt.Sprintf("bitset: negative width %d", width))
	}
	return &Bitset{
		width: width,
		words: make([]uint64, (width+wordBits-1)/wordBits),
	}
}

// FromString parses a bit string such as "1011" into a Bitset whose
// width equals the string length. Characters other than '0' and '1'
// yield an error.
func FromString(s string) (*Bitset, error) {
	b := New(len(s))
	for i, c := range s {
		switch c {
		case '1':
			b.Set(i + 1)
		case '0':
		default:
			return nil, fmt.Errorf("bitset: invalid character %q at position %d", c, i+1)
		}
	}
	return b, nil
}

// MustFromString is FromString that panics on error. It is intended for
// tests and package-level literals.
func MustFromString(s string) *Bitset {
	b, err := FromString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// Width reports the number of bit positions in the set.
func (b *Bitset) Width() int { return b.width }

// locate maps a 1-based left position to (word index, mask).
func (b *Bitset) locate(pos int) (int, uint64) {
	if pos < 1 || pos > b.width {
		panic(fmt.Sprintf("bitset: position %d out of range [1,%d]", pos, b.width))
	}
	idx := pos - 1
	return idx / wordBits, 1 << (wordBits - 1 - uint(idx%wordBits))
}

// Set sets the bit at the given 1-based position (from the left).
func (b *Bitset) Set(pos int) {
	w, m := b.locate(pos)
	b.words[w] |= m
}

// Clear clears the bit at the given 1-based position.
func (b *Bitset) Clear(pos int) {
	w, m := b.locate(pos)
	b.words[w] &^= m
}

// Test reports whether the bit at the given 1-based position is set.
func (b *Bitset) Test(pos int) bool {
	w, m := b.locate(pos)
	return b.words[w]&m != 0
}

// Or sets b to b | other, in place. The widths must match.
func (b *Bitset) Or(other *Bitset) {
	b.checkWidth(other)
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b to b & other, in place. The widths must match.
func (b *Bitset) And(other *Bitset) {
	b.checkWidth(other)
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// AndNot sets b to b &^ other, in place. The widths must match.
func (b *Bitset) AndNot(other *Bitset) {
	b.checkWidth(other)
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Grow widens b in place to width, keeping its bits: the new
// positions, after the old ones, are zero. A b at least that wide is
// not written to, so bitsets shared with readers may be passed.
func (b *Bitset) Grow(width int) {
	if width <= b.width {
		return
	}
	if n := (width + wordBits - 1) / wordBits; n > len(b.words) {
		b.words = append(b.words, make([]uint64, n-len(b.words))...)
	}
	b.width = width
}

func (b *Bitset) checkWidth(other *Bitset) {
	if b.width != other.width {
		panic(fmt.Sprintf("bitset: width mismatch %d vs %d", b.width, other.width))
	}
}

// Clone returns an independent copy of b.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{width: b.width, words: make([]uint64, len(b.words))}
	copy(c.words, b.words)
	return c
}

// Equal reports whether b and other have identical width and bits.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.width != other.width {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Compare orders two equal-width bit sequences as binary numbers,
// position 1 most significant, the order of Figure 1(c): it returns
// -1, 0 or +1 as a is below, equal to or above b. Comparing the words
// in index order gives exactly the order of the String forms. The
// widths must match.
func Compare(a, b *Bitset) int {
	a.checkWidth(b)
	bw := b.words[:len(a.words)]
	for i, w := range a.words {
		if v := bw[i]; w != v {
			if w < v {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Contains reports whether b contains other in the sense of Section 2,
// Case 2 of the paper: b != other and (b & other) == other. Note that
// containment is strict; use ContainsOrEqual for the reflexive variant.
func (b *Bitset) Contains(other *Bitset) bool {
	return !b.Equal(other) && b.ContainsOrEqual(other)
}

// ContainsOrEqual reports whether (b & other) == other, i.e. every bit
// set in other is also set in b.
func (b *Bitset) ContainsOrEqual(other *Bitset) bool {
	b.checkWidth(other)
	for i, w := range other.words {
		if b.words[i]&w != w {
			return false
		}
	}
	return true
}

// IsZero reports whether no bit is set.
func (b *Bitset) IsZero() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Ones returns the 1-based positions of all set bits in increasing
// order. In path-id terms these are the encodings of the root-to-leaf
// paths the labeled element occurs on.
func (b *Bitset) Ones() []int {
	return b.OnesAppend(make([]int, 0, b.Count()))
}

// OnesAppend appends the 1-based positions of all set bits, in
// increasing order, to dst and returns the extended slice. It is the
// non-allocating variant of Ones for hot paths that reuse a buffer
// (pass dst[:0] to recycle it).
func (b *Bitset) OnesAppend(dst []int) []int {
	for wi, w := range b.words {
		for w != 0 {
			lz := bits.LeadingZeros64(w)
			pos := wi*wordBits + lz + 1
			if pos > b.width {
				break
			}
			dst = append(dst, pos)
			w &^= 1 << (wordBits - 1 - uint(lz))
		}
	}
	return dst
}

// ForEachOne calls fn with each set 1-based position in increasing
// order, stopping early when fn returns false. It never allocates,
// which makes it the iteration of choice inside the estimator's join
// kernel and other per-query paths.
func (b *Bitset) ForEachOne(fn func(pos int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			lz := bits.LeadingZeros64(w)
			pos := wi*wordBits + lz + 1
			if pos > b.width {
				break
			}
			if !fn(pos) {
				return
			}
			w &^= 1 << (wordBits - 1 - uint(lz))
		}
	}
}

// FirstOne returns the smallest 1-based set position, or 0 if the set
// is empty.
func (b *Bitset) FirstOne() int {
	for wi, w := range b.words {
		if w != 0 {
			pos := wi*wordBits + bits.LeadingZeros64(w) + 1
			if pos > b.width {
				return 0
			}
			return pos
		}
	}
	return 0
}

// AppendWords appends b's backing words to dst and returns the
// extended slice. Words are in ascending index order (position 1 lives
// in the most significant bit of the first appended word), so rows of
// equal-width bitsets appended back to back form a columnar arena with
// a fixed word stride of (width+63)/64. The appended words are copies;
// mutating dst never aliases b.
func (b *Bitset) AppendWords(dst []uint64) []uint64 {
	return append(dst, b.words...)
}

// The *Words functions below evaluate the Section 2 containment test
// ((anc & desc) == desc) directly over such an arena: a row is the
// stride words starting at its offset, and candidate rows are named by
// their row index (offset = index * stride). They are the inner loop
// of the estimator's path join — branch-light sequential sweeps over
// contiguous memory, with a single-word fast path for the common case
// of documents with at most 64 distinct root-to-leaf paths.

// ContainsWords reports whether the row at aOff contains-or-equals the
// row at bOff: (a & b) == b word-wise over stride words.
func ContainsWords(arena []uint64, aOff, bOff, stride int) bool {
	a := arena[aOff : aOff+stride]
	b := arena[bOff : bOff+stride : bOff+stride]
	for i, w := range b {
		if a[i]&w != w {
			return false
		}
	}
	return true
}

// ContainsAnyWords reports whether the row at aOff contains-or-equals
// at least one of the rows idxs (each at idx*stride). This is the
// ancestor-side pruning sweep of the path join: does this ancestor pid
// contain any surviving descendant pid?
func ContainsAnyWords(arena []uint64, aOff, stride int, idxs []int32) bool {
	if stride == 1 {
		a := arena[aOff]
		for _, idx := range idxs {
			w := arena[idx]
			if a&w == w {
				return true
			}
		}
		return false
	}
	for _, idx := range idxs {
		if ContainsWords(arena, aOff, int(idx)*stride, stride) {
			return true
		}
	}
	return false
}

// AnyContainsWords reports whether at least one of the rows idxs
// contains-or-equals the row at bOff — the descendant-side pruning
// sweep: is any surviving ancestor pid above this descendant pid?
func AnyContainsWords(arena []uint64, bOff, stride int, idxs []int32) bool {
	if stride == 1 {
		b := arena[bOff]
		for _, idx := range idxs {
			if arena[idx]&b == b {
				return true
			}
		}
		return false
	}
	for _, idx := range idxs {
		if ContainsWords(arena, int(idx)*stride, bOff, stride) {
			return true
		}
	}
	return false
}

// String renders the bit sequence as a string of '0' and '1', leftmost
// position first, exactly as printed in the paper's figures.
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.Grow(b.width)
	for pos := 1; pos <= b.width; pos++ {
		if b.Test(pos) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Key returns a compact string usable as a map key. Two bitsets have
// the same key iff they set the same positions, whatever their widths,
// so a bitset keeps its key when Grow widens it. The key spells the
// words up to the last non-zero one, each least significant byte
// first. Leaving the zero words out keeps the byte order among the
// keys of equal-width bitsets. The representation is not
// human-readable; use String for display.
func (b *Bitset) Key() string {
	words := b.words
	for len(words) > 0 && words[len(words)-1] == 0 {
		words = words[:len(words)-1]
	}
	var sb strings.Builder
	sb.Grow(len(words) * 8)
	for _, w := range words {
		for s := 0; s < 64; s += 8 {
			sb.WriteByte(byte(w >> uint(s)))
		}
	}
	return sb.String()
}

// Bytes returns the packed big-endian byte form of the sequence:
// position 1 is the most significant bit of the first byte. The final
// byte is zero-padded. This is the serialization format of path ids.
func (b *Bitset) Bytes() []byte {
	out := make([]byte, b.SizeBytes())
	b.ForEachOne(func(pos int) bool {
		out[(pos-1)/8] |= 0x80 >> uint((pos-1)%8)
		return true
	})
	return out
}

// FromBytes reconstructs a Bitset of the given width from its packed
// form. It rejects a buffer of the wrong length or stray bits beyond
// the width.
func FromBytes(width int, data []byte) (*Bitset, error) {
	b := New(width)
	if len(data) != b.SizeBytes() {
		return nil, fmt.Errorf("bitset: %d bytes for width %d, want %d", len(data), width, b.SizeBytes())
	}
	for i, by := range data {
		for j := 0; j < 8; j++ {
			if by&(0x80>>uint(j)) == 0 {
				continue
			}
			pos := i*8 + j + 1
			if pos > width {
				return nil, fmt.Errorf("bitset: stray bit at position %d beyond width %d", pos, width)
			}
			b.Set(pos)
		}
	}
	return b, nil
}

// SizeBytes returns the storage cost of the raw bit sequence, rounded
// up to whole bytes. This is the "Pid Size" column of Table 3.
func (b *Bitset) SizeBytes() int {
	return (b.width + 7) / 8
}
