// Package bitvec implements the row-mask bit vectors used throughout
// AQUOMAN. A mask marks which rows of a table (or intermediate table) have
// been selected for processing. AQUOMAN groups rows into Row Vectors of
// VecSize consecutive rows (Sec. IV of the paper); the Row Selector and Row
// Transformer exchange masks at Row-Vector granularity so that fully-masked
// flash pages can be skipped by the Table Reader.
package bitvec

import "math/bits"

// VecSize is the number of consecutive rows in one Row Vector. The paper
// fixes this at 32: a flash controller producing 32 bytes per beat yields
// eight 32-bit values per cycle, and masks are managed as 32-row units.
const VecSize = 32

// Mask is a dense bit vector over the rows of a table. The zero value is an
// empty mask over zero rows.
type Mask struct {
	words []uint64
	n     int
}

// New returns a mask over n rows with every bit clear.
func New(n int) *Mask {
	return &Mask{words: make([]uint64, (n+63)/64), n: n}
}

// NewFull returns a mask over n rows with every bit set.
func NewFull(n int) *Mask {
	m := New(n)
	for i := range m.words {
		m.words[i] = ^uint64(0)
	}
	m.trim()
	return m
}

// trim clears any bits beyond n in the final word so that population counts
// and whole-word operations stay exact.
func (m *Mask) trim() {
	if rem := m.n % 64; rem != 0 && len(m.words) > 0 {
		m.words[len(m.words)-1] &= (uint64(1) << uint(rem)) - 1
	}
}

// Len returns the number of rows the mask covers.
func (m *Mask) Len() int { return m.n }

// Set sets the bit for row i.
func (m *Mask) Set(i int) { m.words[i/64] |= 1 << uint(i%64) }

// Clear clears the bit for row i.
func (m *Mask) Clear(i int) { m.words[i/64] &^= 1 << uint(i%64) }

// Get reports whether row i is selected.
func (m *Mask) Get(i int) bool { return m.words[i/64]&(1<<uint(i%64)) != 0 }

// SetTo sets row i to v.
func (m *Mask) SetTo(i int, v bool) {
	if v {
		m.Set(i)
	} else {
		m.Clear(i)
	}
}

// Count returns the number of selected rows.
func (m *Mask) Count() int {
	c := 0
	for _, w := range m.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// And intersects m with o in place. Panics if lengths differ.
func (m *Mask) And(o *Mask) {
	m.check(o)
	for i := range m.words {
		m.words[i] &= o.words[i]
	}
}

// Or unions m with o in place. Panics if lengths differ.
func (m *Mask) Or(o *Mask) {
	m.check(o)
	for i := range m.words {
		m.words[i] |= o.words[i]
	}
}

// AndNot removes o's rows from m in place. Panics if lengths differ.
func (m *Mask) AndNot(o *Mask) {
	m.check(o)
	for i := range m.words {
		m.words[i] &^= o.words[i]
	}
}

// Not flips every row of m in place.
func (m *Mask) Not() {
	for i := range m.words {
		m.words[i] = ^m.words[i]
	}
	m.trim()
}

func (m *Mask) check(o *Mask) {
	if m.n != o.n {
		panic("bitvec: mask length mismatch")
	}
}

// Clone returns a copy of m.
func (m *Mask) Clone() *Mask {
	c := New(m.n)
	copy(c.words, m.words)
	return c
}

// NumVecs returns the number of Row Vectors needed to cover the mask.
func (m *Mask) NumVecs() int { return (m.n + VecSize - 1) / VecSize }

// VecAllZero reports whether Row Vector vec (rows [vec*32, vec*32+32)) has
// no selected rows. The Table Reader uses this to skip flash reads
// ({RowVecID, MaskAllZero} in Fig. 6).
func (m *Mask) VecAllZero(vec int) bool {
	lo := vec * VecSize
	hi := lo + VecSize
	if hi > m.n {
		hi = m.n
	}
	w := m.words[lo/64]
	shift := uint(lo % 64)
	bitsIn := uint(hi - lo)
	return (w>>shift)&((1<<bitsIn)-1) == 0
}

// VecBits returns the 32 mask bits of Row Vector vec as a uint32; rows past
// the end of the mask read as zero.
func (m *Mask) VecBits(vec int) uint32 {
	lo := vec * VecSize
	if lo >= m.n {
		return 0
	}
	w := m.words[lo/64]
	v := uint32(w >> uint(lo%64))
	hi := lo + VecSize
	if hi > m.n {
		v &= (1 << uint(m.n-lo)) - 1
	}
	return v
}

// AndVecBits clears every row of Row Vector vec whose bit in keep is zero
// (bit j stands for row vec*32+j), the whole vector in one word operation.
// No other vector's rows change, nor any bit past Len(): those stay clear.
func (m *Mask) AndVecBits(vec int, keep uint32) {
	lo := vec * VecSize
	m.words[lo/64] &^= uint64(^keep) << uint(lo%64)
}

// ForEach calls fn for every selected row in ascending order.
func (m *Mask) ForEach(fn func(row int)) {
	for wi, w := range m.words {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(base + b)
			w &= w - 1
		}
	}
}

// Rows returns the selected row indices in ascending order.
func (m *Mask) Rows() []int {
	out := make([]int, 0, m.Count())
	m.ForEach(func(r int) { out = append(out, r) })
	return out
}

// FromRows builds a mask over n rows with exactly the given rows selected.
func FromRows(n int, rows []int) *Mask {
	m := New(n)
	for _, r := range rows {
		m.Set(r)
	}
	return m
}
