package swissknife

import "math"

// Table maps exact key tuples of a fixed width to dense int32 group ids,
// handed out in first-seen order. It is the one group table in the tree:
// the Aggregate-GroupBy accelerator keys its groups with it, and the host
// engine's GROUP BY resolves its key tuples through it.
//
// Keys are stored column-major (keys[c][id]), so a finished group-by's
// key columns are the table's own slices. Lookup is open addressing over
// a power-of-two slot array; a slot holds the key's 32-bit hash beside
// id+1 (0 marks an empty slot), so a probe compares keys only on a full
// hash match and growing never rehashes a key.
//
// In front of the hash sits a direct index: while the tuples seen so far
// fit a box of at most directCells cells, a tuple's id is
// dense[Σ (k_c − lo_c)·stride_c] − 1. A tuple outside the box grows it
// and refills the index from keys; once the box would pass directCells
// the index is dropped for good. The hash holds every group either way,
// so ids and their order do not depend on the index.
type Table struct {
	width int
	keys  [][]int64
	slots []uint64
	n     int32
	key   []int64 // FindCols's current tuple

	// The direct index: nil before the first group and once dropped.
	dense  []int32  // id+1 per cell of the box, 0 for none
	lo     []int64  // the box's lowest key per column
	span   []uint64 // the box's cells along each column
	stride []int
}

// directCells bounds the direct index to 16 KB of int32 cells.
const directCells = 4096

// NewTable returns an empty table over key tuples of the given width. A
// zero-width table has one group, id 0, once anything is found.
func NewTable(width int) *Table {
	return &Table{width: width, keys: make([][]int64, width), key: make([]int64, width),
		lo: make([]int64, width), span: make([]uint64, width), stride: make([]int, width)}
}

// Len returns the number of groups.
func (t *Table) Len() int { return int(t.n) }

// Keys returns the key columns, keys[c][id] for id < Len(), in first-seen
// order. The slices are the table's own.
func (t *Table) Keys() [][]int64 { return t.keys }

// Find returns the group id of key (len(key) == the table's width),
// adding a group when the tuple is new.
func (t *Table) Find(key []int64) (id int32, added bool) {
	if t.dense != nil {
		if i, ok := t.cell(key); ok && t.dense[i] != 0 {
			return t.dense[i] - 1, false
		}
	}
	id, added = t.probe(key)
	if added && (t.dense != nil || id == 0) {
		t.index(key, id)
	}
	return id, added
}

// probe resolves key through the hash, adding a group when it is new.
func (t *Table) probe(key []int64) (id int32, added bool) {
	if int(t.n+1)*2 > len(t.slots) {
		t.grow()
	}
	h := uint64(hashKey(key))
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			id = t.n
			t.n++
			t.slots[i] = h<<32 | uint64(id+1)
			for c, k := range key {
				t.keys[c] = append(t.keys[c], k)
			}
			return id, true
		}
		if s>>32 == h {
			if id = int32(uint32(s)) - 1; t.equal(id, key) {
				return id, false
			}
		}
	}
}

// FindCols resolves rows [off, off+len(ids)) of the key columns cols
// (one per key value) into ids, adding groups for new tuples, and returns
// how many rows it resolved: a row keep drops (keep != nil and
// keep[row] == 0) gets id -1. A row the direct index holds takes its id
// from there; otherwise a row whose tuple repeats the previous probed
// row's takes that row's group without probing.
func (t *Table) FindCols(cols [][]int64, keep []int64, off int, ids []int32) int {
	key := t.key
	prev, n := int32(-1), 0
	for j := range ids {
		r := off + j
		if keep != nil && keep[r] == 0 {
			ids[j] = -1
			continue
		}
		n++
		if t.dense != nil {
			if g := t.lookup(cols, r); g != 0 {
				ids[j] = g - 1
				continue
			}
		}
		var diff int64
		for c, col := range cols {
			v := col[r]
			diff |= v ^ key[c]
			key[c] = v
		}
		if diff != 0 || prev < 0 {
			prev, _ = t.Find(key)
		}
		ids[j] = prev
	}
	return n
}

// lookup returns id+1 of row r's tuple from the direct index, 0 when the
// index does not hold it.
func (t *Table) lookup(cols [][]int64, r int) int32 {
	i := 0
	for c, col := range cols {
		d := uint64(col[r] - t.lo[c])
		if d >= t.span[c] {
			return 0
		}
		i += int(d) * t.stride[c]
	}
	return t.dense[i]
}

// cell returns key's cell in the direct index, false when key lies
// outside the box.
func (t *Table) cell(key []int64) (int, bool) {
	i := 0
	for c, k := range key {
		d := uint64(k - t.lo[c])
		if d >= t.span[c] {
			return 0, false
		}
		i += int(d) * t.stride[c]
	}
	return i, true
}

// index enters new group id, whose tuple is key, in the direct index.
// A key outside the box grows the box around it and refills the index
// from keys: each span the key leaves grows by at least the old span,
// toward the key, when the cell bound allows, so keys arriving in order
// refill O(log) times. A key that would take even the tight box past
// directCells drops the index for good.
func (t *Table) index(key []int64, id int32) {
	if t.dense != nil {
		if i, ok := t.cell(key); ok {
			t.dense[i] = id + 1
			return
		}
	}
	lo, span := make([]int64, t.width), make([]uint64, t.width)
	cells := uint64(1)
	for c, k := range key {
		l, h := k, k
		if t.dense != nil {
			l, h = min(t.lo[c], k), max(t.lo[c]+int64(t.span[c]-1), k)
		}
		lo[c], span[c] = l, uint64(h-l)+1 // 0 when the span is all of int64
		if span[c] == 0 || span[c] > directCells || cells*span[c] > directCells {
			t.dense = nil
			return
		}
		cells *= span[c]
	}
	for c, k := range key {
		if t.dense == nil || span[c] == t.span[c] {
			continue
		}
		wide := max(span[c], 2*t.span[c])
		if cells/span[c]*wide > directCells {
			continue
		}
		extra := wide - span[c]
		if k < t.lo[c] {
			lo[c] -= int64(min(extra, uint64(lo[c]-math.MinInt64)))
		} else if room := uint64(math.MaxInt64 - (lo[c] + int64(span[c]-1))); extra > room {
			lo[c] -= int64(extra - room)
		}
		cells, span[c] = cells/span[c]*wide, wide
	}
	stride := 1
	for c := range key {
		t.lo[c], t.span[c], t.stride[c] = lo[c], span[c], stride
		stride *= int(span[c])
	}
	t.dense = make([]int32, cells)
	for g := int32(0); g < t.n; g++ {
		i := 0
		for c := range t.keys {
			i += int(uint64(t.keys[c][g]-t.lo[c])) * t.stride[c]
		}
		t.dense[i] = g + 1
	}
}

// equal reports whether group id holds key.
func (t *Table) equal(id int32, key []int64) bool {
	for c, k := range key {
		if t.keys[c][id] != k {
			return false
		}
	}
	return true
}

// grow doubles the slot array (at least 16 slots), keeping the load at
// most one half; a slot's stored hash places it again.
func (t *Table) grow() {
	old := t.slots
	t.slots = make([]uint64, max(16, 2*len(old)))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s != 0 {
			i := s >> 32 & mask
			for t.slots[i] != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// hashKey mixes a key tuple into 32 bits: a multiply-xorshift step per
// value, then a murmur3 finalizer so every output bit depends on every
// bit of every value.
func hashKey(key []int64) uint32 {
	h := uint64(len(key))
	for _, k := range key {
		h = (h ^ uint64(k)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return uint32(h)
}
