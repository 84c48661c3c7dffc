package swissknife

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
type Table struct {
	width int
	keys  [][]int64
	slots []uint64
	n     int32
	key   []int64 // FindCols's current tuple
}

// NewTable returns an empty table over key tuples of the given width. A
// zero-width table has one group, id 0, once anything is found.
func NewTable(width int) *Table {
	return &Table{width: width, keys: make([][]int64, width), key: make([]int64, width)}
}

// Len returns the number of groups.
func (t *Table) Len() int { return int(t.n) }

// Keys returns the key columns, keys[c][id] for id < Len(), in first-seen
// order. The slices are the table's own.
func (t *Table) Keys() [][]int64 { return t.keys }

// Find returns the group id of key (len(key) == the table's width),
// adding a group when the tuple is new.
func (t *Table) Find(key []int64) (id int32, added bool) {
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
// keep[row] == 0) gets id -1. A row whose tuple repeats the previous
// resolved row's takes that row's group without probing.
func (t *Table) FindCols(cols [][]int64, keep []int64, off int, ids []int32) int {
	key := t.key
	prev, n := int32(-1), 0
	for j := range ids {
		r := off + j
		if keep != nil && keep[r] == 0 {
			ids[j] = -1
			continue
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
		n++
	}
	return n
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
