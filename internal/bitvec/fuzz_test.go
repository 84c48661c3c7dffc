package bitvec

import (
	"fmt"
	"testing"
)

// refBit reads bit i of a byte pattern, treating missing bytes as zero.
func refBit(pat []byte, i int) bool {
	if i/8 >= len(pat) {
		return false
	}
	return pat[i/8]>>(uint(i)%8)&1 == 1
}

// FuzzBitvec cross-checks Mask against a plain []bool model: round-trip
// Set/Get, population counts, the logic ops, Not's trim behaviour at the
// ragged final word, Rows, and the Row-Vector views
// the Table Reader uses for page skipping.
func FuzzBitvec(f *testing.F) {
	f.Add(5, []byte{0x0f}, []byte{0xf0})
	f.Add(0, []byte{}, []byte{})
	f.Add(64, []byte{0xff, 0, 0xff, 0, 0xff, 0, 0xff, 0}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(97, []byte{0xaa, 0x55, 0xaa, 0x55}, []byte{0xff, 0xff, 0xff})
	f.Add(33, []byte{0x80}, []byte{0x01})
	f.Fuzz(func(t *testing.T, n int, pa, pb []byte) {
		if n < 0 {
			n = -n
		}
		n %= 2048
		refA := make([]bool, n)
		refB := make([]bool, n)
		ma, mb := New(n), New(n)
		for i := 0; i < n; i++ {
			refA[i], refB[i] = refBit(pa, i), refBit(pb, i)
			if refA[i] {
				ma.Set(i)
			}
			if refB[i] {
				mb.Set(i)
			}
		}
		if ma.Len() != n {
			t.Fatalf("Len = %d, want %d", ma.Len(), n)
		}
		wantCount := 0
		for i := 0; i < n; i++ {
			if ma.Get(i) != refA[i] {
				t.Fatalf("Get(%d) = %v, want %v", i, ma.Get(i), refA[i])
			}
			if refA[i] {
				wantCount++
			}
		}
		if ma.Count() != wantCount {
			t.Fatalf("Count = %d, want %d", ma.Count(), wantCount)
		}

		check := func(op string, m *Mask, want func(i int) bool) {
			t.Helper()
			cnt := 0
			for i := 0; i < n; i++ {
				w := want(i)
				if m.Get(i) != w {
					t.Fatalf("%s bit %d = %v, want %v", op, i, m.Get(i), w)
				}
				if w {
					cnt++
				}
			}
			if m.Count() != cnt {
				t.Fatalf("%s Count = %d, want %d", op, m.Count(), cnt)
			}
		}
		and := ma.Clone()
		and.And(mb)
		check("and", and, func(i int) bool { return refA[i] && refB[i] })
		or := ma.Clone()
		or.Or(mb)
		check("or", or, func(i int) bool { return refA[i] || refB[i] })
		andNot := ma.Clone()
		andNot.AndNot(mb)
		check("andnot", andNot, func(i int) bool { return refA[i] && !refB[i] })
		not := ma.Clone()
		not.Not()
		check("not", not, func(i int) bool { return !refA[i] })
		// Double negation restores the original (trim must not lose bits).
		not.Not()
		check("notnot", not, func(i int) bool { return refA[i] })
		// Clone independence: mutating the clone never touches the parent.
		cl := ma.Clone()
		for i := 0; i < n; i++ {
			if refA[i] {
				cl.Clear(i)
			} else {
				cl.Set(i)
			}
		}
		check("orig-after-clone", ma, func(i int) bool { return refA[i] })

		// Rows lists the set bits in order.
		rows := ma.Rows()
		if len(rows) != wantCount {
			t.Fatalf("Rows len = %d, want %d", len(rows), wantCount)
		}
		prev := -1
		for _, r := range rows {
			if r <= prev || !refA[r] {
				t.Fatalf("Rows out of order or wrong at %d", r)
			}
			prev = r
		}

		// Row-Vector views agree with the bits.
		if nv := ma.NumVecs(); nv != (n+VecSize-1)/VecSize {
			t.Fatalf("NumVecs = %d", nv)
		}
		for v := 0; v < ma.NumVecs(); v++ {
			bits := ma.VecBits(v)
			allZero := true
			for j := 0; j < VecSize; j++ {
				i := v*VecSize + j
				want := i < n && refA[i]
				got := bits>>uint(j)&1 == 1
				if got != want {
					t.Fatalf("VecBits(%d) bit %d = %v, want %v", v, j, got, want)
				}
				if want {
					allZero = false
				}
			}
			if ma.VecAllZero(v) != allZero {
				t.Fatalf("VecAllZero(%d) = %v, want %v", v, ma.VecAllZero(v), allZero)
			}
		}

		// AndVecBits against a per-row Clear model: every vector, odd ones
		// (the upper half of a word) and the trailing partial one included,
		// gets a keep word from pb; only its own rows below Len() may clear.
		for v := 0; v < ma.NumVecs(); v++ {
			keep := uint32(0)
			for j := 0; j < VecSize; j++ {
				if refBit(pb, v*VecSize+j) {
					keep |= 1 << uint(j)
				}
			}
			got, want := ma.Clone(), ma.Clone()
			got.AndVecBits(v, keep)
			for j := 0; j < VecSize && v*VecSize+j < n; j++ {
				if keep>>uint(j)&1 == 0 {
					want.Clear(v*VecSize + j)
				}
			}
			check(fmt.Sprintf("andvecbits(%d)", v), got, want.Get)
			for i := range got.words {
				if got.words[i] != want.words[i] {
					t.Fatalf("andvecbits(%d) word %d = %#x, want %#x (a bit past Len changed)", v, i, got.words[i], want.words[i])
				}
			}
		}

		// ForEach visits exactly the selected rows in order.
		var visited []int
		ma.ForEach(func(r int) { visited = append(visited, r) })
		if len(visited) != len(rows) {
			t.Fatalf("ForEach visited %d rows, want %d", len(visited), len(rows))
		}
		for i := range rows {
			if visited[i] != rows[i] {
				t.Fatalf("ForEach order differs at %d: %d vs %d", i, visited[i], rows[i])
			}
		}
	})
}
