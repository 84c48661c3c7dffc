package bitvec

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetGetClear(t *testing.T) {
	m := New(100)
	if m.Len() != 100 {
		t.Fatalf("Len = %d, want 100", m.Len())
	}
	for i := 0; i < 100; i += 3 {
		m.Set(i)
	}
	for i := 0; i < 100; i++ {
		if got, want := m.Get(i), i%3 == 0; got != want {
			t.Fatalf("Get(%d) = %v, want %v", i, got, want)
		}
	}
	m.Clear(0)
	if m.Get(0) {
		t.Fatal("Clear(0) did not clear")
	}
	if got, want := m.Count(), 33; got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

func TestNewFull(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 1000} {
		m := NewFull(n)
		if m.Count() != n {
			t.Fatalf("NewFull(%d).Count = %d", n, m.Count())
		}
	}
}

func TestNotRespectsLength(t *testing.T) {
	m := New(70)
	m.Set(3)
	m.Not()
	if got := m.Count(); got != 69 {
		t.Fatalf("Not: Count = %d, want 69", got)
	}
	if m.Get(3) {
		t.Fatal("Not: bit 3 still set")
	}
}

func TestBooleanAlgebra(t *testing.T) {
	const n = 200
	a, b := New(n), New(n)
	for i := 0; i < n; i += 2 {
		a.Set(i)
	}
	for i := 0; i < n; i += 3 {
		b.Set(i)
	}
	and := a.Clone()
	and.And(b)
	or := a.Clone()
	or.Or(b)
	diff := a.Clone()
	diff.AndNot(b)
	for i := 0; i < n; i++ {
		ai, bi := i%2 == 0, i%3 == 0
		if and.Get(i) != (ai && bi) {
			t.Fatalf("And bit %d wrong", i)
		}
		if or.Get(i) != (ai || bi) {
			t.Fatalf("Or bit %d wrong", i)
		}
		if diff.Get(i) != (ai && !bi) {
			t.Fatalf("AndNot bit %d wrong", i)
		}
	}
}

func TestVecAllZeroAndBits(t *testing.T) {
	m := New(100) // 4 row vectors: [0,32) [32,64) [64,96) [96,100)
	m.Set(33)
	m.Set(97)
	if !m.VecAllZero(0) || m.VecAllZero(1) || !m.VecAllZero(2) || m.VecAllZero(3) {
		t.Fatalf("VecAllZero pattern wrong: %v %v %v %v",
			m.VecAllZero(0), m.VecAllZero(1), m.VecAllZero(2), m.VecAllZero(3))
	}
	if got := m.VecBits(1); got != 1<<1 {
		t.Fatalf("VecBits(1) = %#x, want %#x", got, 1<<1)
	}
	if got := m.VecBits(3); got != 1<<1 {
		t.Fatalf("VecBits(3) = %#x, want %#x", got, 1<<1)
	}
	if m.NumVecs() != 4 {
		t.Fatalf("NumVecs = %d, want 4", m.NumVecs())
	}
}

func TestForEachAndRows(t *testing.T) {
	rows := []int{0, 5, 63, 64, 65, 99}
	m := New(100)
	for _, r := range rows {
		m.Set(r)
	}
	got := m.Rows()
	if len(got) != len(rows) {
		t.Fatalf("Rows len = %d, want %d", len(got), len(rows))
	}
	for i := range rows {
		if got[i] != rows[i] {
			t.Fatalf("Rows[%d] = %d, want %d", i, got[i], rows[i])
		}
	}
}

// Property: Count equals the number of set rows under random operations,
// and VecBits round-trips Get.
func TestQuickMaskConsistency(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall)%500 + 1
		rng := rand.New(rand.NewSource(seed))
		m := New(n)
		ref := make([]bool, n)
		for k := 0; k < 300; k++ {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				m.Set(i)
				ref[i] = true
			} else {
				m.Clear(i)
				ref[i] = false
			}
		}
		count := 0
		for i, v := range ref {
			if v {
				count++
			}
			if m.Get(i) != v {
				return false
			}
			vec, off := i/VecSize, uint(i%VecSize)
			if (m.VecBits(vec)>>off)&1 == 1 != v {
				return false
			}
		}
		return m.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan — NOT(a AND b) == NOT a OR NOT b.
func TestQuickDeMorgan(t *testing.T) {
	f := func(seed int64) bool {
		const n = 257
		rng := rand.New(rand.NewSource(seed))
		a, b := New(n), New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				a.Set(i)
			}
			if rng.Intn(2) == 0 {
				b.Set(i)
			}
		}
		lhs := a.Clone()
		lhs.And(b)
		lhs.Not()
		rhs := a.Clone()
		rhs.Not()
		nb := b.Clone()
		nb.Not()
		rhs.Or(nb)
		for i := 0; i < n; i++ {
			if lhs.Get(i) != rhs.Get(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
