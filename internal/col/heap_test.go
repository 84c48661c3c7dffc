package col

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

func TestHeapStrs(t *testing.T) {
	s := testStore()
	b := s.NewTable(Schema{Name: "h", Cols: []ColDef{{Name: "t", Typ: Text}, {Name: "n", Typ: Int64}}})
	words := []string{"alpha", "", "gamma gamma", "d"}
	for i, w := range words {
		b.Append(w, int64(i))
	}
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	ci := tab.MustColumn("t")
	offs := ci.MustReadAll(flash.Host)
	s.Dev.ResetStats()
	// Out of order, repeated, and out of range.
	req := []Value{offs[3], offs[0], -1, offs[2], offs[0], offs[1], 1 << 20, math.MaxInt64}
	want := []string{"d", "alpha", "", "gamma gamma", "alpha", "", "", ""}
	got, err := ci.Strs(context.Background(), req, flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strs[%d] (offset %d) = %q, want %q", i, req[i], got[i], want[i])
		}
	}
	// The one heap page, once, however many lookups.
	if pages := s.Dev.Stats().PagesRead[flash.Host]; pages != 1 {
		t.Fatalf("heap pages = %d, want 1", pages)
	}
	if _, err := tab.MustColumn("n").Strs(nil, req, flash.Host); err == nil {
		t.Fatal("Strs on an Int64 column did not fail")
	}
}

// heapModel returns n strings laid out to cover the heap's edge cases on
// every run: the first string ends two bytes short of the first page
// boundary, so the second one's length prefix straddles it; one string is
// longer than a page; a quarter are empty.
func heapModel(rng *rand.Rand, n int) []string {
	strs := make([]string, n)
	long := 1 + rng.Intn(n)
	for i := range strs {
		l := rng.Intn(200)
		switch {
		case i == 0:
			l = flash.PageSize - 2 - 4
		case i == long:
			l = flash.PageSize + rng.Intn(3*flash.PageSize)
		case rng.Intn(4) == 0:
			l = 0
		}
		strs[i] = strings.Repeat(string(rune('a'+i%26)), l)
		if l > 2 {
			strs[i] = strs[i][:l-2] + string(rune('A'+i%26)) + "!"
		}
	}
	return strs
}

// FuzzHeapStrings writes strings through the heap encoder and resolves
// random offset sets — any order, repeats — through Strs on a Text and a
// Dict column, against a []string model, on an uncached and a cached
// device. It also checks the device traffic: resolving every row reads the
// heap's pages once as one sequential stream, a subset reads exactly the
// pages that hold its bytes (uncached), an injected read fault comes back
// typed, and a cancelled context reads nothing.
func FuzzHeapStrings(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0))
	f.Add(int64(2), uint16(300), uint8(1))
	f.Add(int64(3), uint16(7), uint8(2))
	f.Add(int64(4), uint16(500), uint8(3))
	f.Add(int64(80), uint16(323), uint8(0)) // a subset with a one-page gap
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		strs := heapModel(rng, int(n%600)+2)
		s := testStore()
		b := s.NewTable(Schema{Name: "h", Cols: []ColDef{{Name: "t", Typ: Text}, {Name: "d", Typ: Dict}}})
		for _, w := range strs {
			b.Append(w, w)
		}
		tab, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		text, dict := tab.MustColumn("t"), tab.MustColumn("d")
		offs, codes := text.MustReadAll(flash.Host), dict.MustReadAll(flash.Host)
		cached := mode&1 != 0
		if cached {
			s.Dev.SetPageCache(sched.NewPageCache(64 * flash.PageSize))
		}
		ctx := context.Background()
		check := func(what string, req []Value, idx []int, got []string) {
			t.Helper()
			for i, k := range idx {
				want := ""
				if k >= 0 {
					want = strs[k]
				}
				if got[i] != want {
					t.Fatalf("%s: Strs[%d] (value %d) = %.20q (len %d), want %.20q (len %d)",
						what, i, req[i], got[i], len(got[i]), want, len(want))
				}
			}
		}

		// Every row, in row order: the whole heap, once, front to back.
		s.Dev.ResetStats()
		all := make([]int, len(strs))
		for i := range all {
			all[i] = i
		}
		got, err := text.Strs(ctx, offs, flash.Host)
		if err != nil {
			t.Fatal(err)
		}
		check("all", offs, all, got)
		st := s.Dev.Stats()
		if st.PagesRead[flash.Host] != text.Heap.NumPages() || st.PagesReadRandom[flash.Host] != 0 {
			t.Fatalf("all rows read %d heap pages with %d seeks, want %d with 0",
				st.PagesRead[flash.Host], st.PagesReadRandom[flash.Host], text.Heap.NumPages())
		}

		// A random subset, shuffled, with repeats and a value naming no string.
		idx := make([]int, 1+rng.Intn(2*len(strs)))
		for i := range idx {
			idx[i] = rng.Intn(len(strs))
		}
		if len(idx) > 1 {
			idx[rng.Intn(len(idx))] = -1
		}
		req, dreq := make([]Value, len(idx)), make([]Value, len(idx))
		need := map[int64]bool{}
		for i, k := range idx {
			if k < 0 {
				req[i], dreq[i] = text.HeapBytes()+int64(rng.Intn(3)), Value(len(dict.Dict()))
				continue
			}
			req[i], dreq[i] = offs[k], codes[k]
			for p := offs[k] / flash.PageSize; p <= (offs[k]+3+int64(len(strs[k])))/flash.PageSize; p++ {
				need[p] = true
			}
		}
		if cached {
			s.Dev.SetPageCache(sched.NewPageCache(64 * flash.PageSize))
		}
		s.Dev.ResetStats()
		if got, err = text.Strs(ctx, req, flash.Host); err != nil {
			t.Fatal(err)
		}
		check("text subset", req, idx, got)
		runs := 0
		for p := range need {
			if !need[p-1] {
				runs++
			}
		}
		st = s.Dev.Stats()
		if !cached && (st.PagesRead[flash.Host] != int64(len(need)) || st.PagesReadRandom[flash.Host] != int64(runs-1)) {
			t.Fatalf("subset read %d heap pages with %d seeks, want the %d that hold its bytes with %d",
				st.PagesRead[flash.Host], st.PagesReadRandom[flash.Host], len(need), runs-1)
		}
		if got, err = dict.Strs(ctx, dreq, flash.Host); err != nil {
			t.Fatal(err)
		}
		check("dict subset", dreq, idx, got)

		// A cancelled context reads nothing.
		cancelled, cancel := context.WithCancel(ctx)
		cancel()
		s.Dev.ResetStats()
		if _, err := text.Strs(cancelled, req, flash.Host); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled: err = %v, want context.Canceled", err)
		}
		if n := s.Dev.Stats().TotalPagesRead(); n != 0 {
			t.Fatalf("cancelled Strs read %d pages", n)
		}

		// A bad page the subset needs fails the call with the typed fault.
		if cached {
			s.Dev.SetPageCache(sched.NewPageCache(64 * flash.PageSize))
		}
		bad := int64(-1)
		for p := range need {
			if bad < 0 || p < bad {
				bad = p
			}
		}
		s.Dev.SetFaults(faults.New(faults.Config{}).AddRule(faults.Rule{
			File: text.Heap.Name(), Page: bad, Who: -1, Kind: faults.Permanent}))
		var fe *faults.Error
		if _, err := text.Strs(ctx, req, flash.Host); !errors.As(err, &fe) || fe.Page != bad {
			t.Fatalf("bad heap page %d: err = %v, want its *faults.Error", bad, err)
		}
	})
}
