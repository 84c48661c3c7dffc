package sorter

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randKVs(rng *rand.Rand, n, keyRange int) []KV {
	v := make([]KV, n)
	for i := range v {
		v[i] = KV{Key: int64(rng.Intn(keyRange)), Val: int64(i)}
	}
	return v
}

func refSort(v []KV) []KV {
	out := append([]KV(nil), v...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func equalKVs(a, b []KV) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBitonicSortSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 16, 31, 32, 100} {
		v := randKVs(rng, n, 50)
		want := refSort(v)
		BitonicSort(v)
		if !equalKVs(v, want) {
			t.Fatalf("n=%d: got %v want %v", n, v, want)
		}
	}
}

func TestVCASKeepsTopN(t *testing.T) {
	in := []KV{{1, 0}, {4, 0}, {6, 0}, {9, 0}}
	top := []KV{{2, 0}, {3, 0}, {7, 0}, {8, 0}}
	evicted := VCAS(in, top)
	wantTop := []int64{6, 7, 8, 9}
	wantEv := []int64{1, 2, 3, 4}
	for i := range wantTop {
		if top[i].Key != wantTop[i] {
			t.Fatalf("top = %v", top)
		}
		if evicted[i].Key != wantEv[i] {
			t.Fatalf("evicted = %v", evicted)
		}
	}
}

func TestVCASMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	VCAS(make([]KV, 2), make([]KV, 3))
}

// Property: VCAS partitions the union into exact bottom/top halves, both
// sorted.
func TestQuickVCAS(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8)%16 + 1
		rng := rand.New(rand.NewSource(seed))
		in := refSort(randKVs(rng, n, 40))
		top := refSort(randKVs(rng, n, 40))
		union := refSort(append(append([]KV(nil), in...), top...))
		ev := VCAS(in, top)
		return equalKVs(ev, union[:n]) && equalKVs(top, union[n:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMerge2Alternation(t *testing.T) {
	// Equal keys must alternate sources so the intersection engine can
	// use look-ahead of one.
	a := NewSliceStream([]KV{{5, 1}, {5, 2}})
	b := NewSliceStream([]KV{{5, 10}, {5, 20}})
	m := NewMerge2(a, b)
	var srcs []bool
	for {
		_, fromA, ok := m.NextTagged()
		if !ok {
			break
		}
		srcs = append(srcs, fromA)
	}
	if len(srcs) != 4 {
		t.Fatalf("merged %d elements", len(srcs))
	}
	for i := 1; i < len(srcs); i++ {
		if srcs[i] == srcs[i-1] {
			t.Fatalf("sources did not alternate: %v", srcs)
		}
	}
}

func TestMergeNAndDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var streams []Stream
	var all []KV
	for i := 0; i < 5; i++ {
		r := refSort(randKVs(rng, 20+i, 100))
		all = append(all, r...)
		streams = append(streams, NewSliceStream(r))
	}
	root, depth := MergeN(streams)
	if depth != 3 {
		t.Fatalf("depth = %d, want 3", depth)
	}
	got := drain(root)
	if !IsSorted(got) {
		t.Fatal("MergeN output not sorted")
	}
	if len(got) != len(all) {
		t.Fatalf("len = %d, want %d", len(got), len(all))
	}
}

func TestMergeNEmpty(t *testing.T) {
	root, depth := MergeN(nil)
	if depth != 0 || len(drain(root)) != 0 {
		t.Fatal("empty MergeN misbehaved")
	}
}

func TestStreamingSorterSmallConfig(t *testing.T) {
	cfg := Config{VecElems: 4, FanIn: 4, Layers: 3, ElemBytes: 8}
	if cfg.RunElems() != 4*64 {
		t.Fatalf("RunElems = %d", cfg.RunElems())
	}
	s := NewStreaming(cfg)
	rng := rand.New(rand.NewSource(3))
	data := randKVs(rng, 1000, 1<<30)
	want := stableSorted(data)
	runs := s.SortRuns(append([]KV(nil), data...))
	// 1000 elems / 256-elem runs => 4 runs.
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	for i, r := range runs {
		if !IsSorted(r) {
			t.Fatalf("run %d not sorted", i)
		}
	}
	got := s.MergeRuns(runs)
	if !equalKVs(got, want) {
		t.Fatal("full sort mismatch")
	}
	st := s.Stats()
	if st.ElemsIn != 1000 || st.Runs != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SRAMBytes == 0 || st.DRAMBytes == 0 {
		t.Fatalf("traffic not accounted: %+v", st)
	}
}

func TestStreamingSorterWithinOneRun(t *testing.T) {
	s := NewStreaming(Config{VecElems: 8, FanIn: 8, Layers: 2, ElemBytes: 8})
	rng := rand.New(rand.NewSource(4))
	data := randKVs(rng, 512, 100) // exactly one run (8*8*8)
	want := stableSorted(data)
	got := s.Sort(append([]KV(nil), data...))
	if !equalKVs(got, want) {
		t.Fatal("sort mismatch")
	}
	if s.Stats().Runs != 1 {
		t.Fatalf("runs = %d", s.Stats().Runs)
	}
}

func TestStreamingSorterDefaults(t *testing.T) {
	c := NewStreaming(Config{}).cfg
	if c.VecElems != 8 || c.FanIn != 256 || c.Layers != 3 || c.ElemBytes != 8 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.RunElems() != 8*256*256*256 {
		t.Fatalf("RunElems = %d", c.RunElems())
	}
}

// Property: Sort is a stable sort by key for arbitrary small
// configurations.
func TestQuickStreamingSort(t *testing.T) {
	f := func(seed int64, n16 uint16) bool {
		n := int(n16) % 3000
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			VecElems:  rng.Intn(7) + 2,
			FanIn:     rng.Intn(6) + 2,
			Layers:    rng.Intn(3) + 1,
			ElemBytes: 8,
		}
		data := randKVs(rng, n, 200)
		got := NewStreaming(cfg).Sort(append([]KV(nil), data...))
		return equalKVs(got, stableSorted(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsSorted(t *testing.T) {
	if !IsSorted([]KV{{1, 0}, {1, 5}, {2, 0}}) {
		t.Fatal("sorted reported unsorted")
	}
	if IsSorted([]KV{{2, 0}, {1, 0}}) {
		t.Fatal("unsorted reported sorted")
	}
}
