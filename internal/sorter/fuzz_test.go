package sorter

import (
	"encoding/binary"
	"slices"
	"testing"
)

// decodeKVs turns fuzz bytes into key/value pairs (4-byte key, 4-byte
// value, signed).
func decodeKVs(data []byte) []KV {
	var kvs []KV
	for i := 0; i+8 <= len(data) && len(kvs) < 1<<14; i += 8 {
		kvs = append(kvs, KV{
			Key: int64(int32(binary.LittleEndian.Uint32(data[i:]))),
			Val: int64(int32(binary.LittleEndian.Uint32(data[i+4:]))),
		})
	}
	return kvs
}

// FuzzSorterMerge holds the streaming sorter to the element-by-element
// cascade on arbitrary key/value data: after SortRuns and after MergeRuns
// (and through the one-shot Sort) the kernel's Stats equal the cascade's
// field for field, its runs hold the cascade's key sequences and never
// exceed RunElems, and its output is the input stably sorted by key. The
// cascade's own output must be a key-sorted permutation of the input, and
// the bitonic base sorter alone a total (key, value) order.
func FuzzSorterMerge(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 9, 0, 0, 0})
	// Two vectors' worth of descending keys.
	seed := make([]byte, 16*8)
	for i := 0; i < 16; i++ {
		binary.LittleEndian.PutUint32(seed[i*8:], uint32(100-i))
		binary.LittleEndian.PutUint32(seed[i*8+4:], uint32(i))
	}
	f.Add(seed)
	// All-equal keys: the kernel keeps input order, the mergers alternate.
	eq := make([]byte, 12*8)
	for i := 0; i < 12; i++ {
		binary.LittleEndian.PutUint32(eq[i*8:], 7)
		binary.LittleEndian.PutUint32(eq[i*8+4:], uint32(11-i))
	}
	f.Add(eq)
	// Negative keys (sign extension through the uint32 round trip).
	neg := make([]byte, 8*8)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint32(neg[i*8:], uint32(int32(-i*3)))
		binary.LittleEndian.PutUint32(neg[i*8+4:], uint32(i))
	}
	f.Add(neg)

	f.Fuzz(func(t *testing.T, data []byte) {
		input := decodeKVs(data)
		want := stableSorted(input)

		// The bitonic base sorter alone IS a total (key, value) order.
		base := slices.Clone(input[:min(len(input), VecElems)])
		ref := refSort(base)
		BitonicSort(base)
		if !slices.Equal(base, ref) {
			t.Fatalf("BitonicSort = %v, reference %v", base, ref)
		}

		// A tiny config forces multiple runs and folded merge passes even
		// on small inputs.
		cfg := Config{VecElems: 4, FanIn: 2, Layers: 2, ElemBytes: 8}
		s, cas := NewStreaming(cfg), newCascade(cfg)
		runs, casRuns := s.SortRuns(slices.Clone(input)), cas.SortRuns(slices.Clone(input))
		if s.Stats() != cas.stats {
			t.Fatalf("SortRuns stats %+v, cascade %+v", s.Stats(), cas.stats)
		}
		if len(runs) != len(casRuns) {
			t.Fatalf("%d runs, cascade makes %d", len(runs), len(casRuns))
		}
		for ri, run := range runs {
			if len(run) > cfg.RunElems() {
				t.Fatalf("run %d has %d elements, config caps runs at %d", ri, len(run), cfg.RunElems())
			}
			if !slices.Equal(keysOf(run), keysOf(casRuns[ri])) {
				t.Fatalf("run %d keys differ from the cascade's", ri)
			}
		}

		out, casOut := s.MergeRuns(runs), cas.MergeRuns(casRuns)
		if s.Stats() != cas.stats {
			t.Fatalf("MergeRuns stats %+v, cascade %+v", s.Stats(), cas.stats)
		}
		if !slices.Equal(out, want) {
			t.Fatal("output is not the input stably sorted by key")
		}
		if !IsSorted(casOut) || !slices.Equal(refSort(casOut), refSort(input)) {
			t.Fatal("cascade output unsorted or not a permutation")
		}

		// The one-shot Sort entry point, one merge layer.
		cfg = Config{VecElems: 8, FanIn: 4, Layers: 1, ElemBytes: 8}
		s, cas = NewStreaming(cfg), newCascade(cfg)
		out = s.Sort(slices.Clone(input))
		cas.Sort(slices.Clone(input))
		if s.Stats() != cas.stats || !slices.Equal(out, want) {
			t.Fatalf("Sort stats %+v (cascade %+v) or order wrong", s.Stats(), cas.stats)
		}
	})
}
