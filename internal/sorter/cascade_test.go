package sorter

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// cascade is the hardware streaming sorter driven element by element:
// bitonic-sorted base vectors, then FanIn runs per layer merged through
// MergeN trees of Merge2, with every merge charged as it happens. It is
// the reference StreamingSorter's kernel and derived counters are held
// to, as EvalExpr is for Machine.
type cascade struct {
	cfg   Config
	stats Stats
}

func newCascade(cfg Config) *cascade { return &cascade{cfg: NewStreaming(cfg).cfg} }

func (s *cascade) SortRuns(data []KV) [][]KV {
	s.stats.ElemsIn += int64(len(data))
	// Layer 0: bitonic-sort base vectors.
	var runs [][]KV
	for base := 0; base < len(data); base += s.cfg.VecElems {
		v := data[base:min(base+s.cfg.VecElems, len(data))]
		BitonicSort(v)
		runs = append(runs, v)
	}
	for layer := 1; layer <= s.cfg.Layers && len(runs) > 1; layer++ {
		runs = s.mergeLayer(runs, layer)
	}
	s.stats.Runs += int64(len(runs))
	return runs
}

func (s *cascade) MergeRuns(runs [][]KV) []KV {
	if len(runs) == 0 {
		return nil
	}
	for len(runs) > 1 {
		runs = s.mergeLayer(runs, s.cfg.Layers)
	}
	return runs[0]
}

func (s *cascade) Sort(data []KV) []KV { return s.MergeRuns(s.SortRuns(data)) }

// mergeLayer merges runs FanIn at a time; a group of one run passes
// through untouched and uncharged.
func (s *cascade) mergeLayer(runs [][]KV, layer int) [][]KV {
	var next [][]KV
	for g := 0; g < len(runs); g += s.cfg.FanIn {
		group := runs[g:min(g+s.cfg.FanIn, len(runs))]
		if len(group) == 1 {
			next = append(next, group[0])
			continue
		}
		streams := make([]Stream, len(group))
		for i, r := range group {
			streams[i] = NewSliceStream(r)
		}
		root, _ := MergeN(streams)
		merged := drain(root)
		bytes := 2 * int64(len(merged)) * int64(s.cfg.ElemBytes) // read + write
		if layer >= s.cfg.Layers {
			s.stats.DRAMBytes += bytes
			s.stats.DRAMMergePasses++
		} else {
			s.stats.SRAMBytes += bytes
			s.stats.SRAMMergePasses++
		}
		next = append(next, merged)
	}
	return next
}

// maxRefElems bounds the lengths pushed through the reference: the
// cascade costs an interface call per element per tree level.
const maxRefElems = 1 << 20

// refLengths returns the lengths that sit on the cascade's edges under c:
// empty, one element, VecElems·FanIn^k ± 1 for every layer k (the last is
// RunElems) and several runs, up to maxRefElems.
func refLengths(c Config) []int {
	ns := []int{0, 1}
	for runLen := c.VecElems; ; runLen *= c.FanIn {
		ns = append(ns, runLen-1, runLen, runLen+1)
		if runLen == c.RunElems() {
			break
		}
	}
	r := c.RunElems()
	ns = append(ns, 2*r+1, 3*r, c.FanIn*r+1)
	return slices.DeleteFunc(ns, func(n int) bool { return n > maxRefElems })
}

func keysOf(v []KV) []int64 {
	keys := make([]int64, len(v))
	for i, kv := range v {
		keys[i] = kv.Key
	}
	return keys
}

// stableSorted is v ordered by key alone, equal keys in input order.
func stableSorted(v []KV) []KV {
	out := slices.Clone(v)
	slices.SortStableFunc(out, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// The kernel's counters are the cascade's, field for field, and its runs
// and output hold the cascade's key sequences, on every length at the
// cascade's edges under six configurations. Keys come dense with ties
// (one radix pass) and as random signed 64-bit words (four passes).
func TestStatsMatchCascade(t *testing.T) {
	configs := []Config{
		DefaultConfig(),
		{VecElems: 4, FanIn: 2, Layers: 2, ElemBytes: 8},
		{VecElems: 8, FanIn: 4, Layers: 1, ElemBytes: 8},
		{VecElems: 8, FanIn: 64, Layers: 3, ElemBytes: 8},
		{VecElems: 3, FanIn: 3, Layers: 2, ElemBytes: 16},
		{VecElems: 1, FanIn: 2, Layers: 1, ElemBytes: 8},
	}
	rng := rand.New(rand.NewSource(5))
	for _, cfg := range configs {
		for _, n := range refLengths(cfg) {
			for _, wide := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/n=%d/wide=%v", cfg, n, wide), func(t *testing.T) {
					input := make([]KV, n)
					for i := range input {
						input[i] = KV{Key: int64(rng.Intn(n/3 + 1)), Val: int64(i)}
						if wide {
							input[i].Key = int64(rng.Uint64())
						}
					}
					s, ref := NewStreaming(cfg), newCascade(cfg)
					runs, refRuns := s.SortRuns(slices.Clone(input)), ref.SortRuns(slices.Clone(input))
					if s.Stats() != ref.stats {
						t.Fatalf("SortRuns stats %+v, cascade %+v", s.Stats(), ref.stats)
					}
					if len(runs) != len(refRuns) {
						t.Fatalf("%d runs, cascade makes %d", len(runs), len(refRuns))
					}
					for i := range runs {
						if !slices.Equal(keysOf(runs[i]), keysOf(refRuns[i])) {
							t.Fatalf("run %d keys differ from the cascade's", i)
						}
					}
					out, refOut := s.MergeRuns(runs), ref.MergeRuns(refRuns)
					if s.Stats() != ref.stats {
						t.Fatalf("MergeRuns stats %+v, cascade %+v", s.Stats(), ref.stats)
					}
					if !slices.Equal(keysOf(out), keysOf(refOut)) {
						t.Fatal("output keys differ from the cascade's")
					}
					if !slices.Equal(out, stableSorted(input)) {
						t.Fatal("output is not the input stably sorted by key")
					}
				})
			}
		}
	}
}

// Equal keys keep their input order — within a run, across the runs
// MergeRuns folds, and on both sides of the kernel's short-run cut-off —
// where the cascade's mergers alternate sources.
func TestEqualKeysKeepInputOrder(t *testing.T) {
	for _, n := range []int{5, smallSort - 1, smallSort, 1000} {
		for _, cfg := range []Config{DefaultConfig(), {VecElems: 4, FanIn: 2, Layers: 2, ElemBytes: 8}} {
			input := make([]KV, n)
			for i := range input {
				input[i] = KV{Key: int64(i % 3), Val: int64(n - i)} // values descend
			}
			got := NewStreaming(cfg).Sort(slices.Clone(input))
			var want []KV
			for k := int64(0); k < 3; k++ {
				for _, kv := range input {
					if kv.Key == k {
						want = append(want, kv)
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %v: equal keys left input order:\n got %v\nwant %v", n, cfg, got, want)
			}
		}
	}
}

// drain collects a stream into a slice.
func drain(s Stream) []KV {
	var out []KV
	for {
		kv, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, kv)
	}
}
