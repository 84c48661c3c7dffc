package sorter

import (
	"cmp"
	"math/bits"
	"slices"
)

// Config sizes the 1 GB-Block Streaming Sorter (Fig. 15). The hardware
// instance sorts 64-byte vectors with a pipelined bitonic sorter and
// cascades three 256-to-1 merger layers, producing
// 8 × 256³ ≈ 134M-element (1 GB at 8 B/elem) sorted runs; the first two
// layers buffer in SRAM and the last in DRAM.
type Config struct {
	// VecElems is the bitonic sorter's vector size in elements.
	VecElems int
	// FanIn is each merger layer's fan-in.
	FanIn int
	// Layers is the number of merger layers.
	Layers int
	// ElemBytes is the element width for traffic accounting (8 for
	// kv<uint32,uint32>, 16 for kv<uint64,uint64>).
	ElemBytes int
}

// DefaultConfig is the hardware instance: 8-element vectors, three
// 256-to-1 layers, kv<uint32,uint32> elements.
func DefaultConfig() Config {
	return Config{VecElems: VecElems, FanIn: DefaultFanIn, Layers: 3, ElemBytes: 8}
}

// RunElems returns the sorted-run length in elements (the "1 GB block").
func (c Config) RunElems() int {
	n := c.VecElems
	for i := 0; i < c.Layers; i++ {
		n *= c.FanIn
	}
	return n
}

// Stats accumulates the sorter's data movement for the timing model.
type Stats struct {
	// ElemsIn is the number of elements streamed in.
	ElemsIn int64
	// SRAMBytes is traffic through the first Layers-1 merge layers
	// (on-chip buffers in the prototype).
	SRAMBytes int64
	// DRAMBytes is traffic through the final merge layer plus any
	// run-merging beyond one run (each element is read and written once
	// per pass).
	DRAMBytes int64
	// Runs is the number of sorted runs produced by the cascade.
	Runs int64
	// MergePasses counts multi-way merge invocations, split by buffer
	// tier — together with SRAMBytes/DRAMBytes they give the merge-layer
	// throughput per pass.
	SRAMMergePasses int64
	DRAMMergePasses int64
}

// StreamingSorter sorts unbounded streams into RunElems-sized sorted runs.
// The cascade's data movement is fixed by the element count and the
// Config, so the sorter derives its counters and sorts with one stable
// radix kernel: the cascade's key order, equal keys in input order.
type StreamingSorter struct {
	cfg   Config
	stats Stats
	buf   []KV  // the kernel's ping-pong half
	count []int // the kernel's digit histogram
}

// NewStreaming returns a sorter with the given configuration; zero fields
// fall back to the hardware defaults.
func NewStreaming(cfg Config) *StreamingSorter {
	d := DefaultConfig()
	if cfg.VecElems <= 0 {
		cfg.VecElems = d.VecElems
	}
	if cfg.FanIn <= 1 {
		cfg.FanIn = d.FanIn
	}
	if cfg.Layers <= 0 {
		cfg.Layers = d.Layers
	}
	if cfg.ElemBytes <= 0 {
		cfg.ElemBytes = d.ElemBytes
	}
	return &StreamingSorter{cfg: cfg}
}

// Stats returns the accumulated data-movement counters.
func (s *StreamingSorter) Stats() Stats { return s.stats }

// SortRuns cuts data into RunElems-sized runs in input order and sorts
// each in place (the runs alias data). Merge layer l takes runs of
// VecElems·FanIn^(l-1) elements FanIn at a time, a group of one run moving
// nothing; the last layer counts toward DRAM, the others toward SRAM.
func (s *StreamingSorter) SortRuns(data []KV) [][]KV {
	n, fan := len(data), s.cfg.FanIn
	s.stats.ElemsIn += int64(n)
	for l, runLen := 1, s.cfg.VecElems; l <= s.cfg.Layers && runLen < n; l, runLen = l+1, runLen*fan {
		runs := (n + runLen - 1) / runLen
		passes, moved := (runs+fan-1)/fan, n
		if runs%fan == 1 { // the last group is one run
			passes, moved = passes-1, (runs-1)*runLen
		}
		s.account(l == s.cfg.Layers, passes, moved)
	}
	var runs [][]KV
	for lo := 0; lo < n; lo += s.cfg.RunElems() {
		runs = append(runs, data[lo:min(lo+s.cfg.RunElems(), n)])
		s.sort(runs[len(runs)-1])
	}
	s.stats.Runs += int64(len(runs))
	return runs
}

// Sort fully sorts data. Beyond one run it folds extra merge passes through
// DRAM (the paper: "it can sort 256GB by folding the last 256-to-1 merging
// step"), each fold one more DRAM round trip per element.
func (s *StreamingSorter) Sort(data []KV) []KV {
	return s.MergeRuns(s.SortRuns(data))
}

// MergeRuns merges pre-sorted runs into one sorted slice by sorting their
// concatenation (equal keys in run order). It counts the cascade's folded
// passes from the run lengths: FanIn runs at a time through DRAM.
func (s *StreamingSorter) MergeRuns(runs [][]KV) []KV {
	if len(runs) == 1 {
		return runs[0]
	}
	lens := make([]int, len(runs))
	for i, r := range runs {
		lens[i] = len(r)
	}
	for len(lens) > 1 {
		var next []int
		for g := 0; g < len(lens); g += s.cfg.FanIn {
			total := 0
			for _, l := range lens[g:min(g+s.cfg.FanIn, len(lens))] {
				total += l
			}
			if g+1 < len(lens) { // a group of one run moves nothing
				s.account(true, 1, total)
			}
			next = append(next, total)
		}
		lens = next
	}
	out := slices.Concat(runs...)
	s.sort(out)
	return out
}

// account charges passes merges moving elems elements in all, each read
// and written once, to DRAM or to SRAM.
func (s *StreamingSorter) account(dram bool, passes, elems int) {
	bytes, merges := &s.stats.SRAMBytes, &s.stats.SRAMMergePasses
	if dram {
		bytes, merges = &s.stats.DRAMBytes, &s.stats.DRAMMergePasses
	}
	*bytes += 2 * int64(elems) * int64(s.cfg.ElemBytes)
	*merges += int64(passes)
}

// smallSort is the length below which the kernel sorts by comparison.
const smallSort = 64

// sort is the one sort kernel: a stable LSD radix sort of v by key on
// 16-bit digits of key − min, as many passes as the key span needs (one or
// two for RowID-dense join keys, four for random 63-bit keys).
func (s *StreamingSorter) sort(v []KV) {
	if len(v) < smallSort {
		slices.SortStableFunc(v, func(a, b KV) int { return cmp.Compare(a.Key, b.Key) })
		return
	}
	lo, hi := v[0].Key, v[0].Key
	for _, kv := range v {
		lo, hi = min(lo, kv.Key), max(hi, kv.Key)
	}
	span := uint64(hi) - uint64(lo)
	passes := (bits.Len64(span) + 15) / 16
	if len(s.buf) < len(v) {
		s.buf, s.count = make([]KV, len(v)), make([]int, 1<<16)
	}
	src, dst := v, s.buf[:len(v)]
	for shift := 0; shift < 16*passes; shift += 16 {
		count := s.count[:min(span>>shift, 1<<16-1)+1]
		clear(count)
		for _, kv := range src {
			count[uint16((uint64(kv.Key)-uint64(lo))>>shift)]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for _, kv := range src {
			d := uint16((uint64(kv.Key) - uint64(lo)) >> shift)
			dst[count[d]] = kv
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(v, src)
	}
}
