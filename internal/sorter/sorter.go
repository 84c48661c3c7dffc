// Package sorter implements AQUOMAN's hardware sort building blocks
// (Sec. VI-C, Figs. 13–15): the pipelined bitonic vector sorter, the
// Vector Compare-And-Swap engine (Algorithm 1), the 2-to-1 vector merger
// with its scheduler and intersection-friendly alternation, N-to-1 merger
// trees (binary trees of 2-to-1 mergers), and the 1 GB-Block Streaming
// Sorter that cascades three 256-to-1 merger layers (64 B → 16 KB → 4 MB →
// 1 GB runs).
// StreamingSorter derives the cascade's counters and sorts with one radix
// kernel, held in the tests to the mergers driven element by element.
//
// Everything operates on key/value pairs: the key is the sort key and the
// value carries the RowID back-pointer used by AQUOMAN's join machinery
// (Sec. VI-D). The prototype's sorter configurations (uint32/uint64 and
// kv pairs, Table IV) differ only in datapath width, which the timing
// model accounts separately.
package sorter

// KV is one sort element: a key with its RowID (or other payload) value.
type KV struct {
	Key int64
	Val int64
}

// Less orders by key, breaking ties by value so sorts are deterministic.
func (a KV) Less(b KV) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Val < b.Val
}

// VecElems is the number of elements in one hardware sort vector. The
// prototype sorts 64-byte vectors on a 512-bit datapath: 8 kv<u32,u32>
// elements per vector.
const VecElems = 8

// DefaultFanIn is the merger-tree fan-in of each streaming-sorter layer.
const DefaultFanIn = 256

// BitonicSort sorts v in ascending order using a bitonic sorting network.
// len(v) is padded virtually to the next power of two (the hardware pads
// with +inf sentinels). It mirrors the pipelined bitonic sorter feeding
// the VCAS chain and the streaming sorter.
func BitonicSort(v []KV) {
	if len(v) < 2 {
		return
	}
	n := 1
	for n < len(v) {
		n <<= 1
	}
	// The network needs a power-of-two input; pad with +inf sentinels the
	// way the hardware pads short vectors.
	work := v
	if n != len(v) {
		work = make([]KV, n)
		copy(work, v)
		const inf = int64(^uint64(0) >> 1)
		for i := len(v); i < n; i++ {
			work[i] = KV{Key: inf, Val: inf}
		}
	}
	for k := 2; k <= n; k <<= 1 {
		for j := k >> 1; j > 0; j >>= 1 {
			for i := 0; i < n; i++ {
				l := i ^ j
				if l <= i {
					continue
				}
				asc := i&k == 0
				if asc == work[l].Less(work[i]) {
					work[i], work[l] = work[l], work[i]
				}
			}
		}
	}
	if n != len(v) {
		copy(v, work)
	}
}

// VCAS is the Vector Compare-And-Swap engine: given inVec and topVec both
// sorted ascending and of equal length n, it keeps the largest n elements
// of the union in topVec (ascending) and returns the smallest n
// (ascending) as the evicted stream. Both slices are modified in place;
// the returned slice aliases inVec.
//
// The paper describes this as "n steps of compare-and-swap element-wise"
// (Algorithm 1); the element pairing that realizes it is the bitonic
// split — compare inVec[i] against topVec[n-1-i] — after which each half
// is a bitonic sequence holding exactly the correct multiset, re-sorted by
// the (pipelined, in hardware) normalization passes.
func VCAS(inVec, topVec []KV) []KV {
	if len(inVec) != len(topVec) {
		panic("sorter: VCAS length mismatch")
	}
	n := len(inVec)
	for i := 0; i < n; i++ {
		j := n - 1 - i
		if topVec[j].Less(inVec[i]) {
			inVec[i], topVec[j] = topVec[j], inVec[i]
		}
	}
	insertionSort(topVec)
	insertionSort(inVec)
	return inVec
}

func insertionSort(v []KV) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && x.Less(v[j]) {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// Stream is a pull source of sorted elements.
type Stream interface {
	// Next returns the next element, or ok == false at end of stream.
	Next() (KV, bool)
}

// SliceStream streams a slice.
type SliceStream struct {
	v []KV
	i int
}

// NewSliceStream returns a Stream over v.
func NewSliceStream(v []KV) *SliceStream { return &SliceStream{v: v} }

// Next implements Stream.
func (s *SliceStream) Next() (KV, bool) {
	if s.i >= len(s.v) {
		return KV{}, false
	}
	kv := s.v[s.i]
	s.i++
	return kv, true
}

// Merge2 is the 2-to-1 vector merger (Fig. 14): a scheduler picks the
// input whose head is smaller and feeds the VCAS engine. With duplicate
// keys it alternates sources, which lets the downstream intersection
// engine use a look-ahead of one (Sec. VI-C).
type Merge2 struct {
	a, b       Stream
	ha, hb     KV
	hasA, hasB bool
	// lastFromA tracks the alternation for equal keys.
	lastFromA bool
}

// NewMerge2 returns a merger over two sorted streams.
func NewMerge2(a, b Stream) *Merge2 {
	m := &Merge2{a: a, b: b}
	m.ha, m.hasA = a.Next()
	m.hb, m.hasB = b.Next()
	return m
}

// Next implements Stream. Source reports whether the element came from the
// first stream via the FromA return.
func (m *Merge2) Next() (KV, bool) { kv, _, ok := m.NextTagged(); return kv, ok }

// NextTagged returns the next element plus its source stream.
func (m *Merge2) NextTagged() (kv KV, fromA bool, ok bool) {
	switch {
	case !m.hasA && !m.hasB:
		return KV{}, false, false
	case !m.hasB:
		fromA = true
	case !m.hasA:
		fromA = false
	case m.ha.Key == m.hb.Key:
		// Alternate sources on equal keys.
		fromA = !m.lastFromA
	case m.ha.Key < m.hb.Key:
		fromA = true
	default:
		fromA = false
	}
	if fromA {
		kv = m.ha
		m.ha, m.hasA = m.a.Next()
	} else {
		kv = m.hb
		m.hb, m.hasB = m.b.Next()
	}
	m.lastFromA = fromA
	return kv, fromA, true
}

// MergeN merges k sorted streams through a binary tree of 2-to-1 mergers
// (the paper's 256-to-1 merger is such a tree with context-sharing VCAS
// blocks per depth). It returns the root stream and the tree depth.
func MergeN(streams []Stream) (Stream, int) {
	if len(streams) == 0 {
		return NewSliceStream(nil), 0
	}
	depth := 0
	for len(streams) > 1 {
		var next []Stream
		for i := 0; i < len(streams); i += 2 {
			if i+1 < len(streams) {
				next = append(next, NewMerge2(streams[i], streams[i+1]))
			} else {
				next = append(next, streams[i])
			}
		}
		streams = next
		depth++
	}
	return streams[0], depth
}

// IsSorted reports whether v is ascending by key.
func IsSorted(v []KV) bool {
	for i := 1; i < len(v); i++ {
		if v[i].Key < v[i-1].Key {
			return false
		}
	}
	return true
}
