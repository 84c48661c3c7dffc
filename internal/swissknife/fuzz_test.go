package swissknife

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// groupModel is the reference the group-by table is held to: a map from
// the packed key to a group, one row at a time, with residency decided by
// a second map from hash bucket to owner.
type groupModel struct {
	buckets, idBytes int
	nk, na           int
	aggs             []AggKind

	index   map[string]int
	groups  []*modelGroup
	owner   map[uint32]bool
	spilled int64
	stats   GroupByStats
}

type modelGroup struct {
	keys, attrs, aggs []int64
	spilled           bool
}

func (m *groupModel) consume(keys, attrs, vals []int64) error {
	m.stats.RowsIn++
	var buf []byte
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	gi, ok := m.index[string(buf)]
	if !ok {
		gi = len(m.groups)
		m.index[string(buf)] = gi
		g := &modelGroup{
			keys:  append([]int64(nil), keys...),
			attrs: append([]int64(nil), attrs...),
			aggs:  make([]int64, len(m.aggs)),
		}
		for i, k := range m.aggs {
			switch k {
			case AggMin:
				g.aggs[i] = math.MaxInt64
			case AggMax:
				g.aggs[i] = math.MinInt64
			}
		}
		var id []byte
		fits := len(keys)*4 <= m.idBytes
		for _, k := range keys {
			if k != int64(int32(k)) {
				fits = false
			}
			id = binary.LittleEndian.AppendUint32(id, uint32(k))
		}
		h := uint32(2166136261)
		for _, b := range id {
			h = (h ^ uint32(b)) * 16777619
		}
		resident := false
		if b := h % uint32(m.buckets); fits && len(m.owner) < m.buckets && !m.owner[b] {
			m.owner[b] = true
			resident = true
		}
		if !resident {
			g.spilled = true
			m.spilled++
		}
		m.groups = append(m.groups, g)
	} else {
		for i, a := range attrs {
			if m.groups[gi].attrs[i] != a {
				return fmt.Errorf("swissknife: attribute %d not functionally dependent on group key", i)
			}
		}
	}
	g := m.groups[gi]
	if g.spilled {
		m.stats.SpilledRows++
	}
	for i, k := range m.aggs {
		v := vals[i]
		switch k {
		case AggSum:
			g.aggs[i] += v
		case AggMin:
			g.aggs[i] = min(g.aggs[i], v)
		case AggMax:
			g.aggs[i] = max(g.aggs[i], v)
		case AggCnt:
			g.aggs[i]++
		}
	}
	return nil
}

func (m *groupModel) results() (rows [][]int64) {
	for _, g := range m.groups {
		row := append(append(append([]int64(nil), g.keys...), g.attrs...), g.aggs...)
		rows = append(rows, row)
	}
	return rows
}

func (m *groupModel) statsNow() GroupByStats {
	s := m.stats
	s.Groups = int64(len(m.groups))
	s.SpilledGroups = m.spilled
	s.ResidentGroups = int64(len(m.owner))
	return s
}

// fuzzKeyValues mixes small values (so groups repeat) with the int64
// extremes and values outside int32, whose identifiers spill.
var fuzzKeyValues = []int64{0, 1, 2, 3, -1, -7, 1000, math.MinInt64, math.MaxInt64,
	1 << 31, math.MinInt32 - 1, math.MaxInt32, math.MinInt32, 1 << 40}

// FuzzGroupByTable holds GroupByAccel to groupModel over interleaved
// Consume, ConsumeCols (with and without a keep column) and
// ConsumeSummary calls: 0–4 keys, dependent attributes with occasional
// functional-dependence violations, all four aggregate kinds, and 1, 3
// or 1024 buckets. The keys come from one of four regimes that drive the
// table's direct index: small values with the int64 extremes now and
// then, a small box that drifts and jumps (regrowth), a box past
// directCells (fallback), and values at the int64 edges. Results, their
// first-seen order, every GroupByStats field and the error of a
// violating row must match.
func FuzzGroupByTable(f *testing.F) {
	f.Add(int64(1), []byte{7, 4, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add(int64(2), []byte{0, 3, 2, 0, 3, 3, 1})
	f.Add(int64(3), []byte{14, 2, 1, 2, 1, 2, 1, 255})
	f.Add(int64(4), []byte{4, 1, 0, 0, 2, 2, 2})
	f.Add(int64(5), []byte{2, 8, 1, 3, 1, 1, 1, 1, 0})
	f.Add(int64(6), []byte{21, 4, 1, 1, 1, 2, 90, 1, 2, 90})
	f.Add(int64(7), []byte{2, 17, 0, 3, 1, 90, 2, 220, 1, 90})          // drifting box, 2 keys: regrows, stays direct
	f.Add(int64(8), []byte{1, 31, 1, 1, 250, 1, 250, 2, 250})           // wide box, 1 key: falls back to the hash
	f.Add(int64(9), []byte{3, 47, 2, 0, 2, 230, 0, 1, 230})             // int64 edges, 3 keys: stays direct
	f.Add(int64(10), []byte{4, 18, 0, 1, 3, 1, 255, 2, 255, 1, 255, 0}) // drifting box, 4 keys: regrows, then falls back
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		s0, s1 := next(), next()
		nk, na := s0%5, s0/5%3
		aggs := make([]AggKind, s1%5)
		for i := range aggs {
			aggs[i] = AggKind(next() % 4)
		}
		if nk+na == 0 && len(aggs) == 0 {
			aggs = []AggKind{AggSum}
		}
		buckets := []int{1, 3, 1024}[s1/5%3]
		g, err := NewGroupBy(GroupByConfig{Buckets: buckets}, nk, na, aggs)
		if err != nil {
			t.Fatal(err)
		}
		m := &groupModel{buckets: buckets, idBytes: GroupIDBytes, nk: nk, na: na, aggs: aggs,
			index: map[string]int{}, owner: map[uint32]bool{}}

		rng := rand.New(rand.NewSource(seed))
		violate := s0/15%2 == 1
		regime, base := s1/15%4, make([]int64, nk)
		key := func(c int) int64 {
			switch regime {
			case 1: // a small box that drifts, and now and then jumps
				if rng.Intn(8) == 0 {
					base[c] += int64(rng.Intn(3) - 1)
				}
				if rng.Intn(256) == 0 {
					base[c] += int64(rng.Intn(40) - 20)
				}
				return base[c] + int64(rng.Intn(4))
			case 2: // past directCells on one column, or on two together
				return int64(rng.Intn(5000) - 2500)
			case 3: // at the int64 edges, each column at its own end
				if c%2 == 0 {
					return math.MaxInt64 - int64(rng.Intn(4))
				}
				return math.MinInt64 + int64(rng.Intn(4))
			}
			v := int64(rng.Intn(4))
			if rng.Intn(4) == 0 {
				v = fuzzKeyValues[rng.Intn(len(fuzzKeyValues))]
			}
			return v
		}
		row := func(cols [][]int64, r int) {
			for c := 0; c < nk; c++ {
				cols[c][r] = key(c)
			}
			for c := 0; c < na; c++ {
				// A function of the keys, unless this input violates.
				a := int64(c) * 31
				for k := 0; k < nk; k++ {
					a = a*7 + cols[k][r]
				}
				if violate && rng.Intn(50) == 0 {
					a++
				}
				cols[nk+c][r] = a
			}
			for c := nk + na; c < len(cols); c++ {
				cols[c][r] = fuzzKeyValues[rng.Intn(len(fuzzKeyValues))] + int64(rng.Intn(100))
			}
		}
		width := nk + na + len(aggs)
		for op := 0; len(shape) > 0 && op < 64; op++ {
			var gerr, merr error
			switch kind := next() % 4; kind {
			case 0: // Consume one row
				cols := make([][]int64, width)
				for c := range cols {
					cols[c] = make([]int64, 1)
				}
				row(cols, 0)
				flat := make([]int64, width)
				for c := range cols {
					flat[c] = cols[c][0]
				}
				gerr = g.Consume(flat[:nk], flat[nk:nk+na], flat[nk+na:])
				merr = m.consume(flat[:nk], flat[nk:nk+na], flat[nk+na:])
			case 1, 2: // ConsumeCols, without and with a keep column
				n := next()
				if n >= 200 {
					n = (n - 200) * 25 // crosses tile boundaries
				}
				cols := make([][]int64, width)
				for c := range cols {
					cols[c] = make([]int64, n)
				}
				var keep []int64
				if kind == 2 {
					keep = make([]int64, n)
				}
				for r := 0; r < n; r++ {
					row(cols, r)
					if keep != nil {
						keep[r] = int64(rng.Intn(3)) - 1 // -1, 0 or 1
					}
				}
				gerr = g.ConsumeCols(cols, keep, n)
				for r := 0; r < n && merr == nil; r++ {
					if keep != nil && keep[r] == 0 {
						continue
					}
					flat := make([]int64, width)
					for c := range cols {
						flat[c] = cols[c][r]
					}
					merr = m.consume(flat[:nk], flat[nk:nk+na], flat[nk+na:])
				}
			case 3: // ConsumeSummary
				count := next() % 40
				vals := make([]int64, count)
				for i := range vals {
					vals[i] = int64(rng.Intn(1000)) - 500
				}
				var sum int64
				lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
				for _, v := range vals {
					sum += v
					lo, hi = min(lo, v), max(hi, v)
				}
				gerr = g.ConsumeSummary(count, sum, lo, hi)
				if nk+na > 0 {
					if gerr == nil {
						t.Fatal("page summary accepted by a keyed group-by")
					}
					continue
				}
				for _, v := range vals {
					in := make([]int64, len(aggs))
					for i := range in {
						in[i] = v
					}
					merr = m.consume(nil, nil, in)
				}
			}
			if fmt.Sprint(gerr) != fmt.Sprint(merr) {
				t.Fatalf("op %d: error %v, model %v", op, gerr, merr)
			}
			if gerr != nil {
				return
			}
		}
		if got, want := g.Results(), m.results(); !reflect.DeepEqual(got, want) {
			t.Fatalf("results\n got %v\nwant %v", got, want)
		}
		if got, want := g.Stats(), m.statsNow(); got != want {
			t.Fatalf("stats\n got %+v\nwant %+v", got, want)
		}
	})
}
