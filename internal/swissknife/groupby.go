// Package swissknife implements AQUOMAN's SQL Swissknife (Sec. VI-C,
// Fig. 11): the array of streaming operator accelerators that consume the
// Row Transformer's intermediate table — AGGREGATE, AGGREGATE_GROUPBY
// (Fig. 12: column zipper, 1024-bucket group-number hash with 16 B group
// identifiers and spill-over groups handed to the host), TOPK (Fig. 13:
// pipelined bitonic pre-sorter + daisy-chained VCAS blocks), and MERGE
// (Fig. 14: 2-to-1 vector merger + intersection engine). SORT and
// SORT_MERGE reuse the 1 GB-block streaming sorter from internal/sorter.
package swissknife

import (
	"fmt"
	"math"

	"aquoman/internal/sorter"
)

// Hardware geometry from the paper.
const (
	// GroupBuckets is the group-number hash table size.
	GroupBuckets = 1024
	// GroupIDBytes is the maximum group-identifier size.
	GroupIDBytes = 16
	// MaxAggSlots is the number of aggregate columns one slot stores.
	MaxAggSlots = 8
)

// AggKind selects one accumulator (the hardware supports sum, min, max,
// cnt; AVG is compiled to SUM+CNT and divided on the host).
type AggKind int

const (
	AggSum AggKind = iota
	AggMin
	AggMax
	AggCnt
)

func (k AggKind) String() string {
	return [...]string{"sum", "min", "max", "cnt"}[k]
}

// Identity is the accumulator's value before any row: the largest int64
// for min, the smallest for max, zero otherwise.
func (k AggKind) Identity() int64 {
	switch k {
	case AggMin:
		return math.MaxInt64
	case AggMax:
		return math.MinInt64
	}
	return 0
}

// GroupByConfig sizes the accelerator; zero values take the hardware
// defaults.
type GroupByConfig struct {
	Buckets int
	IDBytes int
}

// GroupByStats reports the hardware-model behaviour of a run.
type GroupByStats struct {
	// RowsIn counts consumed rows.
	RowsIn int64
	// Groups is the number of distinct groups seen (accelerator + host).
	Groups int64
	// SpilledRows counts rows whose group had to be accumulated by the
	// host: hash collisions with a resident group, group numbers beyond
	// the bucket count, or identifiers over 16 B (Sec. VI-E condition 3).
	SpilledRows int64
	// SpilledGroups is the number of distinct spill-over groups.
	SpilledGroups int64
	// ResidentGroups is the number of groups holding a hardware bucket
	// (bucket occupancy: ResidentGroups / Buckets is the hash-table fill).
	ResidentGroups int64
}

// GroupByAccel is the Aggregate-GroupBy accelerator. Grouping is exact,
// through a Table; the 1024-bucket / 16 B-identifier limits only decide
// which groups count as spill-over work for the host, as in the paper
// where the host keeps up with the spills (Sec. VI-E). Residency is
// accounting, settled when a group is first seen: a bucket bitmap and a
// per-group spill flag.
//
// Keys beyond the identifier capacity may be declared as dependent
// attributes (attrCount): they are stored once per group and verified to
// be functionally dependent on the key columns.
type GroupByAccel struct {
	cfg     GroupByConfig
	aggs    []AggKind
	tab     *Table
	attrs   [][]int64 // attrs[c][id]
	acc     [][]int64 // acc[a][id]
	spilled []bool    // spilled[id]: the group holds no bucket
	taken   []uint64  // bucket bitmap
	stats   GroupByStats
	attrRow []int64     // one row's attributes
	ids     [1024]int32 // one ConsumeCols tile's group ids
}

// NewGroupBy returns an accelerator grouping on keyCount leading values,
// carrying attrCount dependent attributes, and accumulating the given
// aggregates.
func NewGroupBy(cfg GroupByConfig, keyCount, attrCount int, aggs []AggKind) (*GroupByAccel, error) {
	if cfg.Buckets <= 0 {
		cfg.Buckets = GroupBuckets
	}
	if cfg.IDBytes <= 0 {
		cfg.IDBytes = GroupIDBytes
	}
	if keyCount < 0 || attrCount < 0 || keyCount+attrCount == 0 && len(aggs) == 0 {
		return nil, fmt.Errorf("swissknife: degenerate group-by")
	}
	if len(aggs) > MaxAggSlots {
		return nil, fmt.Errorf("swissknife: %d aggregates exceed the %d slots per group",
			len(aggs), MaxAggSlots)
	}
	return &GroupByAccel{cfg: cfg, aggs: aggs, tab: NewTable(keyCount),
		attrs: make([][]int64, attrCount), acc: make([][]int64, len(aggs)),
		taken: make([]uint64, (cfg.Buckets+63)/64), attrRow: make([]int64, attrCount)}, nil
}

// Consume feeds one row: keys (grouping columns), attrs (dependent
// attribute columns), vals (aggregate inputs, one per configured AggKind).
// It allocates nothing for already-seen groups.
func (g *GroupByAccel) Consume(keys, attrs, vals []int64) error {
	if len(keys) != g.tab.width || len(attrs) != len(g.attrs) || len(vals) != len(g.aggs) {
		return fmt.Errorf("swissknife: group-by row shape (%d,%d,%d) vs configured (%d,%d,%d)",
			len(keys), len(attrs), len(vals), g.tab.width, len(g.attrs), len(g.aggs))
	}
	id, err := g.group(keys, attrs)
	if err != nil {
		return err
	}
	g.count(id, 1)
	for a, v := range vals {
		g.foldOne(a, id, 1, v, v, v)
	}
	return nil
}

// ConsumeSummary folds a whole-page summary of the single aggregate input
// column — count rows with the given sum (wrapping int64), minimum and
// maximum — into a zero-key accelerator, exactly as if every row had been
// consumed. It is the sink of the encoded-aggregation fast path, where
// SUM/MIN/MAX/COUNT come straight off an RLE or FOR page.
func (g *GroupByAccel) ConsumeSummary(count int, sum, lo, hi int64) error {
	if g.tab.width+len(g.attrs) > 0 {
		return fmt.Errorf("swissknife: page summary fed to a keyed group-by")
	}
	if count > 0 { // no rows, no group
		id, _ := g.group(nil, nil)
		g.count(id, int64(count))
		for a := range g.aggs {
			g.foldOne(a, id, int64(count), sum, lo, hi)
		}
	}
	return nil
}

// ConsumeCols feeds rows [0, n) of a columnar vector: cols holds the key
// columns, then the attribute columns, then one input column per
// aggregate, each at least n long. Row j is consumed only where keep is
// nil or keep[j] != 0 (the Row Transformer's sub-predicate column). Each
// tile of up to 1024 rows takes two passes: the first resolves every
// row's group id through the table, the second folds each aggregate's
// column in one loop, its kind decided once per tile. Steady state
// allocates nothing; an error leaves the accelerator unusable.
func (g *GroupByAccel) ConsumeCols(cols [][]int64, keep []int64, n int) error {
	nk, na := g.tab.width, len(g.attrs)
	if len(cols) != nk+na+len(g.aggs) {
		return fmt.Errorf("swissknife: group-by has %d columns, configured %d+%d+%d",
			len(cols), nk, na, len(g.aggs))
	}
	for off := 0; off < n; off += len(g.ids) {
		ids := g.ids[:min(len(g.ids), n-off)]
		before := g.tab.Len()
		g.stats.RowsIn += int64(g.tab.FindCols(cols[:nk], keep, off, ids))
		for id := before; id < g.tab.Len(); id++ {
			g.add(int32(id))
		}
		for j := 0; j < len(ids) && (na > 0 || g.stats.SpilledGroups > 0); j++ {
			id := ids[j]
			if id < 0 {
				continue
			}
			for c := range g.attrRow {
				g.attrRow[c] = cols[nk+c][off+j]
			}
			if err := g.attrsOf(id, g.attrRow); err != nil {
				return err
			}
			if g.spilled[id] {
				g.stats.SpilledRows++
			}
		}
		for a, kind := range g.aggs {
			Fold(kind, g.acc[a], cols[nk+na+a][off:], ids)
		}
	}
	return nil
}

// group returns the id of one row's group, creating it on first sight.
func (g *GroupByAccel) group(key, attrs []int64) (int32, error) {
	id, added := g.tab.Find(key)
	if added {
		g.add(id)
	}
	return id, g.attrsOf(id, attrs)
}

// attrsOf stores the dependent attributes of group id's first row and
// verifies every later row's. New groups reach it in id order, so a
// group's first row is the one that finds nothing stored.
func (g *GroupByAccel) attrsOf(id int32, attrs []int64) error {
	if len(attrs) > 0 && int(id) == len(g.attrs[0]) {
		for c, a := range attrs {
			g.attrs[c] = append(g.attrs[c], a)
		}
		return nil
	}
	for c, a := range attrs {
		if g.attrs[c][id] != a {
			return fmt.Errorf("swissknife: attribute %d not functionally dependent on group key", c)
		}
	}
	return nil
}

// add extends the accumulators for first-seen group id and decides its
// hardware residency: the group takes a bucket only if its identifier
// fits, fewer groups than buckets are resident, and no resident group
// owns its hash bucket.
func (g *GroupByAccel) add(id int32) {
	for a, kind := range g.aggs {
		g.acc[a] = append(g.acc[a], kind.Identity())
	}
	h, fits := g.identifierHash(id)
	b := h % uint32(g.cfg.Buckets)
	word, bit := b/64, uint64(1)<<(b%64)
	resident := fits && g.stats.ResidentGroups < int64(g.cfg.Buckets) && g.taken[word]&bit == 0
	if resident {
		g.taken[word] |= bit
		g.stats.ResidentGroups++
	} else {
		g.stats.SpilledGroups++
	}
	g.spilled = append(g.spilled, !resident)
}

// identifierHash is fnv32 over group id's 16 B identifier, each key value
// packed into 4 little-endian bytes. fits is false when a value does not
// fit 4 bytes or the identifier exceeds the configured size (such groups
// always spill).
func (g *GroupByAccel) identifierHash(id int32) (h uint32, fits bool) {
	if g.tab.width*4 > g.cfg.IDBytes {
		return 0, false
	}
	h = 2166136261
	for _, col := range g.tab.keys {
		k := col[id]
		if k > math.MaxInt32 || k < math.MinInt32 {
			return 0, false
		}
		for u, b := uint32(k), 0; b < 4; u, b = u>>8, b+1 {
			h = (h ^ u&0xff) * 16777619
		}
	}
	return h, true
}

// count charges rows consumed rows of group id to the counters.
func (g *GroupByAccel) count(id int32, rows int64) {
	g.stats.RowsIn += rows
	if g.spilled[id] {
		g.stats.SpilledRows += rows
	}
}

// foldOne folds rows rows with the given sum, minimum and maximum into
// aggregate a of group id: one row of value v is (1, v, v, v).
func (g *GroupByAccel) foldOne(a int, id int32, rows, sum, lo, hi int64) {
	acc := g.acc[a]
	switch g.aggs[a] {
	case AggSum:
		acc[id] += sum
	case AggMin:
		acc[id] = min(acc[id], lo)
	case AggMax:
		acc[id] = max(acc[id], hi)
	case AggCnt:
		acc[id] += rows
	}
}

// Fold accumulates row j's value vals[j] into acc[ids[j]] for every row
// with a group (ids[j] >= 0): one tight loop per aggregate kind. AggCnt
// reads no values.
func Fold(kind AggKind, acc, vals []int64, ids []int32) {
	switch kind {
	case AggSum:
		for j, v := range vals[:len(ids)] {
			if id := ids[j]; id >= 0 {
				acc[id] += v
			}
		}
	case AggMin:
		for j, v := range vals[:len(ids)] {
			if id := ids[j]; id >= 0 && v < acc[id] {
				acc[id] = v
			}
		}
	case AggMax:
		for j, v := range vals[:len(ids)] {
			if id := ids[j]; id >= 0 && v > acc[id] {
				acc[id] = v
			}
		}
	case AggCnt:
		for _, id := range ids {
			if id >= 0 {
				acc[id]++
			}
		}
	}
}

// Columns returns the merged groups (resident + host spill-over)
// column-major in first-seen order: the key columns, then the attribute
// columns, then one column per aggregate; the slices are the
// accelerator's own. A zero-key accelerator that saw no rows still yields
// one row of zeros (SQL NULL rendered as 0).
func (g *GroupByAccel) Columns() [][]int64 {
	cols := append(append(append([][]int64(nil), g.tab.keys...), g.attrs...), g.acc...)
	if g.tab.width+len(g.attrs) == 0 && g.tab.Len() == 0 {
		for c := range cols {
			cols[c] = []int64{0}
		}
	}
	return cols
}

// Results returns the groups row-major, in the order and layout of
// Columns.
func (g *GroupByAccel) Results() (rows [][]int64) {
	cols := g.Columns()
	for id := 0; id < g.tab.Len(); id++ {
		row := make([]int64, len(cols))
		for c, col := range cols {
			row[c] = col[id]
		}
		rows = append(rows, row)
	}
	return rows
}

// Stats returns the hardware-model counters.
func (g *GroupByAccel) Stats() GroupByStats {
	s := g.stats
	s.Groups = int64(g.tab.Len())
	return s
}

// Aggregate is the scalar (group-less) accelerator: the zero-key
// GroupByAccel.
type Aggregate struct{ *GroupByAccel }

// NewAggregate accumulates the given aggregates over the whole stream.
func NewAggregate(aggs []AggKind) (*Aggregate, error) {
	g, err := NewGroupBy(GroupByConfig{}, 0, 0, aggs)
	if err != nil {
		return nil, err
	}
	return &Aggregate{g}, nil
}

// Consume feeds one row of aggregate inputs.
func (a *Aggregate) Consume(vals []int64) error { return a.GroupByAccel.Consume(nil, nil, vals) }

// Result returns the accumulated aggregates (zeros over no rows).
func (a *Aggregate) Result() (aggs []int64) {
	for _, col := range a.Columns() {
		aggs = append(aggs, col[0])
	}
	return aggs
}

// SemiJoinSorted is the MERGE operator's intersection semantics: it
// returns the elements of stream whose key appears in dim. Both inputs
// must be sorted ascending by key; dim is the DRAM-resident table of a
// SORT_MERGE (typically unique primary keys). The hardware realizes this
// with a 2-to-1 vector merger whose equal-key alternation lets the
// intersection engine use a look-ahead of one; the two-pointer sweep below
// is element-wise identical.
func SemiJoinSorted(stream, dim []sorter.KV) []sorter.KV {
	out := make([]sorter.KV, 0, len(stream)/4)
	i, j := 0, 0
	for i < len(stream) && j < len(dim) {
		switch {
		case stream[i].Key < dim[j].Key:
			i++
		case stream[i].Key > dim[j].Key:
			j++
		default:
			out = append(out, stream[i])
			i++ // keep j: the next stream element may share the key
		}
	}
	return out
}
