package engine

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aquoman/internal/col"
	"aquoman/internal/delta"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/pool"
	"aquoman/internal/systolic"
)

// hostRequester is the controller-switch identity for all engine I/O.
const hostRequester = flash.Host

// Stats aggregates the work counters the timing model consumes. All
// mutators are internally synchronized, so worker goroutines spawned by
// SetParallelism may account concurrently; readers inspect the fields
// after the run.
type Stats struct {
	mu sync.Mutex
	// Work counts abstract row operations by kind: "scan", "filter",
	// "project", "join_build", "join_probe", "agg", "sort" (n·log n
	// units), "text" (string-heap reads), "output".
	Work map[string]int64
	// CurBytes/PeakBytes track the live intermediate footprint.
	CurBytes  int64
	PeakBytes int64
	// SumBytes and Batches summarize allocation churn (average RSS).
	SumBytes int64
	Batches  int64
}

// NewStats returns zeroed counters.
func NewStats() *Stats { return &Stats{Work: make(map[string]int64)} }

func (s *Stats) work(kind string, n int64) {
	s.mu.Lock()
	s.Work[kind] += n
	s.mu.Unlock()
}

func (s *Stats) alloc(b *Batch) {
	s.mu.Lock()
	s.CurBytes += b.Bytes()
	if s.CurBytes > s.PeakBytes {
		s.PeakBytes = s.CurBytes
	}
	s.SumBytes += b.Bytes()
	s.Batches++
	s.mu.Unlock()
}

func (s *Stats) free(b *Batch) {
	s.mu.Lock()
	s.CurBytes -= b.Bytes()
	s.mu.Unlock()
}

// Each visits every work counter under the lock.
func (s *Stats) Each(fn func(kind string, n int64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.Work {
		fn(k, v)
	}
}

// Peak returns the high-water intermediate footprint.
func (s *Stats) Peak() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.PeakBytes
}

// Engine executes bound plans.
type Engine struct {
	Store *col.Store
	Stats *Stats
	// threads is the intra-query parallelism (see SetParallelism).
	threads int

	// overlays (optional, see SetOverlays) are per-table MVCC deltas
	// applied at scan time.
	overlays map[string]*delta.Overlay

	// ctx (optional, see SetContext) cancels execution cooperatively: it
	// is checked before every operator, at scan page-chunk boundaries, and
	// at morsel boundaries of parallel sections. lc is the query recorder
	// it carries, if any: every operator is one host region (exec recursion
	// runs on one goroutine).
	ctx context.Context
	lc  *obs.Lifecycle
}

// New returns an engine over the store with fresh counters.
func New(store *col.Store) *Engine {
	return &Engine{Store: store, Stats: NewStats(), threads: 1}
}

// SetContext attaches a cancellation context: a cancelled query stops
// between operators and within scans at page-chunk granularity, ending
// its flash traffic promptly. A nil ctx (the default) never cancels.
func (e *Engine) SetContext(ctx context.Context) { e.ctx, e.lc = ctx, obs.LifecycleFrom(ctx) }

// SetOverlays attaches MVCC delta overlays: every scan of a listed
// table drops the overlay's deleted base rows and appends its visible
// tail rows, so the whole plan sees the table as of the overlay's
// snapshot epoch. Tables without an entry scan base pages untouched.
func (e *Engine) SetOverlays(ovs map[string]*delta.Overlay) { e.overlays = ovs }

// ctxErr returns the engine context's error, if any.
func (e *Engine) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// Run executes a bound plan tree and returns the result batch.
func (e *Engine) Run(n plan.Node) (*Batch, error) {
	b, err := e.exec(n)
	if err != nil {
		return nil, err
	}
	e.Stats.work("output", int64(b.NumRows()))
	return b, nil
}

// nodeLabel names a plan node for span display, in the two parts
// Lifecycle.Begin joins only when somebody will read the span.
func nodeLabel(n plan.Node) (kind, detail string) {
	switch t := n.(type) {
	case *plan.Scan:
		return "scan", t.Table
	case *plan.Filter:
		return "filter", ""
	case *plan.Project:
		return "project", ""
	case *plan.Join:
		return "join", ""
	case *plan.GroupBy:
		return "groupby", ""
	case *plan.OrderBy:
		return "orderby", ""
	case *plan.Limit:
		return "limit", ""
	case *plan.ScalarJoin:
		return "scalar-join", ""
	case *plan.Materialized:
		return "materialized", t.Label
	default:
		return "node", ""
	}
}

func (e *Engine) exec(n plan.Node) (*Batch, error) {
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	kind, detail := nodeLabel(n)
	r := e.lc.Begin(obs.StateHost, kind, detail)
	b, err := e.execNode(n)
	if b != nil {
		r.SetInt("rows_out", int64(b.NumRows()))
	}
	r.End()
	if err == nil {
		// Re-check after the node: a cancellation that landed mid-operator
		// (e.g. skipped parallel morsels) must not leak a truncated batch.
		if cerr := e.ctxErr(); cerr != nil {
			return nil, cerr
		}
	}
	return b, err
}

func (e *Engine) execNode(n plan.Node) (*Batch, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return e.execScan(t)
	case *plan.Filter:
		return e.execFilter(t)
	case *plan.Project:
		return e.execProject(t)
	case *plan.Join:
		return e.execJoin(t)
	case *plan.GroupBy:
		return e.execGroupBy(t)
	case *plan.OrderBy:
		return e.execOrderBy(t)
	case *plan.Limit:
		return e.execLimit(t)
	case *plan.ScalarJoin:
		return e.execScalarJoin(t)
	case *plan.Materialized:
		if t.Cols == nil {
			return nil, fmt.Errorf("engine: materialized node %q has no data", t.Label)
		}
		b := &Batch{Schema: t.S, Cols: t.Cols}
		e.Stats.alloc(b)
		return b, nil
	default:
		return nil, fmt.Errorf("engine: unknown node %T", n)
	}
}

func (e *Engine) execScan(t *plan.Scan) (*Batch, error) {
	if t.Tab == nil {
		return nil, fmt.Errorf("engine: scan of %q not bound", t.Table)
	}
	b := NewBatch(t.Schema())
	for i, name := range t.Cols {
		if name == plan.RowIDCol {
			ids := make([]int64, t.Tab.NumRows)
			for r := range ids {
				ids[r] = int64(r)
			}
			b.Cols[i] = ids
			continue
		}
		ci, err := t.Tab.Column(name)
		if err != nil {
			return nil, err
		}
		vals, err := ci.ReadAllCtx(e.ctx, hostRequester)
		if err != nil {
			return nil, err
		}
		b.Cols[i] = vals
	}
	if ov := e.overlays[t.Table]; ov != nil {
		if err := applyOverlay(t, b, ov); err != nil {
			return nil, err
		}
	}
	e.Stats.work("scan", int64(t.Tab.NumRows)*int64(len(t.Cols)))
	e.Stats.alloc(b)
	return b, nil
}

// applyOverlay rewrites a freshly scanned batch to the overlay's view:
// deleted base rows are dropped and visible tail rows appended. Tail
// values were validated on ingest, so they splice in as ordinary column
// values; the @rowid pseudo-column keeps base ids for surviving rows
// and carries the tail rows' stable ids after them.
func applyOverlay(t *plan.Scan, b *Batch, ov *delta.Overlay) error {
	if ov.BaseRows != t.Tab.NumRows {
		return fmt.Errorf("engine: overlay for %s is against %d base rows, table has %d",
			t.Table, ov.BaseRows, t.Tab.NumRows)
	}
	var keep []int
	if ov.NumDeleted() > 0 {
		keep = make([]int, 0, ov.BaseRows-ov.NumDeleted())
		for r := 0; r < ov.BaseRows; r++ {
			if !ov.BaseDeleted(r) {
				keep = append(keep, r)
			}
		}
	}
	for i, name := range t.Cols {
		var tail []int64
		if name == plan.RowIDCol {
			tail = ov.TailRowIDs
		} else if len(ov.TailRowIDs) > 0 {
			var ok bool
			if tail, ok = ov.TailCols[name]; !ok {
				return fmt.Errorf("engine: overlay for %s has no column %q", t.Table, name)
			}
		}
		base := b.Cols[i]
		if keep == nil && len(tail) == 0 {
			continue
		}
		var out []int64
		if keep != nil {
			out = make([]int64, 0, len(keep)+len(tail))
			for _, r := range keep {
				out = append(out, base[r])
			}
		} else {
			out = make([]int64, 0, len(base)+len(tail))
			out = append(out, base...)
		}
		b.Cols[i] = append(out, tail...)
	}
	return nil
}

func (e *Engine) execFilter(t *plan.Filter) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	pred, err := e.evalExpr(in, t.Pred)
	if err != nil {
		return nil, err
	}
	e.Stats.work("filter", int64(in.NumRows()))
	out := NewBatch(in.Schema)
	keep := 0
	for _, v := range pred {
		if v != 0 {
			keep++
		}
	}
	switch keep {
	case 0:
		// Nothing survives: empty columns, no copies.
	case len(pred):
		// Everything survives: alias the input columns (the same
		// share-don't-copy shape execLimit uses).
		copy(out.Cols, in.Cols)
	default:
		// Materialize the selection once into a pooled index so each
		// column is a dense indexed copy instead of re-testing the
		// predicate per column.
		sel := pool.Vals.Get(keep)
		j := 0
		for r, v := range pred {
			if v != 0 {
				sel[j] = int64(r)
				j++
			}
		}
		for c := range in.Cols {
			src := in.Cols[c]
			dst := make([]int64, keep)
			for i, r := range sel {
				dst[i] = src[r]
			}
			out.Cols[c] = dst
		}
		pool.Vals.Put(sel)
	}
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}

func (e *Engine) execProject(t *plan.Project) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	out := NewBatch(t.Schema())
	for i, ne := range t.Exprs {
		colVals, err := e.evalExpr(in, ne.E)
		if err != nil {
			return nil, err
		}
		out.Cols[i] = colVals
	}
	e.Stats.work("project", int64(in.NumRows())*int64(len(t.Exprs)))
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}

func (e *Engine) execLimit(t *plan.Limit) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	if in.NumRows() <= t.N {
		return in, nil
	}
	out := NewBatch(in.Schema)
	for c := range in.Cols {
		out.Cols[c] = in.Cols[c][:t.N]
	}
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}

func (e *Engine) execOrderBy(t *plan.OrderBy) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// A Text key is resolved to its strings once per input row, through the
	// heap read every host string predicate uses (cancellable, device time
	// the query's); the comparator then touches memory only.
	type keyInfo struct {
		col  []int64
		strs []string // set for a Text key
		desc bool
	}
	keys := make([]keyInfo, len(t.Keys))
	for i, k := range t.Keys {
		ci := in.Schema.Index(k.Name)
		keys[i] = keyInfo{col: in.Cols[ci], desc: k.Desc}
		if f := in.Schema[ci]; f.Typ == col.Text && f.Src != nil {
			heap, err := f.Src.NewHeapReaderCtx(e.ctx, hostRequester)
			if err != nil {
				return nil, err
			}
			keys[i].strs = make([]string, n)
			for r, off := range keys[i].col {
				keys[i].strs[r] = heap.Str(off)
			}
		}
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for _, k := range keys {
			c := cmp.Compare(k.col[ra], k.col[rb])
			if k.strs != nil {
				c = strings.Compare(k.strs[ra], k.strs[rb])
			}
			if c != 0 {
				return (c < 0) != k.desc
			}
		}
		return false
	})
	logN := int64(1)
	for m := n; m > 1; m >>= 1 {
		logN++
	}
	e.Stats.work("sort", int64(n)*logN)
	out := NewBatch(in.Schema)
	for c := range in.Cols {
		dst := make([]int64, n)
		for i, r := range idx {
			dst[i] = in.Cols[c][r]
		}
		out.Cols[c] = dst
	}
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}

func (e *Engine) execScalarJoin(t *plan.ScalarJoin) (*Batch, error) {
	sub, err := e.exec(t.Sub)
	if err != nil {
		return nil, err
	}
	if sub.NumRows() != 1 || len(sub.Cols) != 1 {
		return nil, fmt.Errorf("engine: scalar subquery produced %d rows x %d cols",
			sub.NumRows(), len(sub.Cols))
	}
	v := sub.Cols[0][0]
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	out := NewBatch(t.Schema())
	copy(out.Cols, in.Cols)
	bc := make([]int64, in.NumRows())
	for i := range bc {
		bc[i] = v
	}
	out.Cols[len(in.Cols)] = bc
	e.Stats.alloc(out)
	e.Stats.free(in)
	e.Stats.free(sub)
	return out, nil
}

// packKey serializes a key tuple for hash maps.
func packKey(buf []byte, idx []int, row int, cols [][]int64) []byte {
	buf = buf[:0]
	for _, c := range idx {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], uint64(cols[c][row]))
		buf = append(buf, tmp[:]...)
	}
	return buf
}

func (e *Engine) execJoin(t *plan.Join) (*Batch, error) {
	left, err := e.exec(t.L)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(t.R)
	if err != nil {
		return nil, err
	}
	lIdx := make([]int, len(t.LKeys))
	for i, k := range t.LKeys {
		lIdx[i] = left.Schema.Index(k)
	}
	rIdx := make([]int, len(t.RKeys))
	for i, k := range t.RKeys {
		rIdx[i] = right.Schema.Index(k)
	}
	// Build hash table on the right input.
	ht := make(map[string][]int, right.NumRows())
	var kb []byte
	for r := 0; r < right.NumRows(); r++ {
		kb = packKey(kb, rIdx, r, right.Cols)
		ht[string(kb)] = append(ht[string(kb)], r)
	}
	e.Stats.work("join_build", int64(right.NumRows()))
	e.Stats.work("join_probe", int64(left.NumRows()))

	// Lower the extra predicate over the concatenated schema once.
	var extra systolic.Expr
	combined := append(append(plan.Schema{}, left.Schema...), right.Schema...)
	if t.Extra != nil {
		extra, err = plan.Lower(t.Extra, combined)
		if err != nil {
			return nil, fmt.Errorf("engine: join extra predicate: %w", err)
		}
	}
	// Probe in parallel morsels; per-range pair lists are reassembled in
	// range order, so the output matches sequential execution exactly.
	type pair struct {
		lr, rr  int
		matched int64
	}
	n := left.NumRows()
	nWorkers := e.threads
	if nWorkers < 1 {
		nWorkers = 1
	}
	partPairs := make([][]pair, nWorkers+1)
	workers := e.parallelRanges(n, func(w, lo, hi int) {
		var kb []byte
		row := make([]int64, len(combined))
		match := func(lr, rr int) bool {
			if extra == nil {
				return true
			}
			for c := range left.Cols {
				row[c] = left.Cols[c][lr]
			}
			for c := range right.Cols {
				row[len(left.Cols)+c] = right.Cols[c][rr]
			}
			return systolic.EvalExpr(extra, row) != 0
		}
		var out []pair
		for lr := lo; lr < hi; lr++ {
			kb = packKey(kb, lIdx, lr, left.Cols)
			cands := ht[string(kb)]
			switch t.Kind {
			case plan.InnerJoin:
				for _, rr := range cands {
					if match(lr, rr) {
						out = append(out, pair{lr, rr, 1})
					}
				}
			case plan.SemiJoin:
				for _, rr := range cands {
					if match(lr, rr) {
						out = append(out, pair{lr, -1, 1})
						break
					}
				}
			case plan.AntiJoin:
				found := false
				for _, rr := range cands {
					if match(lr, rr) {
						found = true
						break
					}
				}
				if !found {
					out = append(out, pair{lr, -1, 0})
				}
			case plan.LeftMarkJoin:
				any := false
				for _, rr := range cands {
					if match(lr, rr) {
						out = append(out, pair{lr, rr, 1})
						any = true
					}
				}
				if !any {
					out = append(out, pair{lr, -1, 0})
				}
			}
		}
		partPairs[w] = out
	})
	out := NewBatch(t.Schema())
	for w := 0; w < workers; w++ {
		for _, pr := range partPairs[w] {
			c := 0
			for ; c < len(left.Cols); c++ {
				out.Cols[c] = append(out.Cols[c], left.Cols[c][pr.lr])
			}
			if t.Kind == plan.InnerJoin || t.Kind == plan.LeftMarkJoin {
				for rc := range right.Cols {
					var v int64
					if pr.rr >= 0 {
						v = right.Cols[rc][pr.rr]
					}
					out.Cols[c] = append(out.Cols[c], v)
					c++
				}
			}
			if t.Kind == plan.LeftMarkJoin {
				out.Cols[c] = append(out.Cols[c], pr.matched)
			}
		}
	}
	e.Stats.alloc(out)
	e.Stats.free(left)
	e.Stats.free(right)
	return out, nil
}
