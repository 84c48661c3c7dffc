package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/delta"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/pool"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// hostRequester is the controller-switch identity for all engine I/O.
const hostRequester = flash.Host

// Stats aggregates the work counters the timing model consumes. An engine
// runs on one goroutine; readers inspect the fields after the run.
type Stats struct {
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

func (s *Stats) work(kind string, n int64) { s.Work[kind] += n }

func (s *Stats) alloc(b *Batch) { s.allocBytes(b.Bytes()) }

func (s *Stats) allocBytes(n int64) {
	s.CurBytes += n
	if s.CurBytes > s.PeakBytes {
		s.PeakBytes = s.CurBytes
	}
	s.SumBytes += n
	s.Batches++
}

func (s *Stats) free(b *Batch) { s.CurBytes -= b.Bytes() }

// Engine executes bound plans.
type Engine struct {
	Store *col.Store
	Stats *Stats

	// overlays (optional, see SetOverlays) are per-table MVCC deltas
	// applied at scan time.
	overlays map[string]*delta.Overlay

	// ctx (optional, see SetContext) cancels execution cooperatively: it
	// is checked before and after every operator and at scan page-chunk
	// boundaries. lc is the query recorder it carries, if any: every
	// operator is one host region.
	ctx context.Context
	lc  *obs.Lifecycle
}

// New returns an engine over the store with fresh counters.
func New(store *col.Store) *Engine {
	return &Engine{Store: store, Stats: NewStats()}
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
		// ends the query here, not after the parent's work.
		if cerr := e.ctxErr(); cerr != nil {
			return nil, cerr
		}
	}
	return b, err
}

func (e *Engine) execNode(n plan.Node) (*Batch, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return e.execScan(t, nil)
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

// execScan streams the scanned columns a chunk at a time through one
// col.Scanner. pred, when set, is a filter lowered over the scan's schema:
// each chunk keeps only the rows it holds for, so Filter(Scan) never
// materializes a column whole. The overlay's deleted base rows drop out
// among the survivors, and its visible tail rows (@rowid: their stable
// ids) are evaluated in place as a last chunk. The accounting is the
// modelled MonetDB host's, which reads every column whole and then
// filters: "scan" work for every base row, and with pred a full batch
// allocated before the filtered one.
func (e *Engine) execScan(t *plan.Scan, pred systolic.Expr) (*Batch, error) {
	if t.Tab == nil {
		return nil, fmt.Errorf("engine: scan of %q not bound", t.Table)
	}
	ov, nTail, visible := e.overlays[t.Table], 0, t.Tab.NumRows
	var dead *bitvec.Mask
	if ov != nil {
		if ov.BaseRows != t.Tab.NumRows {
			return nil, fmt.Errorf("engine: overlay for %s is against %d base rows, table has %d",
				t.Table, ov.BaseRows, t.Tab.NumRows)
		}
		dead, nTail = ov.DeletedBase, ov.NumTail()
		visible += nTail - ov.NumDeleted()
	}
	cols := make([]*col.ColumnInfo, len(t.Cols))
	tail := make([][]int64, len(t.Cols))
	for i, name := range t.Cols {
		if name == plan.RowIDCol {
			if ov != nil {
				tail[i] = ov.TailRowIDs
			}
			continue
		}
		ci, err := t.Tab.Column(name)
		if err != nil {
			return nil, err
		}
		cols[i] = ci
		if nTail > 0 {
			var ok bool
			if tail[i], ok = ov.TailCols[name]; !ok {
				return nil, fmt.Errorf("engine: overlay for %s has no column %q", t.Table, name)
			}
		}
	}
	out := NewBatch(t.Schema())
	k := rowKeeper{out: out.Cols}
	if pred != nil {
		k.pred = systolic.NewEvaluator(pred)
	} else {
		for c := range out.Cols {
			out.Cols[c] = make([]int64, 0, visible)
		}
	}
	sc := col.NewScanner(e.ctx, cols, t.Tab.NumRows, hostRequester)
	defer sc.Close()
	for {
		start, n, err := sc.Next()
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
		k.keep(sc.Cols, start, n, dead)
	}
	k.keep(tail, 0, nTail, nil)
	e.Stats.work("scan", int64(t.Tab.NumRows)*int64(len(t.Cols)))
	if pred == nil {
		e.Stats.alloc(out)
		return out, nil
	}
	// The modelled host filters a whole-column batch: it is live beside
	// the survivors until the filter ends.
	full := int64(visible) * 8 * int64(len(t.Cols))
	e.Stats.work("filter", int64(visible))
	e.Stats.allocBytes(full)
	e.Stats.alloc(out)
	e.Stats.CurBytes -= full
	return out, nil
}

// rowKeeper appends the rows of a scan's chunks that its predicate (nil:
// every row) holds for to out, reusing its buffers from chunk to chunk.
type rowKeeper struct {
	out  [][]int64
	pred *systolic.Evaluator
	sel  []int
}

// keep appends the survivors among the first n rows of cols, whose first
// row is base row start; a row dead marks is no survivor.
func (k *rowKeeper) keep(cols [][]int64, start, n int, dead *bitvec.Mask) {
	all := k.pred == nil && dead == nil
	if !all {
		var ok []int64
		if k.pred != nil && n > 0 {
			ok = pool.Vals.Get(n)
			defer pool.Vals.Put(ok)
			k.pred.Eval(cols, ok)
		}
		k.sel = k.sel[:0]
		for i := 0; i < n; i++ {
			if (ok == nil || ok[i] != 0) && (dead == nil || !dead.Get(start+i)) {
				k.sel = append(k.sel, i)
			}
		}
		all = len(k.sel) == n
	}
	for c, src := range cols {
		if all {
			k.out[c] = append(k.out[c], src[:n]...)
			continue
		}
		dst := k.out[c]
		for _, r := range k.sel {
			dst = append(dst, src[r])
		}
		k.out[c] = dst
	}
}

func (e *Engine) execFilter(t *plan.Filter) (*Batch, error) {
	if s, ok := t.Input.(*plan.Scan); ok {
		if pred, err := plan.Lower(t.Pred, s.Schema()); err == nil {
			return e.execScan(s, pred)
		}
	}
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
	out := in.head(t.N)
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
	// one heap read every host string predicate uses (cancellable, device
	// time the query's); the comparator then touches memory only.
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
			strs, err := f.Src.Strs(e.ctx, keys[i].col, hostRequester)
			if err != nil {
				return nil, err
			}
			keys[i].strs = strs
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

func (e *Engine) execJoin(t *plan.Join) (*Batch, error) {
	left, err := e.exec(t.L)
	if err != nil {
		return nil, err
	}
	right, err := e.exec(t.R)
	if err != nil {
		return nil, err
	}
	lKeys := make([][]int64, len(t.LKeys))
	for i, k := range t.LKeys {
		lKeys[i] = left.Cols[left.Schema.Index(k)]
	}
	rKeys := make([][]int64, len(t.RKeys))
	for i, k := range t.RKeys {
		rKeys[i] = right.Cols[right.Schema.Index(k)]
	}
	// Build: the key table gives each right key tuple an id in
	// first-seen order, and a counting sort lays the right rows out by id,
	// in build order, so id's candidates are rows[start[id]:start[id+1]].
	tab := swissknife.NewTable(len(rKeys))
	ids := make([]int32, right.NumRows())
	tab.FindCols(rKeys, nil, 0, ids)
	built := tab.Len()
	start := make([]int32, built+1)
	for _, id := range ids {
		start[id+1]++
	}
	for id := range built {
		start[id+1] += start[id]
	}
	rows, next := make([]int, len(ids)), slices.Clone(start)
	for r, id := range ids {
		rows[next[id]] = r
		next[id]++
	}
	e.Stats.work("join_build", int64(right.NumRows()))
	e.Stats.work("join_probe", int64(left.NumRows()))

	// Lower the extra predicate over the concatenated schema once.
	var extra systolic.Expr
	if t.Extra != nil {
		combined := append(append(plan.Schema{}, left.Schema...), right.Schema...)
		extra, err = plan.Lower(t.Extra, combined)
		if err != nil {
			return nil, fmt.Errorf("engine: join extra predicate: %w", err)
		}
	}
	out := NewBatch(t.Schema())
	emit := func(lr, rr int, matched int64) {
		c := 0
		for ; c < len(left.Cols); c++ {
			out.Cols[c] = append(out.Cols[c], left.Cols[c][lr])
		}
		if t.Kind == plan.InnerJoin || t.Kind == plan.LeftMarkJoin {
			for rc := range right.Cols {
				var v int64
				if rr >= 0 {
					v = right.Cols[rc][rr]
				}
				out.Cols[c] = append(out.Cols[c], v)
				c++
			}
		}
		if t.Kind == plan.LeftMarkJoin {
			out.Cols[c] = append(out.Cols[c], matched)
		}
	}
	// decide applies the join kind to left row lr, whose candidates are
	// cands; ok[i] is the extra predicate on cands[i] (nil: no predicate).
	decide := func(lr int, cands []int, ok []int64) {
		hit := false
		for i, rr := range cands {
			if ok != nil && ok[i] == 0 {
				continue
			}
			hit = true
			switch t.Kind {
			case plan.InnerJoin, plan.LeftMarkJoin:
				emit(lr, rr, 1)
			case plan.SemiJoin:
				emit(lr, -1, 1)
				return
			case plan.AntiJoin:
				return
			}
		}
		if !hit && (t.Kind == plan.AntiJoin || t.Kind == plan.LeftMarkJoin) {
			emit(lr, -1, 0)
		}
	}
	// Probe in batches of consecutive left rows holding about one tile of
	// candidate pairs (a left row's candidates never split), so the extra
	// predicate runs through EvalCols over just the columns it reads.
	// A left tuple the build side lacks gets a fresh id >= built, which
	// has no candidates.
	probe := newExtraBatch(extra, left, right)
	ids = slices.Grow(ids[:0], probeBatch)[:probeBatch]
	for off, n := 0, left.NumRows(); off < n; off += probeBatch {
		batch := ids[:min(probeBatch, n-off)]
		tab.FindCols(lKeys, nil, off, batch)
		for j, id := range batch {
			var cands []int
			if int(id) < built {
				cands = rows[start[id]:start[id+1]]
			}
			if probe.add(off+j, cands) {
				probe.flush(decide)
			}
		}
	}
	probe.flush(decide)
	e.Stats.alloc(out)
	e.Stats.free(left)
	e.Stats.free(right)
	return out, nil
}

// probeBatch is the number of candidate pairs (or left rows) a join probe
// gathers before it evaluates its extra predicate: about one EvalCols tile.
const probeBatch = 1024

// extraBatch collects a join's probe results for consecutive left rows and
// evaluates the join's extra predicate over their candidate pairs at once.
type extraBatch struct {
	extra       systolic.Expr
	left, right *Batch
	refs        []int     // the concatenated-schema columns extra reads
	cols        [][]int64 // gathered pair values, indexed like the schema
	ok          []int64

	lrs   []int
	cands [][]int
	pairs int
}

func newExtraBatch(extra systolic.Expr, left, right *Batch) *extraBatch {
	x := &extraBatch{extra: extra, left: left, right: right}
	if extra != nil {
		x.cols = make([][]int64, len(left.Cols)+len(right.Cols))
		x.refs = colRefs(extra, nil)
	}
	return x
}

// add queues left row lr with its candidates and reports whether the batch
// is full.
func (x *extraBatch) add(lr int, cands []int) bool {
	x.lrs = append(x.lrs, lr)
	x.cands = append(x.cands, cands)
	x.pairs += len(cands)
	return x.pairs >= probeBatch || len(x.lrs) >= probeBatch
}

// flush evaluates the extra predicate over the queued pairs, hands every
// queued left row to decide in order, and empties the batch.
func (x *extraBatch) flush(decide func(lr int, cands []int, ok []int64)) {
	if x.extra != nil && x.pairs > 0 {
		nl := len(x.left.Cols)
		for _, c := range x.refs {
			dst := x.cols[c][:0]
			for i, lr := range x.lrs {
				for _, rr := range x.cands[i] {
					if c < nl {
						dst = append(dst, x.left.Cols[c][lr])
					} else {
						dst = append(dst, x.right.Cols[c-nl][rr])
					}
				}
			}
			x.cols[c] = dst
		}
		x.ok = slices.Grow(x.ok[:0], x.pairs)[:x.pairs]
		systolic.EvalCols(x.extra, x.cols, x.ok)
	}
	k := 0
	for i, lr := range x.lrs {
		var ok []int64
		if x.extra != nil {
			ok = x.ok[k : k+len(x.cands[i])]
		}
		decide(lr, x.cands[i], ok)
		k += len(x.cands[i])
	}
	x.lrs, x.cands, x.pairs = x.lrs[:0], x.cands[:0], 0
}

// colRefs appends to refs each input column e reads, once.
func colRefs(e systolic.Expr, refs []int) []int {
	switch n := e.(type) {
	case systolic.Col:
		if !slices.Contains(refs, n.Index) {
			refs = append(refs, n.Index)
		}
	case systolic.Bin:
		refs = colRefs(n.R, colRefs(n.L, refs))
	}
	return refs
}
