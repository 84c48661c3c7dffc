package tabletask

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/pool"
	"aquoman/internal/rowsel"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// The fused scan path collapses the Row Selector, Table Reader, Row
// Transformer and Swissknife passes of an aggregation task into a single
// sweep, so no intermediate column is ever materialized. The sweep is
// window-major, the way the paper's Row-Mask Vector ring is sized to the
// flash command queue: the table is cut into windows of Row Vectors on at
// most flash.QueueDepth pages across the task's columns (the 1 MB Flash
// Page Buffer). In a window each predicate column in turn has the pages
// of its live vectors fetched as one batch and is evaluated — column k's
// page set comes from the mask columns < k left — then the streamed
// columns' pages come in one batch, and each 32-row vector is streamed,
// compacted in place and transformed, and its columns go to the
// Swissknife as they stand (ConsumeCols: the one group table resolves the
// vector's group ids, then each aggregate folds its column in one loop).
// A scan waits for the device a few times per window, not once per page,
// and never reads a page the vector-at-a-time order would not have read.
//
// All scratch is checked out of pools or pre-sized at setup; the
// steady-state loop performs zero heap allocations, however many pages it
// touches (enforced by fused_test.go; the benchmark reports it as
// tabletask.fused_allocs_per_scan). Row order, page accounting and
// results are identical to the staged path — the differential oracle in
// fused_oracle_test.go holds the two paths cell-exact against each other.
//
// On encoded columns with no predicates and no transform, whole pages
// short-circuit further still: enc.AggregatePage folds COUNT/SUM/MIN/MAX
// straight off the RLE runs or FOR deltas and the page is never expanded
// (swissknife.ConsumeSummary).

// windowPages is the read window's page budget: the flash command queue's
// depth. A variable only so that tests can shrink the window to one vector
// and hold the windowed scan to the page-at-a-time read order.
var windowPages = flash.QueueDepth

// fusedEligible reports whether the task can take the fused path. The
// fused loop handles full-table aggregation scans — the shape every
// TPC-H q1/q6-style pipeline compiles to — and leaves masked, gathering,
// regex, sorting and DRAM-producing tasks to the staged path.
func (e *Executor) fusedEligible(t *Task) bool {
	if e.DisableFusion {
		return false
	}
	if t.Out.Kind != ToHost {
		return false
	}
	if t.Op.Kind != OpAggregate && t.Op.Kind != OpGroupBy {
		return false
	}
	if t.MaskSrc.Kind != MaskFull || len(t.MaskAnd) > 0 {
		return false
	}
	if e.DeleteMasks[t.Table] != nil {
		return false
	}
	if len(t.Gathers) > 0 || len(t.RegexFilters) > 0 {
		return false
	}
	return true
}

// fusedScan carries one task's fused-pass state. Everything sized here is
// per-task; the per-vector step reuses it all.
type fusedScan struct {
	e   *Executor
	t   *Task
	tab *col.Table
	tt  *TaskTrace

	mask *bitvec.Mask

	predRd []*col.PagedReader
	evals  []rowsel.VecEvaluator

	streamRd []*col.PagedReader // nil entry = @rowid pseudo-column
	machine  *systolic.Machine  // nil when the task has no transform

	acc *swissknife.GroupByAccel

	// Per-vector scratch: one read buffer per streamed column, the
	// selected lanes compacted in place in it, and the Swissknife's view of
	// the transformed vector (every output column but the sub-predicate).
	streamVals [][]int64
	compacted  [][]int64
	accCols    [][]int64

	// The read window: every column reader, the batch their page fetches
	// go out in, and — only when no page cache serves the device — the
	// Flash Page Buffer the pages land in, with how many of its page slots
	// the current window has used.
	readers  []*col.PagedReader
	batch    flash.Batch
	pageBuf  []byte
	bufPages int

	// Lifecycle attribution of the per-vector body (lc is nil when nobody
	// records): the clock is read at the stage boundaries of one live vector
	// in stageSampleEvery, and the body region's measured time is split by
	// what those samples saw.
	lc       *obs.Lifecycle
	liveVecs int
	stageNs  [len(bodyStates)]time.Duration
}

// bodyStates are the lifecycle states one live vector passes through, in
// order: stream and compact, the PE chain, the Swissknife.
var bodyStates = [...]obs.State{obs.StateRead, obs.StateSystolic, obs.StateSwissknife}

// stageSampleEvery is how many live vectors share one timed one. Timing
// every stage of every 32-row vector costs three clock reads for a
// microsecond of work, which a CPU-bound scan shows as several percent of
// wall time; one vector in eight keeps thousands of samples per scan.
const stageSampleEvery = 8

// runFused executes the whole task on the fused path. The caller has
// already validated the task and resolved the table.
func (e *Executor) runFused(t *Task, tab *col.Table, tt *TaskTrace, lc *obs.Lifecycle) (*Result, error) {
	fs := &fusedScan{e: e, t: t, tab: tab, tt: tt}
	defer fs.close()
	// Setup and finish are the task's own glue; the windows inside open the
	// stage regions, a few per flash.QueueDepth pages.
	defer lc.Begin(obs.StateHost, "fused-scan").End()
	if err := fs.setup(); err != nil {
		return nil, err
	}
	scan := fs.scan
	if fs.pageKernelOK() {
		scan = fs.scanPages
	}
	if err := scan(); err != nil {
		return nil, err
	}
	return fs.finish()
}

// setup builds the readers, evaluators, machine, accelerator and scratch,
// and runs the zone-map pre-pass. Everything allocated for the task is
// allocated here.
func (fs *fusedScan) setup() error {
	t, tab, tt := fs.t, fs.tab, fs.tt
	fs.lc = obs.LifecycleFrom(fs.e.Ctx)
	fs.mask = bitvec.NewFull(tab.NumRows)
	tt.RowsIn = int64(tab.NumRows)

	sel := t.RowSel
	if sel == nil {
		sel = &Program{}
	}
	fs.predRd = make([]*col.PagedReader, len(sel.Preds))
	fs.evals = make([]rowsel.VecEvaluator, len(sel.Preds))
	for i, cp := range sel.Preds {
		ci, err := tab.Column(cp.Column)
		if err != nil {
			return err
		}
		fs.predRd[i] = col.NewPagedReader(ci, flash.Aquoman)
		fs.predRd[i].SetContext(fs.e.Ctx)
		if err := fs.evals[i].Init(cp.Expr, ci.Enc); err != nil {
			return fmt.Errorf("tabletask %q: %w", t.Name, err)
		}
	}
	for i, cp := range sel.Preds {
		rowsel.PruneByZoneMaps(cp.Expr, fs.predRd[i], fs.mask)
	}
	tt.SelectorCPs = sel.NumCPs()

	fs.streamRd = make([]*col.PagedReader, len(t.Stream))
	for i, name := range t.Stream {
		if name == RowIDCol {
			continue
		}
		ci, err := tab.Column(name)
		if err != nil {
			return fmt.Errorf("tabletask %q: %w", t.Name, err)
		}
		fs.streamRd[i] = col.NewPagedReader(ci, flash.Aquoman)
		fs.streamRd[i].SetContext(fs.e.Ctx)
	}

	fs.readers = append(fs.readers[:0], fs.predRd...)
	for _, r := range fs.streamRd {
		if r != nil {
			fs.readers = append(fs.readers, r)
		}
	}
	if fs.e.Store.Dev.PageCache() == nil {
		fs.pageBuf = pool.Windows.Get()
	}

	nOut := len(t.Stream)
	if t.Transform != nil {
		mapped, err := systolic.Compile(t.Transform, len(t.Stream), systolic.DefaultConfig())
		if err != nil {
			return fmt.Errorf("tabletask %q: transform: %w", t.Name, err)
		}
		tt.TransformerPEs = mapped.NumPEs()
		tt.WidenedRegs = mapped.WidenedRegs
		fs.machine = systolic.NewMachine(mapped)
		nOut = len(t.Transform)
	}

	var err error
	if fs.acc, err = swissknife.NewGroupBy(t.Op.GroupCfg, t.Op.Keys, t.Op.Attrs, t.Op.Aggs); err != nil {
		return err
	}

	backing := make([]int64, len(t.Stream)*bitvec.VecSize)
	fs.streamVals = make([][]int64, len(t.Stream))
	fs.compacted = make([][]int64, len(t.Stream))
	for c := range fs.streamVals {
		fs.streamVals[c] = backing[c*bitvec.VecSize : (c+1)*bitvec.VecSize : (c+1)*bitvec.VecSize]
	}
	fs.accCols = make([][]int64, 0, nOut)
	return nil
}

// pageKernelOK reports whether the task can consume whole encoded pages
// through the aggregation kernel: nothing to filter, nothing to
// transform, one streamed column whose codec has a kernel.
func (fs *fusedScan) pageKernelOK() bool {
	t := fs.t
	if len(fs.evals) > 0 || fs.machine != nil || t.FilterOut >= 0 {
		return false
	}
	if t.Op.Kind != OpAggregate || len(t.Stream) != 1 || fs.streamRd[0] == nil {
		return false
	}
	c := fs.streamRd[0].Codec()
	return c == enc.RLE || c == enc.FOR
}

// scanPages is the whole-page fast path: SUM/COUNT/MIN/MAX fold directly
// over RLE runs and FOR deltas without expanding the page, one window of
// pages per device batch. A page the kernel refuses falls back to the
// per-vector body.
func (fs *fusedScan) scanPages() error {
	pages := fs.streamRd[0].Meta().Pages
	for p0 := 0; p0 < len(pages); p0 += windowPages {
		if err := fs.pageWindow(p0, min(p0+windowPages, len(pages))); err != nil {
			return err
		}
	}
	return nil
}

// pageWindow folds pages [p0, p1) of the one streamed column: one read
// region, since summarizing a page is a decode that never materializes and
// consuming the summary is a handful of adds (the rare refused page's
// vectors stay in it undivided).
func (fs *fusedScan) pageWindow(p0, p1 int) error {
	defer fs.lc.Begin(obs.StateRead, "page-aggregate").End()
	rd := fs.streamRd[0]
	pages := rd.Meta().Pages
	lastRow := pages[p1-1].StartRow + pages[p1-1].Count
	v0 := pages[p0].StartRow / bitvec.VecSize
	fs.recycleBuffer(v0)
	if err := fs.fetch(fs.streamRd, v0, (lastRow+bitvec.VecSize-1)/bitvec.VecSize); err != nil {
		return err
	}
	for pi := p0; pi < p1; pi++ {
		agg, ok, err := rd.PageAggregate(pi)
		if err != nil {
			return err
		}
		if !ok {
			end := pages[pi].StartRow + pages[pi].Count
			for vec := pages[pi].StartRow / bitvec.VecSize; vec*bitvec.VecSize < end; vec++ {
				if err := fs.consumeVec(vec); err != nil {
					return err
				}
			}
			continue
		}
		if err := fs.acc.ConsumeSummary(agg.Count, agg.Sum, agg.Min, agg.Max); err != nil {
			return fmt.Errorf("tabletask %q: %w", fs.t.Name, err)
		}
		fs.tt.RowsTransformed += int64(agg.Count)
	}
	return nil
}

// scan runs the window-major fused loop over the whole table.
func (fs *fusedScan) scan() error {
	nVecs := fs.mask.NumVecs()
	for v0 := 0; v0 < nVecs; {
		v1 := fs.windowEnd(v0, nVecs)
		if err := fs.selectWindow(v0, v1); err != nil {
			return err
		}
		if err := fs.streamWindow(v0, v1); err != nil {
			return err
		}
		v0 = v1
	}
	return nil
}

// windowEnd returns the end of the window that starts at Row Vector v0:
// the most vectors whose pages, summed over every column reader, fit the
// device's command queue (and so the page buffer). A window is never
// empty, whatever the column count.
func (fs *fusedScan) windowEnd(v0, nVecs int) int {
	return v0 + 1 + sort.Search(nVecs-v0-1, func(i int) bool {
		pages := 0
		for _, r := range fs.readers {
			pages += r.PageSpan(v0, v0+2+i)
		}
		return pages > windowPages
	})
}

// recycleBuffer hands the whole Flash Page Buffer to the window that starts
// at Row Vector v0. Every reader's previous window ends here, before the
// first fetch: a reader still on a page of it takes its own copy, so that
// no other column's fetch can land on bytes a cursor still points at.
func (fs *fusedScan) recycleBuffer(v0 int) {
	for _, r := range fs.readers {
		r.EndWindow(v0)
	}
	fs.bufPages = 0
}

// fetch reads, as one device batch, the pages of vectors [v0, v1) that the
// given readers will touch under the current mask, into the part of the
// page buffer this window has not used yet.
func (fs *fusedScan) fetch(readers []*col.PagedReader, v0, v1 int) error {
	var scratch []byte
	if off := fs.bufPages * flash.PageSize; off < len(fs.pageBuf) {
		scratch = fs.pageBuf[off:]
	}
	fs.batch.Reset(scratch)
	for _, r := range readers {
		if r != nil {
			r.PlanWindow(&fs.batch, v0, v1, fs.mask)
		}
	}
	fs.bufPages += fs.batch.Len()
	if err := fs.batch.Read(fs.e.Ctx, flash.Aquoman); err != nil {
		return fmt.Errorf("tabletask %q: %w", fs.t.Name, err)
	}
	for _, r := range readers {
		if r != nil {
			r.TakeWindow(&fs.batch)
		}
	}
	return nil
}

// A window is Row Vectors [v0, v1) end to end: selectWindow refines the
// mask through each predicate column in turn, then streamWindow streams and
// compacts the surviving lanes, runs them through the PE chain, applies the
// transformer sub-predicate, and feeds the Swissknife. Steady state
// allocates nothing.
func (fs *fusedScan) selectWindow(v0, v1 int) error {
	defer fs.lc.Begin(obs.StateRowSel, "row-select").End()
	mask := fs.mask
	fs.recycleBuffer(v0)
	for pi := range fs.evals {
		rd := fs.predRd[pi]
		if err := fs.fetch(fs.predRd[pi:pi+1], v0, v1); err != nil {
			return err
		}
		for vec := v0; vec < v1; vec++ {
			if mask.VecAllZero(vec) {
				rd.SkipVec(vec)
			} else if err := fs.evals[pi].EvalVec(rd, vec, mask); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamWindow fetches the streamed columns' pages and consumes the live
// vectors of [v0, v1), as one region charged to the body's states by the
// sampled stage times.
func (fs *fusedScan) streamWindow(v0, v1 int) error {
	r := fs.lc.Begin(obs.StateRead, "stream-transform-consume")
	defer func() {
		r.EndSplit(bodyStates[:], fs.stageNs[:])
		fs.stageNs = [len(bodyStates)]time.Duration{}
	}()
	if err := fs.fetch(fs.streamRd, v0, v1); err != nil {
		return err
	}
	for vec := v0; vec < v1; vec++ {
		if fs.mask.VecAllZero(vec) {
			fs.skipStreams(vec)
			continue
		}
		if err := fs.consumeVec(vec); err != nil {
			return err
		}
	}
	return nil
}

// lap adds the time since t to the sampled time of body stage i and
// returns the new stage's start.
func (fs *fusedScan) lap(i int, t time.Time) time.Time {
	now := time.Now()
	fs.stageNs[i] += now.Sub(t)
	return now
}

// consumeVec streams one live 32-row vector and carries its surviving
// lanes through compaction, the PE chain and the Swissknife; streamWindow
// owns the region a run of calls is charged to.
func (fs *fusedScan) consumeVec(vec int) error {
	sampled := fs.lc != nil && fs.liveVecs%stageSampleEvery == 0
	fs.liveVecs++
	var t time.Time
	if sampled {
		t = time.Now()
	}
	base := vec * bitvec.VecSize
	n := bitvec.VecSize
	if base+n > fs.tab.NumRows {
		n = fs.tab.NumRows - base
	}
	for c, rd := range fs.streamRd {
		if rd == nil {
			vals := fs.streamVals[c]
			for j := 0; j < n; j++ {
				vals[j] = int64(base + j)
			}
			continue
		}
		rn, err := rd.ReadVec(vec, fs.streamVals[c])
		if err != nil {
			return fmt.Errorf("tabletask %q: %w", fs.t.Name, err)
		}
		n = rn
	}
	// Compact the selected lanes in place, column by column; a vector
	// whose lanes all survive stays as it was read.
	lanes := uint32(1<<uint(n) - 1)
	live := fs.mask.VecBits(vec) & lanes
	k := n
	for c, vals := range fs.streamVals {
		if live != lanes {
			k = 0
			for b := live; b != 0; b &= b - 1 {
				vals[k] = vals[bits.TrailingZeros32(b)]
				k++
			}
		}
		fs.compacted[c] = vals[:k]
	}
	if sampled {
		t = fs.lap(0, t)
	}
	if k == 0 {
		return nil
	}

	outs := fs.compacted
	if fs.machine != nil {
		var err error
		outs, err = fs.machine.RunVec(fs.compacted)
		if err != nil {
			return fmt.Errorf("tabletask %q: transform run: %w", fs.t.Name, err)
		}
	}
	if sampled {
		t = fs.lap(1, t)
	}
	fs.tt.RowsTransformed += int64(k)

	// The Swissknife takes the vector as it stands: its output columns,
	// with the transformer's sub-predicate as the keep column.
	var keep []int64
	fs.accCols = fs.accCols[:0]
	for c, out := range outs {
		if c == fs.t.FilterOut {
			keep = out
		} else {
			fs.accCols = append(fs.accCols, out)
		}
	}
	if err := fs.acc.ConsumeCols(fs.accCols, keep, k); err != nil {
		return fmt.Errorf("tabletask %q: %w", fs.t.Name, err)
	}
	if sampled {
		fs.lap(2, t)
	}
	return nil
}

// skipStreams records a fully-masked vector on every streamed column so
// whole-page skips are accounted exactly like the staged Table Reader.
func (fs *fusedScan) skipStreams(vec int) {
	for _, r := range fs.streamRd {
		if r != nil {
			r.SkipVec(vec)
		}
	}
}

// finish folds the reader stats into the trace and materializes the
// operator result through the aggregation tail the staged path shares.
func (fs *fusedScan) finish() (*Result, error) {
	tt := fs.tt
	for _, r := range fs.predRd {
		tt.addReader(r.ReaderStats)
	}
	for _, r := range fs.streamRd {
		if r != nil {
			tt.addReader(r.ReaderStats)
		}
	}
	tt.RowsSelected = int64(fs.mask.Count())
	tt.RowsToSwissknife = fs.acc.Stats().RowsIn
	return accelResult(fs.acc, fs.t.Op, tt), nil
}

// close releases every pooled reader buffer. Idempotent.
func (fs *fusedScan) close() {
	if fs.pageBuf != nil {
		pool.Windows.Put(fs.pageBuf)
		fs.pageBuf = nil
	}
	for _, r := range fs.predRd {
		if r != nil {
			r.Close()
		}
	}
	for _, r := range fs.streamRd {
		if r != nil {
			r.Close()
		}
	}
}
