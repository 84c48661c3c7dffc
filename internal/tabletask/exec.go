package tabletask

import (
	"context"
	"fmt"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/regexcc"
	"aquoman/internal/sorter"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// dramCacheRowLimit bounds which gather-hop tables are cached whole in
// AQUOMAN DRAM (nation/region-sized dimensions); larger tables gather
// through random flash reads.
const dramCacheRowLimit = 4096

// TaskTrace records one task's behaviour.
type TaskTrace struct {
	Name              string
	Table             string
	Op                string
	RowsIn            int64
	RowsSelected      int64
	RowsTransformed   int64
	RowsToSwissknife  int64
	PagesRead         int64
	PagesSkipped      int64
	PagesPruned       int64
	EncBytesSaved     int64
	EncDecoded        [enc.NumCodecs]int64
	GatherFlashReads  int64
	GatherDRAMReads   int64
	SorterElems       int64
	SorterDRAMBytes   int64
	SorterSRAMBytes   int64
	SorterMergePasses int64
	MergeElems        int64
	Groups            int64
	SpilledRows       int64
	SpilledGroups     int64
	ResidentGroups    int64
	HostRows          int64
	SelectorCPs       int
	TransformerPEs    int
	// WidenedRegs marks transformations that exceeded the prototype's
	// 7-register PEs (see systolic.Config).
	WidenedRegs bool
}

// Trace accumulates a query's AQUOMAN-side behaviour.
type Trace struct {
	Tasks []TaskTrace
	// DRAMPeak is the high-water AQUOMAN DRAM footprint.
	DRAMPeak int64
}

// addReader folds one column pass's page accounting into the trace.
func (tt *TaskTrace) addReader(rs col.ReaderStats) {
	tt.PagesRead += rs.PagesRead
	tt.PagesSkipped += rs.PagesSkipped
	tt.PagesPruned += rs.PagesPruned
	tt.EncBytesSaved += rs.EncBytesSaved
	for c := range rs.EncDecoded {
		tt.EncDecoded[c] += rs.EncDecoded[c]
	}
}

// Total sums a field over tasks.
func (tr *Trace) Total(f func(*TaskTrace) int64) int64 {
	var t int64
	for i := range tr.Tasks {
		t += f(&tr.Tasks[i])
	}
	return t
}

// Executor runs Table Tasks sequentially (a single task already saturates
// flash bandwidth, Sec. V).
type Executor struct {
	Store  *col.Store
	DRAM   *mem.DRAM
	Sorter sorter.Config
	Trace  Trace

	// Ctx (optional) cancels in-flight tasks cooperatively: it is checked
	// at stage boundaries and before every flash page load, so a cancelled
	// task stops consuming flash bandwidth within one page boundary. Nil
	// never cancels. The query's obs.Lifecycle, if any, rides on it: stage
	// regions, and the registry finishTask counts into.
	Ctx context.Context

	// DisableFusion forces every task onto the staged (materializing)
	// path, even when the fused scan could run it. The differential
	// harness uses it as the oracle switch.
	DisableFusion bool

	// DeleteMasks (optional) marks MVCC-deleted base rows per table.
	// A task scanning a listed table ANDs the complement into its row
	// mask, so offloaded scans honor a delete-only snapshot overlay
	// without rewriting base pages. Tasks over masked tables never take
	// the fused path (its eligibility demands a full-table scan).
	DeleteMasks map[string]*bitvec.Mask

	cached map[string]bool // DRAM-cached gather columns
}

// ctxErr returns the executor context's error, if any.
func (e *Executor) ctxErr() error {
	if e.Ctx == nil {
		return nil
	}
	return e.Ctx.Err()
}

// NewExecutor returns an executor over the store using the given AQUOMAN
// DRAM.
func NewExecutor(store *col.Store, dram *mem.DRAM) *Executor {
	return &Executor{Store: store, DRAM: dram, Sorter: sorter.DefaultConfig(),
		cached: make(map[string]bool)}
}

// Result is a task's host-side output (empty for ToDRAM tasks).
type Result struct {
	Cols [][]int64
}

// NumRows returns the host-output row count.
func (r *Result) NumRows() int {
	if r == nil || len(r.Cols) == 0 {
		return 0
	}
	return len(r.Cols[0])
}

// Run executes one task. Every stage is one recorder region, ended on
// every return path: stage time lives in the query's obs.Lifecycle, stage
// work in the TaskTrace, and finishTask is where the two meet.
func (e *Executor) Run(t *Task) (*Result, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	tt := TaskTrace{Name: t.Name, Table: t.Table, Op: t.Op.Kind.String()}
	lc := obs.LifecycleFrom(e.Ctx)
	task := lc.Begin(obs.StateHost, "task", t.Name)
	defer func() {
		e.Trace.Tasks = append(e.Trace.Tasks, tt)
		if p := e.DRAM.Peak(); p > e.Trace.DRAMPeak {
			e.Trace.DRAMPeak = p
		}
		e.finishTask(lc.Registry(), task, &tt)
	}()

	tab, err := e.Store.Table(t.Table)
	if err != nil {
		return nil, err
	}

	// Fused path: aggregation scans run the whole pipeline in one pass
	// per 32-row vector instead of the staged flow below (see fused.go).
	if e.fusedEligible(t) {
		res, err := e.runFused(t, tab, &tt, lc)
		if err != nil {
			return nil, err
		}
		tt.HostRows = int64(res.NumRows())
		return res, nil
	}

	mask, err := e.selectRows(lc, t, tab, &tt)
	if err != nil {
		return nil, err
	}
	inputs, err := e.readInputs(lc, t, tab, mask, &tt)
	if err != nil {
		return nil, err
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	outputs, err := e.transform(lc, t, inputs, &tt)
	if err != nil {
		return nil, err
	}
	if err := e.ctxErr(); err != nil {
		return nil, err
	}
	res, err := e.operate(lc, t, tab, outputs, &tt)
	if err != nil {
		return nil, err
	}
	tt.HostRows = int64(res.NumRows())
	return res, nil
}

// selectRows is stages 1-2: the incoming mask, narrowed by the Row
// Selector and the regex accelerator.
func (e *Executor) selectRows(lc *obs.Lifecycle, t *Task, tab *col.Table, tt *TaskTrace) (*bitvec.Mask, error) {
	defer lc.Begin(obs.StateRowSel, "row-select").End()

	// 1. Incoming mask.
	loadMask := func(src MaskSource) (*bitvec.Mask, error) {
		obj, err := e.DRAM.Get(src.Name)
		if err != nil {
			return nil, err
		}
		if obj.Kind != mem.KindMask {
			return nil, fmt.Errorf("tabletask %q: maskSrc %q is not a mask", t.Name, src.Name)
		}
		m := obj.Mask
		if m.Len() != tab.NumRows {
			return nil, fmt.Errorf("tabletask %q: mask %q covers %d rows, table has %d",
				t.Name, src.Name, m.Len(), tab.NumRows)
		}
		if src.Negate {
			m = m.Clone()
			m.Not()
		}
		return m, nil
	}
	var mask *bitvec.Mask
	if t.MaskSrc.Kind == MaskDRAM {
		m, err := loadMask(t.MaskSrc)
		if err != nil {
			return nil, err
		}
		mask = m
	}
	for _, src := range t.MaskAnd {
		m, err := loadMask(src)
		if err != nil {
			return nil, err
		}
		if mask == nil {
			mask = m
		} else {
			if mask == m {
				continue
			}
			mask = mask.Clone()
			mask.And(m)
		}
	}

	// 1b. MVCC delete mask: narrow the scan to rows alive at the
	// query's snapshot before any selection work runs.
	if del := e.DeleteMasks[t.Table]; del != nil {
		if del.Len() != tab.NumRows {
			return nil, fmt.Errorf("tabletask %q: delete mask covers %d rows, table has %d",
				t.Name, del.Len(), tab.NumRows)
		}
		vis := del.Clone()
		vis.Not()
		if mask == nil {
			mask = vis
		} else {
			mask = mask.Clone()
			mask.And(vis)
		}
	}

	// 2. Row Selector.
	sel := t.RowSel
	if sel == nil {
		sel = &Program{}
	}
	mask, selStats, err := sel.RunCtx(e.Ctx, tab, mask, flash.Aquoman)
	if err != nil {
		return nil, err
	}
	tt.RowsIn = selStats.RowsIn
	tt.addReader(col.ReaderStats{PagesRead: selStats.PagesRead, PagesSkipped: selStats.PagesSkipped,
		PagesPruned: selStats.PagesPruned, EncBytesSaved: selStats.EncBytesSaved, EncDecoded: selStats.EncDecoded})
	tt.SelectorCPs = sel.NumCPs()

	// 2b. Regular-expression accelerator: pre-process string columns into
	// one-bit columns refining the mask (the heap is streamed once into
	// the 1 MB cache).
	for _, rf := range t.RegexFilters {
		if err := e.runRegexFilter(t, tab, rf, mask, tt); err != nil {
			return nil, err
		}
	}
	tt.RowsSelected = int64(mask.Count())
	return mask, nil
}

// readInputs is stage 3, the Table Reader: stream the input columns for
// the selected rows, skipping fully-masked pages, and chase the gathers.
func (e *Executor) readInputs(lc *obs.Lifecycle, t *Task, tab *col.Table, mask *bitvec.Mask, tt *TaskTrace) ([][]int64, error) {
	defer lc.Begin(obs.StateRead, "table-read").End()
	nSel := int(tt.RowsSelected)
	inputs := make([][]int64, 0, len(t.Stream)+len(t.Gathers))
	for _, name := range t.Stream {
		vals, rs, err := e.streamColumn(tab, name, mask, nSel)
		if err != nil {
			return nil, fmt.Errorf("tabletask %q: %w", t.Name, err)
		}
		tt.addReader(rs)
		inputs = append(inputs, vals)
	}
	// 3b. Gathers (RowID chases).
	for _, ga := range t.Gathers {
		vals, rs, err := e.streamColumn(tab, ga.BaseCol, mask, nSel)
		if err != nil {
			return nil, fmt.Errorf("tabletask %q gather %q: %w", t.Name, ga.Name, err)
		}
		tt.addReader(rs)
		for _, hop := range ga.Hops {
			vals, err = e.gatherHop(hop, vals, tt)
			if err != nil {
				return nil, fmt.Errorf("tabletask %q gather %q: %w", t.Name, ga.Name, err)
			}
		}
		inputs = append(inputs, vals)
	}
	return inputs, nil
}

// transform is stage 4, the Row Transformation Systolic Array.
func (e *Executor) transform(lc *obs.Lifecycle, t *Task, inputs [][]int64, tt *TaskTrace) ([][]int64, error) {
	tt.RowsTransformed = tt.RowsSelected
	if t.Transform == nil {
		return inputs, nil
	}
	defer lc.Begin(obs.StateSystolic, "transform").End()
	mapped, err := systolic.Compile(t.Transform, len(inputs), systolic.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("tabletask %q: transform: %w", t.Name, err)
	}
	tt.TransformerPEs = mapped.NumPEs()
	tt.WidenedRegs = mapped.WidenedRegs
	outputs, err := systolic.NewMachine(mapped).Transform(inputs)
	if err != nil {
		return nil, fmt.Errorf("tabletask %q: transform run: %w", t.Name, err)
	}
	return outputs, nil
}

// operate is stages 5-6: the Mask Reader applies the transformer-computed
// sub-predicate and the SQL Swissknife (or the streaming sorter) consumes
// what is left.
func (e *Executor) operate(lc *obs.Lifecycle, t *Task, tab *col.Table, outputs [][]int64, tt *TaskTrace) (*Result, error) {
	state := obs.StateSwissknife
	switch t.Op.Kind {
	case OpSort, OpMerge, OpSortMerge:
		state = obs.StateSorter
	}
	defer lc.Begin(state, "swissknife", t.Op.Kind.String()).End()
	if t.FilterOut >= 0 {
		pred := outputs[t.FilterOut]
		var kept [][]int64
		for ci, c := range outputs {
			if ci == t.FilterOut {
				continue
			}
			dst := c[:0:0]
			for r, v := range c {
				if pred[r] != 0 {
					dst = append(dst, v)
				}
			}
			kept = append(kept, dst)
		}
		outputs = kept
	}
	if len(outputs) > 0 {
		tt.RowsToSwissknife = int64(len(outputs[0]))
	}
	return e.runOperator(t, tab, outputs, tt)
}

// finishTask is the one place a task's TaskTrace becomes registry
// counters and, when the query retains spans, the task region's
// attributes; it ends the region.
func (e *Executor) finishTask(reg *obs.Registry, task obs.Region, tt *TaskTrace) {
	task.SetInt("rows_in", tt.RowsIn)
	task.SetInt("rows_selected", tt.RowsSelected)
	task.SetInt("rows_to_swissknife", tt.RowsToSwissknife)
	task.SetInt("pages_read", tt.PagesRead)
	task.SetInt("pages_skipped", tt.PagesSkipped)
	task.SetInt("pages_pruned", tt.PagesPruned)
	task.SetInt("enc_bytes_saved", tt.EncBytesSaved)
	task.SetInt("host_rows", tt.HostRows)
	task.End()
	if reg == nil {
		return
	}
	reg.Counter("tabletask_tasks_total", "op", tt.Op).Inc()
	reg.Counter("tabletask_rows_in_total").Add(tt.RowsIn)
	reg.Counter("tabletask_rows_selected_total").Add(tt.RowsSelected)
	reg.Counter("tabletask_rows_to_swissknife_total").Add(tt.RowsToSwissknife)
	reg.Counter("tabletask_pages_read_total").Add(tt.PagesRead)
	reg.Counter("tabletask_pages_skipped_total").Add(tt.PagesSkipped)
	reg.Counter("enc_pages_pruned_total").Add(tt.PagesPruned)
	reg.Counter("enc_bytes_saved_total").Add(tt.EncBytesSaved)
	for c := enc.Dict; int(c) < enc.NumCodecs; c++ {
		reg.Counter("enc_decoded_pages_total", "codec", c.String()).Add(tt.EncDecoded[c])
	}
	reg.Counter("tabletask_gather_dram_reads_total").Add(tt.GatherDRAMReads)
	reg.Counter("tabletask_gather_flash_reads_total").Add(tt.GatherFlashReads)
	reg.Counter("swissknife_groups_total").Add(tt.Groups)
	reg.Counter("swissknife_spilled_rows_total").Add(tt.SpilledRows)
	reg.Counter("swissknife_spilled_groups_total").Add(tt.SpilledGroups)
	reg.Counter("sorter_elems_total").Add(tt.SorterElems)
	reg.Counter("sorter_dram_bytes_total").Add(tt.SorterDRAMBytes)
	reg.Counter("sorter_sram_bytes_total").Add(tt.SorterSRAMBytes)
	reg.Counter("sorter_merge_passes_total").Add(tt.SorterMergePasses)
	if tt.Groups > 0 {
		reg.Histogram("swissknife_bucket_occupancy").Observe(tt.ResidentGroups)
	}
	reg.Gauge("aquoman_dram_peak_bytes").SetMax(e.DRAM.Peak())
}

// runRegexFilter applies one accelerator pattern to the mask in place.
func (e *Executor) runRegexFilter(t *Task, tab *col.Table, rf RegexFilter, mask *bitvec.Mask, tt *TaskTrace) error {
	ci, err := tab.Column(rf.Column)
	if err != nil {
		return fmt.Errorf("tabletask %q: regex filter: %w", t.Name, err)
	}
	if !regexcc.FitsAccelerator(ci.HeapBytes()) {
		return fmt.Errorf("tabletask %q: string heap of %q (%d bytes) exceeds the %d-byte regex cache",
			t.Name, rf.Column, ci.HeapBytes(), regexcc.CacheBytes)
	}
	pat := regexcc.Compile(rf.Pattern)
	// Stream the live rows' offsets (page-skipped), then resolve their
	// strings with one heap read; the trace models that read as the whole
	// heap's load into the accelerator cache.
	rows := mask.Rows()
	offs, rs, err := e.streamColumn(tab, rf.Column, mask, len(rows))
	if err != nil {
		return err
	}
	strs, err := ci.Strs(e.Ctx, offs, flash.Aquoman)
	if err != nil {
		return err
	}
	for i, s := range strs {
		if pat.Match(s) == rf.Negate {
			mask.Clear(rows[i])
		}
	}
	tt.addReader(rs)
	tt.PagesRead += (ci.HeapBytes() + flash.PageSize - 1) / flash.PageSize
	return nil
}

// RowIDCol is the implicit row-index pseudo-column (Sec. VI-D: "such a
// column is implicit and does not need to be stored in DRAM or flash");
// streaming it costs no flash traffic.
const RowIDCol = "@rowid"

// streamColumn reads one base-table column for the selected rows through
// the page buffer, honouring page skipping.
func (e *Executor) streamColumn(tab *col.Table, name string, mask *bitvec.Mask, nSel int) ([]int64, col.ReaderStats, error) {
	var none col.ReaderStats
	if name == RowIDCol {
		out := make([]int64, 0, nSel)
		mask.ForEach(func(r int) { out = append(out, int64(r)) })
		return out, none, nil
	}
	ci, err := tab.Column(name)
	if err != nil {
		return nil, none, err
	}
	r := col.NewPagedReader(ci, flash.Aquoman)
	r.SetContext(e.Ctx)
	defer r.Close()
	out := make([]int64, 0, nSel)
	var vals [bitvec.VecSize]int64
	nVecs := mask.NumVecs()
	for vec := 0; vec < nVecs; vec++ {
		if mask.VecAllZero(vec) {
			r.SkipVec(vec)
			continue
		}
		n, err := r.ReadVec(vec, vals[:])
		if err != nil {
			return nil, none, err
		}
		bits := mask.VecBits(vec)
		for j := 0; j < n; j++ {
			if bits&(1<<uint(j)) != 0 {
				out = append(out, vals[j])
			}
		}
	}
	return out, r.ReaderStats, nil
}

// gatherHop chases one RowID hop for every pending value. Small
// dimensions are cached whole in AQUOMAN DRAM; larger ones are fetched
// with one sequential masked scan of the referenced column into a
// transient DRAM table (rowid -> value), which is how the accelerator
// avoids per-row random flash reads — its DRAM exists precisely to hold
// such per-join value tables (Sec. VI-D). DRAM capacity pressure from the
// transient table raises ErrCapacity and suspends the query.
func (e *Executor) gatherHop(hop GatherHop, rows []int64, tt *TaskTrace) ([]int64, error) {
	tab, err := e.Store.Table(hop.Table)
	if err != nil {
		return nil, err
	}
	ci, err := tab.Column(hop.Column)
	if err != nil {
		return nil, err
	}
	cacheName := "cache:" + hop.Table + "/" + hop.Column
	if tab.NumRows <= dramCacheRowLimit {
		if !e.cached[cacheName] {
			vals, err := ci.ReadAllCtx(e.Ctx, flash.Aquoman)
			if err != nil {
				return nil, err
			}
			if _, err := e.DRAM.PutColumn(cacheName, vals); err != nil {
				return nil, err
			}
			e.cached[cacheName] = true
		}
		obj, err := e.DRAM.Get(cacheName)
		if err != nil {
			return nil, err
		}
		out := make([]int64, len(rows))
		for i, r := range rows {
			if r < 0 || int(r) >= len(obj.Col) {
				return nil, fmt.Errorf("gather rowid %d out of range for %s", r, hop.Table)
			}
			out[i] = obj.Col[r]
		}
		tt.GatherDRAMReads += int64(len(rows))
		return out, nil
	}

	// Referenced-row mask, then one sequential masked pass.
	refMask := bitvec.New(tab.NumRows)
	for _, r := range rows {
		if r < 0 || int(r) >= tab.NumRows {
			return nil, fmt.Errorf("gather rowid %d out of range for %s", r, hop.Table)
		}
		refMask.Set(int(r))
	}
	reader := col.NewPagedReader(ci, flash.Aquoman)
	reader.SetContext(e.Ctx)
	defer reader.Close()
	lookup := make(map[int64]int64, refMask.Count())
	var vals [bitvec.VecSize]int64
	nVecs := refMask.NumVecs()
	for vec := 0; vec < nVecs; vec++ {
		if refMask.VecAllZero(vec) {
			reader.SkipVec(vec)
			continue
		}
		n, err := reader.ReadVec(vec, vals[:])
		if err != nil {
			return nil, err
		}
		bits := refMask.VecBits(vec)
		base := vec * bitvec.VecSize
		for j := 0; j < n; j++ {
			if bits&(1<<uint(j)) != 0 {
				lookup[int64(base+j)] = vals[j]
			}
		}
	}
	tt.addReader(reader.ReaderStats)
	// The transient value table occupies AQUOMAN DRAM for the task's
	// duration: 8 bytes per referenced row (index + 4B value).
	tmpName := fmt.Sprintf("gather:%s/%s#%d", hop.Table, hop.Column, len(e.Trace.Tasks))
	if _, err := e.DRAM.PutColumn(tmpName, make([]int64, 2*len(lookup))); err != nil {
		return nil, err
	}
	defer e.DRAM.Free(tmpName)
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = lookup[r]
	}
	tt.GatherDRAMReads += int64(len(rows))
	return out, nil
}

func (e *Executor) runOperator(t *Task, tab *col.Table, outputs [][]int64, tt *TaskTrace) (*Result, error) {
	switch t.Op.Kind {
	case OpNop:
		if t.Out.Kind == ToHost {
			return &Result{Cols: outputs}, nil
		}
		kvs, err := toKVs(outputs)
		if err != nil {
			return nil, fmt.Errorf("tabletask %q: %w", t.Name, err)
		}
		if !sorter.IsSorted(kvs) {
			return nil, fmt.Errorf("tabletask %q: NOP to DRAM requires a key-sorted stream (use SORT)", t.Name)
		}
		if _, err := e.DRAM.PutKV(t.Out.Name, kvs, int64(e.Sorter.ElemBytes)); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case OpMask:
		target, err := e.Store.Table(t.Op.MaskTable)
		if err != nil {
			return nil, err
		}
		m := bitvec.New(target.NumRows)
		for _, v := range outputs[0] {
			if v < 0 || int(v) >= target.NumRows {
				return nil, fmt.Errorf("tabletask %q: rowid %d outside %q", t.Name, v, t.Op.MaskTable)
			}
			m.Set(int(v))
		}
		if _, err := e.DRAM.PutMask(t.Out.Name, m); err != nil {
			return nil, err
		}
		return &Result{}, nil

	case OpSort, OpMerge, OpSortMerge:
		return e.runSortMerge(t, tab, outputs, tt)

	case OpAggregate, OpGroupBy:
		acc, err := swissknife.NewGroupBy(t.Op.GroupCfg, t.Op.Keys, t.Op.Attrs, t.Op.Aggs)
		if err != nil {
			return nil, err
		}
		if err := acc.ConsumeCols(outputs, nil, len(outputs[0])); err != nil {
			return nil, fmt.Errorf("tabletask %q: %w", t.Name, err)
		}
		return accelResult(acc, t.Op, tt), nil

	case OpTopK:
		tk := swissknife.NewTopK(t.Op.K, sorter.VecElems)
		n := len(outputs[0])
		for r := 0; r < n; r++ {
			tk.Push(sorter.KV{Key: outputs[0][r], Val: outputs[1][r]})
		}
		top := tk.Results()
		cols := make([][]int64, 2)
		for _, kv := range top {
			cols[0] = append(cols[0], kv.Key)
			cols[1] = append(cols[1], kv.Val)
		}
		return &Result{Cols: cols}, nil

	default:
		return nil, fmt.Errorf("tabletask %q: unknown operator %d", t.Name, t.Op.Kind)
	}
}

func (e *Executor) runSortMerge(t *Task, tab *col.Table, outputs [][]int64, tt *TaskTrace) (*Result, error) {
	kvs, err := toKVs(outputs)
	if err != nil {
		return nil, fmt.Errorf("tabletask %q: %w", t.Name, err)
	}
	ss := sorter.NewStreaming(e.Sorter)
	defer func() {
		st := ss.Stats()
		tt.SorterMergePasses += st.SRAMMergePasses + st.DRAMMergePasses
	}()
	var runs [][]sorter.KV
	if t.Op.Kind == OpMerge {
		if !sorter.IsSorted(kvs) {
			return nil, fmt.Errorf("tabletask %q: MERGE input not sorted", t.Name)
		}
		runs = [][]sorter.KV{kvs}
	} else {
		runs = ss.SortRuns(kvs)
	}
	tt.SorterElems += int64(len(kvs))

	if t.Op.Kind == OpSort {
		sorted := ss.MergeRuns(runs)
		st := ss.Stats()
		tt.SorterDRAMBytes += st.DRAMBytes
		tt.SorterSRAMBytes += st.SRAMBytes
		if t.Out.Kind == ToHost {
			cols := make([][]int64, 2)
			for _, kv := range sorted {
				cols[0] = append(cols[0], kv.Key)
				cols[1] = append(cols[1], kv.Val)
			}
			return &Result{Cols: cols}, nil
		}
		if _, err := e.DRAM.PutKV(t.Out.Name, sorted, int64(e.Sorter.ElemBytes)); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}

	// MERGE / SORT_MERGE against the DRAM object. The DRAM side is
	// re-streamed once per run (Sec. VI-C: "at the cost of re-streaming
	// the first one for every 1GB of data stream").
	obj, err := e.DRAM.Get(t.Op.With)
	if err != nil {
		return nil, err
	}
	if obj.Kind != mem.KindKV {
		return nil, fmt.Errorf("tabletask %q: With %q is not a KV table", t.Name, t.Op.With)
	}
	var matched []sorter.KV
	for _, run := range runs {
		matched = append(matched, swissknife.SemiJoinSorted(run, obj.KVs)...)
		tt.MergeElems += int64(len(run)) + int64(len(obj.KVs))
		tt.SorterDRAMBytes += int64(len(obj.KVs)) * int64(e.Sorter.ElemBytes)
	}
	st := ss.Stats()
	tt.SorterDRAMBytes += st.DRAMBytes
	tt.SorterSRAMBytes += st.SRAMBytes
	if t.Op.FreeWith {
		e.DRAM.Free(t.Op.With)
	}
	switch t.Out.Kind {
	case ToHost:
		cols := make([][]int64, 2)
		for _, kv := range matched {
			cols[0] = append(cols[0], kv.Key)
			cols[1] = append(cols[1], kv.Val)
		}
		return &Result{Cols: cols}, nil
	default:
		// The matched values are RowIDs of this task's table; leave them
		// as a mask for the next task's maskSrc.
		m := bitvec.New(tab.NumRows)
		for _, kv := range matched {
			if kv.Val < 0 || int(kv.Val) >= tab.NumRows {
				return nil, fmt.Errorf("tabletask %q: matched rowid %d outside %q",
					t.Name, kv.Val, t.Table)
			}
			m.Set(int(kv.Val))
		}
		if _, err := e.DRAM.PutMask(t.Out.Name, m); err != nil {
			return nil, err
		}
		return &Result{}, nil
	}
}

func toKVs(outputs [][]int64) ([]sorter.KV, error) {
	if len(outputs) != 2 {
		return nil, fmt.Errorf("expected (key,value) stream, got %d columns", len(outputs))
	}
	kvs := make([]sorter.KV, len(outputs[0]))
	for i := range kvs {
		kvs[i] = sorter.KV{Key: outputs[0][i], Val: outputs[1][i]}
	}
	return kvs, nil
}

// accelResult is the aggregation tail of both executors (an OpAggregate
// is the zero-key group-by): the accelerator's groups, column-major, are
// the task's result, and a group-by's residency counters go to its trace.
func accelResult(acc *swissknife.GroupByAccel, op OpSpec, tt *TaskTrace) *Result {
	if op.Kind == OpGroupBy {
		st := acc.Stats()
		tt.Groups, tt.SpilledRows, tt.SpilledGroups, tt.ResidentGroups =
			st.Groups, st.SpilledRows, st.SpilledGroups, st.ResidentGroups
	}
	return &Result{Cols: acc.Columns()}
}
