package tabletask

import (
	"context"
	"fmt"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/rowsel"
	"aquoman/internal/sched"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// scanStore builds a single lineitem-shaped table under the given column
// encoding: a long-runs group key (RLE-friendly), a narrow-range quantity
// (FOR-friendly), and price/discount value columns.
func scanStore(tb testing.TB, sel enc.Selection, n int) *col.Store {
	tb.Helper()
	s := col.NewStore(flash.NewDevice())
	s.DefaultEncoding = sel
	b := s.NewTable(col.Schema{Name: "lineitem", Cols: []col.ColDef{
		{Name: "flag", Typ: col.Int32},
		{Name: "qty", Typ: col.Int32},
		{Name: "price", Typ: col.Decimal},
		{Name: "disc", Typ: col.Decimal},
	}})
	run := n/4 + 1
	for i := 0; i < n; i++ {
		b.Append(i/run, 1+i%50, int64(100+(i*7)%900), int64(i%11))
	}
	if _, err := b.Finalize(); err != nil {
		tb.Fatal(err)
	}
	return s
}

// q6ShapedTask is the TPC-H q6 pipeline shape: two predicates, two
// streamed columns, a multiply transform, and a scalar SUM.
func q6ShapedTask(qtyGT, discGT int64) *Task {
	return &Task{
		Name:  "fused-q6",
		Table: "lineitem",
		RowSel: &Program{Preds: []rowsel.ColPred{
			predGT("qty", qtyGT),
			predGT("disc", discGT),
		}},
		Stream:    []string{"price", "disc"},
		Transform: []systolic.Expr{systolic.Mul(systolic.In(0), systolic.In(1))},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       Output{Kind: ToHost},
	}
}

// q1ShapedTask is the TPC-H q1 pipeline shape: an unfiltered group-by
// with per-group SUMs over two value columns.
func q1ShapedTask() *Task {
	return &Task{
		Name:      "fused-q1",
		Table:     "lineitem",
		Stream:    []string{"flag", "qty", "price"},
		FilterOut: NoFilter,
		Op: OpSpec{Kind: OpGroupBy, Keys: 1,
			Aggs: []swissknife.AggKind{swissknife.AggSum, swissknife.AggSum}},
		Out: Output{Kind: ToHost},
	}
}

// kernelTask is the page-kernel shape: no predicates, no transform, one
// streamed encoded column, so whole RLE/FOR pages fold through
// enc.AggregatePage without expanding.
func kernelTask() *Task {
	return &Task{
		Name:      "fused-kernel",
		Table:     "lineitem",
		Stream:    []string{"qty"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       Output{Kind: ToHost},
	}
}

// fusedScanFor builds a ready-to-scan fusedScan for direct loop testing.
func fusedScanFor(tb testing.TB, e *Executor, task *Task) *fusedScan {
	tb.Helper()
	if err := task.Validate(); err != nil {
		tb.Fatal(err)
	}
	if !e.fusedEligible(task) {
		tb.Fatal("task is not fused-eligible")
	}
	tab, err := e.Store.Table(task.Table)
	if err != nil {
		tb.Fatal(err)
	}
	fs := &fusedScan{e: e, t: task, tab: tab, tt: &TaskTrace{Name: task.Name}}
	if err := fs.setup(); err != nil {
		tb.Fatal(err)
	}
	return fs
}

// The fused path's allocation gate: after one warmup pass (pool checkouts,
// group inserts, scratch growth), re-scanning the whole table through the
// fused q1/q6 pipelines performs zero heap allocations, on every codec.
// This is what lets 32 concurrent streams scale without GC churn (the
// benchmark's tabletask.fused_allocs_per_scan rung reports the same
// count). It holds straight off the device, behind a warm page cache, where
// the window fetches are all hits, and — cached=served, the way a server
// runs it — with the query's recorder on the executor's context as well, so
// every window opens its regions and every cache lookup its own; and at 2
// pages a column as at 32: the count does not depend on how many pages the
// scan touches.
func TestFusedScanZeroAllocsSteadyState(t *testing.T) {
	for _, sel := range []enc.Selection{enc.SelRaw, enc.SelDict, enc.SelRLE, enc.SelFOR} {
		for _, tc := range []struct {
			name string
			task *Task
		}{
			{"q6", q6ShapedTask(25, 5)},
			{"q1", q1ShapedTask()},
		} {
			for _, cached := range []string{"false", "true", "served"} {
				for _, rows := range []int{4096, 16 * 4096} {
					t.Run(fmt.Sprintf("%s/%s/cached=%v/rows=%d", sel, tc.name, cached, rows), func(t *testing.T) {
						s := scanStore(t, sel, rows)
						if cached != "false" {
							s.Dev.SetPageCache(sched.NewPageCache(64 << 20))
						}
						e := newExec(t, s)
						lc := servedRecorder(e, cached == "served")
						defer requireRecorded(t, lc)
						fs := fusedScanFor(t, e, tc.task)
						defer fs.close()
						if err := fs.scan(); err != nil { // warmup
							t.Fatal(err)
						}
						allocs := testing.AllocsPerRun(5, func() {
							if err := fs.scan(); err != nil {
								t.Fatal(err)
							}
						})
						if allocs != 0 {
							t.Fatalf("steady-state fused scan allocates %.1f times per pass, want 0", allocs)
						}
					})
				}
			}
		}
	}
}

// servedRecorder puts a recorder that retains nothing on the executor's
// context — what every query a server runs carries — when on is set.
func servedRecorder(e *Executor, on bool) *obs.Lifecycle {
	if !on {
		return nil
	}
	lc := obs.NewLifecycle("served")
	e.Ctx = obs.WithLifecycle(context.Background(), lc)
	return lc
}

// requireRecorded checks that a served scan's regions really ran: time
// landed in the recorder, and every region was ended.
func requireRecorded(t *testing.T, lc *obs.Lifecycle) {
	t.Helper()
	if lc != nil && (lc.Attributed() <= 0 || lc.Open() != 0) {
		t.Fatalf("served scan attributed %v with %d regions open", lc.Attributed(), lc.Open())
	}
}

// The whole-page aggregation kernel is allocation-free too: RLE runs and
// FOR deltas fold into the accelerator without ever expanding the page —
// bare, and the way a server runs it (see servedRecorder).
func TestFusedPageKernelZeroAllocs(t *testing.T) {
	for _, sel := range []enc.Selection{enc.SelRLE, enc.SelFOR} {
		t.Run(sel.String(), func(t *testing.T) {
			for _, served := range []bool{false, true} {
				t.Run(fmt.Sprintf("served=%v", served), func(t *testing.T) {
					s := scanStore(t, sel, 4096)
					if served {
						s.Dev.SetPageCache(sched.NewPageCache(64 << 20))
					}
					e := newExec(t, s)
					lc := servedRecorder(e, served)
					defer requireRecorded(t, lc)
					fs := fusedScanFor(t, e, kernelTask())
					defer fs.close()
					if !fs.pageKernelOK() {
						t.Fatal("kernel task did not qualify for the page path")
					}
					if err := fs.scanPages(); err != nil { // warmup
						t.Fatal(err)
					}
					allocs := testing.AllocsPerRun(5, func() {
						if err := fs.scanPages(); err != nil {
							t.Fatal(err)
						}
					})
					if allocs != 0 {
						t.Fatalf("page-kernel scan allocates %.1f times per pass, want 0", allocs)
					}
				})
			}
		})
	}
}

// diffTaskRuns executes one task on the fused and staged paths over the
// same store contents and requires cell-exact results plus identical
// row/page accounting.
func diffTaskRuns(t *testing.T, s *col.Store, task *Task) {
	t.Helper()
	fusedExec := newExec(t, s)
	fusedRes, err := fusedExec.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	stagedExec := newExec(t, s)
	stagedExec.DisableFusion = true
	stagedRes, err := stagedExec.Run(task)
	if err != nil {
		t.Fatal(err)
	}

	if len(fusedRes.Cols) != len(stagedRes.Cols) {
		t.Fatalf("fused %d cols, staged %d cols", len(fusedRes.Cols), len(stagedRes.Cols))
	}
	for c := range fusedRes.Cols {
		if len(fusedRes.Cols[c]) != len(stagedRes.Cols[c]) {
			t.Fatalf("col %d: fused %d rows, staged %d rows", c,
				len(fusedRes.Cols[c]), len(stagedRes.Cols[c]))
		}
		for r := range fusedRes.Cols[c] {
			if fusedRes.Cols[c][r] != stagedRes.Cols[c][r] {
				t.Fatalf("col %d row %d: fused %d, staged %d", c, r,
					fusedRes.Cols[c][r], stagedRes.Cols[c][r])
			}
		}
	}

	ft, st := fusedExec.Trace.Tasks[0], stagedExec.Trace.Tasks[0]
	type parity struct {
		name         string
		fused, stage int64
	}
	for _, p := range []parity{
		{"RowsIn", ft.RowsIn, st.RowsIn},
		{"RowsSelected", ft.RowsSelected, st.RowsSelected},
		{"RowsTransformed", ft.RowsTransformed, st.RowsTransformed},
		{"RowsToSwissknife", ft.RowsToSwissknife, st.RowsToSwissknife},
		{"PagesRead", ft.PagesRead, st.PagesRead},
		{"PagesSkipped", ft.PagesSkipped, st.PagesSkipped},
		{"PagesPruned", ft.PagesPruned, st.PagesPruned},
		{"EncBytesSaved", ft.EncBytesSaved, st.EncBytesSaved},
		{"Groups", ft.Groups, st.Groups},
		{"SpilledRows", ft.SpilledRows, st.SpilledRows},
	} {
		if p.fused != p.stage {
			t.Errorf("%s: fused %d, staged %d", p.name, p.fused, p.stage)
		}
	}
}

// FuzzFusedScan holds the fused path cell-exact against the staged
// executor over random codecs, row counts, predicate thresholds and
// pipeline shapes.
func FuzzFusedScan(f *testing.F) {
	f.Add(uint8(0), uint16(300), int64(25), int64(5), uint8(0))
	f.Add(uint8(1), uint16(77), int64(0), int64(11), uint8(1))
	f.Add(uint8(2), uint16(2048), int64(49), int64(0), uint8(2))
	f.Add(uint8(3), uint16(31), int64(-1), int64(3), uint8(0))
	f.Add(uint8(2), uint16(1025), int64(10), int64(8), uint8(2))
	f.Fuzz(func(t *testing.T, selRaw uint8, n uint16, qtyGT, discGT int64, shape uint8) {
		sel := enc.Selection(selRaw % 4)
		rows := int(n%4096) + 1
		s := scanStore(t, sel, rows)
		var task *Task
		switch shape % 3 {
		case 0:
			task = q6ShapedTask(qtyGT%60, discGT%12)
		case 1:
			task = q1ShapedTask()
		default:
			task = kernelTask()
		}
		diffTaskRuns(t, s, task)
	})
}

// Columns of different widths put window boundaries in the middle of pages:
// a reader carries the page under its cursor from one window into the next
// while the other columns' fetches reuse the Flash Page Buffer it came from.
// Straight off the device (no page cache, so windows land in the shared
// buffer), with a clustered key whose range predicate leaves later columns
// skipping most pages, the fused scan must still agree with the staged one
// cell for cell and page for page, whatever the window size.
func TestFusedMixedWidthsCarryCursorAcrossWindows(t *testing.T) {
	const n = 150000
	s := col.NewStore(flash.NewDevice())
	b := s.NewTable(col.Schema{Name: "lineitem", Cols: []col.ColDef{
		{Name: "k", Typ: col.Int64},
		{Name: "d", Typ: col.Int64},
		{Name: "p", Typ: col.Int32},
		{Name: "f", Typ: col.Bool},
	}})
	for i := 0; i < n; i++ {
		b.Append(int64(i), int64((i*7)%11), 100+(i*13)%900, i%3 == 0)
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	for _, win := range []int{flash.QueueDepth, 7, 3} {
		for _, lo := range []int64{-1, 18504, 74999, n - 40} {
			t.Run(fmt.Sprintf("window=%d/k>%d", win, lo), func(t *testing.T) {
				defer SetWindowPages(win)()
				diffTaskRuns(t, s, &Task{
					Name:  "mixed-widths",
					Table: "lineitem",
					RowSel: &Program{Preds: []rowsel.ColPred{
						predGT("k", lo),
						predGT("d", 2),
					}},
					Stream:    []string{"p", "f", "d"},
					Transform: []systolic.Expr{systolic.Mul(systolic.In(0), systolic.In(1)), systolic.In(2)},
					FilterOut: NoFilter,
					Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum, swissknife.AggSum}},
					Out:       Output{Kind: ToHost},
				})
			})
		}
	}
}
