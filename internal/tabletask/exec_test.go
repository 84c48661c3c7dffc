package tabletask

import (
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/rowsel"
	"aquoman/internal/sorter"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// retailStore reproduces the paper's Sec. III / Fig. 5 example tables.
func retailStore(t *testing.T) *col.Store {
	t.Helper()
	s := col.NewStore(flash.NewDevice())
	ib := s.NewTable(col.Schema{Name: "inventory", Cols: []col.ColDef{
		{Name: "invtID", Typ: col.Int32},
		{Name: "category", Typ: col.Dict},
	}})
	cats := []string{"Shoes", "Books", "Toys", "Shoes", "Games", "Books"}
	for i, c := range cats {
		ib.Append(100+i, c)
	}
	inv, err := ib.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	sb := s.NewTable(col.Schema{Name: "sales", Cols: []col.ColDef{
		{Name: "invtID", Typ: col.Int32},
		{Name: "saledate", Typ: col.Date},
		{Name: "price", Typ: col.Decimal},
		{Name: "discount", Typ: col.Decimal},
	}})
	type sale struct {
		invt        int
		date        string
		price, disc int64
	}
	for _, x := range []sale{
		{100, "2018-04-01", 1000, 10}, // shoes, after cut
		{101, "2018-05-01", 2000, 0},  // books, after
		{103, "2018-01-01", 3000, 0},  // shoes, before
		{103, "2018-06-01", 4000, 5},  // shoes, after
		{104, "2018-07-01", 5000, 0},  // games, after
		{105, "2018-08-01", 6000, 0},  // books, after
	} {
		sb.Append(x.invt, col.MustParseDate(x.date), x.price, x.disc)
	}
	fact, err := sb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := col.MaterializeFK(fact, "invtID", inv, "invtID"); err != nil {
		t.Fatal(err)
	}
	return s
}

func newExec(t *testing.T, s *col.Store) *Executor {
	t.Helper()
	e := NewExecutor(s, mem.New(1<<30))
	// Small sorter config so runs/merges actually happen in tests.
	e.Sorter = sorter.Config{VecElems: 4, FanIn: 4, Layers: 2, ElemBytes: 8}
	return e
}

func eqCol(t *testing.T, got []int64, want ...int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("col = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("col = %v, want %v", got, want)
		}
	}
}

// predEQ builds a single-column equality predicate.
func predEQ(column string, v int64) rowsel.ColPred {
	return rowsel.ColPred{Column: column,
		Expr: systolic.EQ(systolic.In(0), systolic.C(v)), CPs: 1}
}

func predGT(column string, v int64) rowsel.ColPred {
	return rowsel.ColPred{Column: column,
		Expr: systolic.GT(systolic.In(0), systolic.C(v)), CPs: 1}
}

// The paper's Fig. 5 program: three Table Tasks computing the join query
// "total shoe sales after 2018-03-15" through DRAM intermediates.
func TestFig5JoinProgram(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	inv, _ := s.Table("inventory")
	shoes, _ := inv.MustColumn("category").Code("Shoes")

	// Table Task 0: filter inventory by category, leave sorted
	// (invtID, rowid) pairs in AQUOMAN_MEM_0 (pk order = already sorted,
	// so NOP suffices; Sec. VI-C).
	t0 := &Task{
		Name:  "tabletask_0",
		Table: "inventory",
		RowSel: &Program{Preds: []rowsel.ColPred{
			predEQ("category", shoes),
		}},
		Stream:    []string{"invtID", RowIDCol},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpNop},
		Out:       Output{Kind: ToDRAM, Name: "AQUOMAN_MEM_0"},
	}
	if _, err := e.Run(t0); err != nil {
		t.Fatal(err)
	}
	obj, err := e.DRAM.Get("AQUOMAN_MEM_0")
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.KVs) != 2 || obj.KVs[0].Key != 100 || obj.KVs[1].Key != 103 {
		t.Fatalf("MEM_0 = %v", obj.KVs)
	}

	// Table Task 1: filter sales by date, SORT_MERGE (invtID, sales
	// rowid) with MEM_0, leave the matched-row mask in AQUOMAN_MEM_1.
	t1 := &Task{
		Name:  "tabletask_1",
		Table: "sales",
		RowSel: &Program{Preds: []rowsel.ColPred{
			predGT("saledate", col.MustParseDate("2018-03-15")),
		}},
		Stream:    []string{"invtID", RowIDCol},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpSortMerge, With: "AQUOMAN_MEM_0", FreeWith: true},
		Out:       Output{Kind: ToDRAM, Name: "AQUOMAN_MEM_1"},
	}
	if _, err := e.Run(t1); err != nil {
		t.Fatal(err)
	}
	m1, err := e.DRAM.Get("AQUOMAN_MEM_1")
	if err != nil {
		t.Fatal(err)
	}
	// Shoe sales after 2018-03-15: rows 0 (invt 100) and 3 (invt 103).
	rows := m1.Mask.Rows()
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 3 {
		t.Fatalf("MEM_1 rows = %v", rows)
	}
	// MEM_0 was consumed and garbage collected (Sec. VI-D).
	if _, err := e.DRAM.Get("AQUOMAN_MEM_0"); err == nil {
		t.Fatal("MEM_0 not freed")
	}

	// Table Task 2: aggregate price over the masked sales rows.
	t2 := &Task{
		Name:      "tabletask_2",
		Table:     "sales",
		MaskSrc:   MaskSource{Kind: MaskDRAM, Name: "AQUOMAN_MEM_1"},
		Stream:    []string{"price"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(t2)
	if err != nil {
		t.Fatal(err)
	}
	eqCol(t, res.Cols[0], 1000+4000)
	if len(e.Trace.Tasks) != 3 {
		t.Fatalf("traced %d tasks", len(e.Trace.Tasks))
	}
	if e.Trace.DRAMPeak == 0 {
		t.Fatal("DRAM peak not tracked")
	}
}

func TestAggregateTask(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	// Sum of price*(1-discount) over sales after 2018-03-15 (Fig. 1 shape).
	task := &Task{
		Name:  "agg",
		Table: "sales",
		RowSel: &Program{Preds: []rowsel.ColPred{
			predGT("saledate", col.MustParseDate("2018-03-15")),
		}},
		Stream: []string{"price", "discount"},
		Transform: []systolic.Expr{
			systolic.Div(systolic.Mul(systolic.In(0),
				systolic.Sub(systolic.C(100), systolic.In(1))), systolic.C(100)),
		},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	// after 2018-03-15: 1000*0.90 + 2000 + 4000*0.95 + 5000 + 6000 = 900+2000+3800+5000+6000
	eqCol(t, res.Cols[0], 900+2000+3800+5000+6000)
	tr := e.Trace.Tasks[0]
	if tr.RowsIn != 6 || tr.RowsSelected != 5 || tr.RowsToSwissknife != 5 {
		t.Fatalf("trace = %+v", tr)
	}
	if tr.PagesRead == 0 {
		t.Fatal("no pages read accounted")
	}
}

func TestGroupByTaskWithGather(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	// Revenue per inventory category: gather category via the FK rowid.
	task := &Task{
		Name:   "bycat",
		Table:  "sales",
		Stream: []string{"price"},
		Gathers: []Gather{{
			Name:    "category",
			BaseCol: col.RowIDColumnName("invtID"),
			Hops:    []GatherHop{{Table: "inventory", Column: "category"}},
		}},
		Transform: []systolic.Expr{systolic.In(1), systolic.In(0)}, // key, value
		FilterOut: NoFilter,
		Op: OpSpec{Kind: OpGroupBy, Keys: 1,
			Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out: Output{Kind: ToHost},
	}
	res, err := e.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	inv, _ := s.Table("inventory")
	cats, err := inv.MustColumn("category").Strs(nil, res.Cols[0], flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	byCat := map[string]int64{}
	for i, c := range cats {
		byCat[c] = res.Cols[1][i]
	}
	if byCat["Shoes"] != 1000+3000+4000 || byCat["Books"] != 2000+6000 || byCat["Games"] != 5000 {
		t.Fatalf("byCat = %v", byCat)
	}
	if e.Trace.Tasks[0].GatherDRAMReads != 6 {
		t.Fatalf("GatherDRAMReads = %d", e.Trace.Tasks[0].GatherDRAMReads)
	}
}

func TestMaskTaskAndComposition(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	// Task A: sales after 2018-03-15 -> mask over inventory rows (the
	// semijoin via materialized FK RowIDs, q4 shape).
	a := &Task{
		Name:  "sold-recently",
		Table: "sales",
		RowSel: &Program{Preds: []rowsel.ColPred{
			predGT("saledate", col.MustParseDate("2018-03-15")),
		}},
		Stream:    []string{col.RowIDColumnName("invtID")},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpMask, MaskTable: "inventory"},
		Out:       Output{Kind: ToDRAM, Name: "minv"},
	}
	if _, err := e.Run(a); err != nil {
		t.Fatal(err)
	}
	obj, _ := e.DRAM.Get("minv")
	// invt 100,101,103,104,105 sold after cut => rows 0,1,3,4,5.
	if obj.Mask.Count() != 5 || obj.Mask.Get(2) {
		t.Fatalf("mask = %v", obj.Mask.Rows())
	}
	// Task B: count shoes among recently sold inventory, composing the
	// DRAM mask with a fresh selector predicate.
	inv, _ := s.Table("inventory")
	shoes, _ := inv.MustColumn("category").Code("Shoes")
	b := &Task{
		Name:    "count-shoes",
		Table:   "inventory",
		MaskSrc: MaskSource{Kind: MaskDRAM, Name: "minv"},
		RowSel: &Program{Preds: []rowsel.ColPred{
			predEQ("category", shoes),
		}},
		Stream:    []string{"invtID"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggCnt}},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(b)
	if err != nil {
		t.Fatal(err)
	}
	eqCol(t, res.Cols[0], 2) // invt 100 and 103
	if e.Trace.Tasks[1].RowsIn != 5 {
		t.Fatalf("task B RowsIn = %d, want 5 (masked)", e.Trace.Tasks[1].RowsIn)
	}
}

func TestSortAndMergeTasks(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	// SORT task: (price desc? no — sort by price) to host.
	task := &Task{
		Name:      "sortprices",
		Table:     "sales",
		Stream:    []string{"price", "invtID"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpSort},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	eqCol(t, res.Cols[0], 1000, 2000, 3000, 4000, 5000, 6000)
	if e.Trace.Tasks[0].SorterElems != 6 {
		t.Fatalf("SorterElems = %d", e.Trace.Tasks[0].SorterElems)
	}
}

func TestSortMergeMaskOutput(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	inv, _ := s.Table("inventory")
	shoes, _ := inv.MustColumn("category").Code("Shoes")
	// Dim task: shoes (invtID, rowid-as-value) sorted by key into DRAM.
	d := &Task{
		Name:      "dim",
		Table:     "inventory",
		RowSel:    &Program{Preds: []rowsel.ColPred{predEQ("category", shoes)}},
		Stream:    []string{"invtID", "invtID"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpNop},
		Out:       Output{Kind: ToDRAM, Name: "D"},
	}
	if _, err := e.Run(d); err != nil {
		t.Fatal(err)
	}
	// Fact task: stream (invtID, fk-rowid... we need the *fact* row ids
	// as values; use the position-recovering trick: the fk rowid column
	// values are inventory rows, unusable as fact ids. Test the ToHost
	// path instead: matched (key, payload) pairs.
	f := &Task{
		Name:      "fact",
		Table:     "sales",
		Stream:    []string{"invtID", "price"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpSortMerge, With: "D", FreeWith: true},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(f)
	if err != nil {
		t.Fatal(err)
	}
	// Shoes sales: invt 100 (1000), invt 103 (3000, 4000).
	var sum int64
	for _, v := range res.Cols[1] {
		sum += v
	}
	if sum != 1000+3000+4000 {
		t.Fatalf("matched payloads = %v", res.Cols[1])
	}
	// The consumed DRAM object is garbage collected.
	if _, err := e.DRAM.Get("D"); err == nil {
		t.Fatal("With object not freed")
	}
	if e.Trace.Tasks[1].MergeElems == 0 {
		t.Fatal("merge traffic not accounted")
	}
}

func TestValidateRejectsBadTasks(t *testing.T) {
	bad := []*Task{
		{Name: "no-table", Stream: []string{"x"}, FilterOut: NoFilter},
		{Name: "no-inputs", Table: "sales", FilterOut: NoFilter},
		{Name: "mask-no-table", Table: "sales", Stream: []string{"invtID"},
			FilterOut: NoFilter, Op: OpSpec{Kind: OpMask}},
		{Name: "sort-one-col", Table: "sales", Stream: []string{"invtID"},
			FilterOut: NoFilter, Op: OpSpec{Kind: OpSort}},
		{Name: "merge-no-with", Table: "sales", Stream: []string{"invtID", "price"},
			FilterOut: NoFilter, Op: OpSpec{Kind: OpMerge}},
		{Name: "groupby-shape", Table: "sales", Stream: []string{"invtID", "price"},
			FilterOut: NoFilter, Op: OpSpec{Kind: OpGroupBy, Keys: 2,
				Aggs: []swissknife.AggKind{swissknife.AggSum}}},
		{Name: "topk-no-k", Table: "sales", Stream: []string{"invtID", "price"},
			FilterOut: NoFilter, Op: OpSpec{Kind: OpTopK}},
		{Name: "dram-no-name", Table: "sales", Stream: []string{"invtID"},
			FilterOut: NoFilter, Out: Output{Kind: ToDRAM}},
		{Name: "transform-range", Table: "sales", Stream: []string{"invtID"},
			Transform: []systolic.Expr{systolic.In(3)}, FilterOut: NoFilter},
	}
	for _, task := range bad {
		if err := task.Validate(); err == nil {
			t.Errorf("task %q validated", task.Name)
		}
	}
}

func TestTopKTask(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	task := &Task{
		Name:      "top2",
		Table:     "sales",
		Stream:    []string{"price", "invtID"},
		FilterOut: NoFilter,
		Op:        OpSpec{Kind: OpTopK, K: 2},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	eqCol(t, res.Cols[0], 6000, 5000)
	eqCol(t, res.Cols[1], 105, 104)
}

func TestPostFilter(t *testing.T) {
	s := retailStore(t)
	e := newExec(t, s)
	// Multi-column predicate the Row Selector cannot evaluate:
	// price > 100 * discount... compute in the transformer.
	task := &Task{
		Name:   "postfilter",
		Table:  "sales",
		Stream: []string{"price", "discount"},
		Transform: []systolic.Expr{
			systolic.In(0),
			systolic.GT(systolic.In(1), systolic.C(0)), // discount > 0
		},
		FilterOut: 1,
		Op:        OpSpec{Kind: OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggCnt}},
		Out:       Output{Kind: ToHost},
	}
	res, err := e.Run(task)
	if err != nil {
		t.Fatal(err)
	}
	eqCol(t, res.Cols[0], 2) // two discounted sales
	if e.Trace.Tasks[0].RowsToSwissknife != 2 {
		t.Fatalf("RowsToSwissknife = %d", e.Trace.Tasks[0].RowsToSwissknife)
	}
}
