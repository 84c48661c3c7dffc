package engine

import (
	"strings"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
)

// retailStore builds the paper's Sec. III example: an inventory dimension
// and a sales_transactions fact with a materialized FK RowID column.
func retailStore(t *testing.T) *col.Store {
	t.Helper()
	s := col.NewStore(flash.NewDevice())

	ib := s.NewTable(col.Schema{Name: "inventory", Cols: []col.ColDef{
		{Name: "invtID", Typ: col.Int64},
		{Name: "category", Typ: col.Dict},
		{Name: "productname", Typ: col.Text},
	}})
	cats := []string{"Shoes", "Books", "Toys", "Shoes", "Games"}
	for i, c := range cats {
		ib.Append(int64(100+i), c, "product-"+c)
	}
	inv, err := ib.Finalize()
	if err != nil {
		t.Fatal(err)
	}

	sb := s.NewTable(col.Schema{Name: "sales", Cols: []col.ColDef{
		{Name: "txID", Typ: col.Int64},
		{Name: "invtID", Typ: col.Int64},
		{Name: "dept", Typ: col.Dict},
		{Name: "saledate", Typ: col.Date},
		{Name: "price", Typ: col.Decimal},
		{Name: "discount", Typ: col.Decimal},
		{Name: "tax", Typ: col.Decimal},
	}})
	type sale struct {
		invt  int64
		dept  string
		date  string
		price int64
		disc  int64
		tax   int64
	}
	sales := []sale{
		{100, "east", "2018-01-05", 1000, 10, 5},
		{101, "east", "2018-03-20", 2000, 0, 5},
		{103, "west", "2018-04-01", 1500, 20, 8},
		{100, "west", "2018-02-14", 500, 0, 0},
		{104, "east", "2018-05-05", 3000, 5, 10},
		{103, "east", "2017-12-31", 800, 0, 5},
	}
	for i, x := range sales {
		sb.Append(int64(i), x.invt, x.dept, col.MustParseDate(x.date), x.price, x.disc, x.tax)
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

func run(t *testing.T, s *col.Store, n plan.Node) *Batch {
	t.Helper()
	if err := plan.Bind(n, s); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	b, err := New(s).Run(n)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return b
}

func TestScanAndRowID(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Scan{Table: "inventory", Cols: []string{"invtID", plan.RowIDCol}})
	if b.NumRows() != 5 {
		t.Fatalf("rows = %d", b.NumRows())
	}
	ids, _ := b.Col(plan.RowIDCol)
	for i, v := range ids {
		if v != int64(i) {
			t.Fatalf("rowid[%d] = %d", i, v)
		}
	}
}

func TestFilterDictEquality(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Filter{
		Input: &plan.Scan{Table: "inventory", Cols: []string{"invtID", "category"}},
		Pred:  plan.EQ(plan.C("category"), plan.S("Shoes")),
	})
	if b.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", b.NumRows())
	}
	ids, _ := b.Col("invtID")
	if ids[0] != 100 || ids[1] != 103 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestFilterDateAndArith(t *testing.T) {
	s := retailStore(t)
	// Sales after 2018-03-15 (paper Fig. 4 predicate).
	b := run(t, s, &plan.Filter{
		Input: &plan.Scan{Table: "sales", Cols: []string{"txID", "saledate"}},
		Pred:  plan.GT(plan.C("saledate"), plan.Date("2018-03-15")),
	})
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", b.NumRows())
	}
}

func TestProjectDecimalArithmetic(t *testing.T) {
	s := retailStore(t)
	// netsale = price*(1-discount), revenue = netsale*(1+tax) (Fig. 1).
	b := run(t, s, &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"price", "discount", "tax"}},
		Exprs: []plan.NamedExpr{
			{Name: "netsale", Typ: col.Decimal,
				E: plan.DecMul(plan.C("price"), plan.Sub(plan.I(100), plan.C("discount")))},
		},
	})
	vals, _ := b.Col("netsale")
	// row 0: 1000 * (100-10) / 100 = 900
	if vals[0] != 900 {
		t.Fatalf("netsale[0] = %d, want 900", vals[0])
	}
	if vals[1] != 2000 {
		t.Fatalf("netsale[1] = %d, want 2000", vals[1])
	}
}

func TestAggregateGroupBy(t *testing.T) {
	s := retailStore(t)
	// Fig. 1: net sale per department before a date.
	b := run(t, s, &plan.GroupBy{
		Input: &plan.Filter{
			Input: &plan.Scan{Table: "sales", Cols: []string{"dept", "saledate", "price", "discount"}},
			Pred:  plan.LE(plan.C("saledate"), plan.Date("2018-12-01")),
		},
		Keys: []string{"dept"},
		Aggs: []plan.AggSpec{
			{Func: plan.AggSum, Name: "netsale", Typ: col.Decimal,
				E: plan.DecMul(plan.C("price"), plan.Sub(plan.I(100), plan.C("discount")))},
			{Func: plan.AggCount, Name: "cnt"},
		},
	})
	if b.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", b.NumRows())
	}
	// east: rows 0,1,4,5 => 900+2000+2850+800 = 6550; west: 1200+500 = 1700
	got := map[string]int64{}
	depts, _ := b.Col("dept")
	nets, _ := b.Col("netsale")
	f, _ := b.Schema.Field("dept")
	names, err := f.Src.Strs(nil, depts, flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		got[name] = nets[i]
	}
	if got["east"] != 6550 || got["west"] != 1700 {
		t.Fatalf("sums = %v", got)
	}
}

func TestScalarAggregateEmptyInput(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.GroupBy{
		Input: &plan.Filter{
			Input: &plan.Scan{Table: "sales", Cols: []string{"price"}},
			Pred:  plan.GT(plan.C("price"), plan.I(1<<40)),
		},
		Aggs: []plan.AggSpec{{Func: plan.AggSum, Name: "s", E: plan.C("price")},
			{Func: plan.AggCount, Name: "n"}},
	})
	if b.NumRows() != 1 {
		t.Fatalf("rows = %d, want 1", b.NumRows())
	}
	sv, _ := b.Col("s")
	nv, _ := b.Col("n")
	if sv[0] != 0 || nv[0] != 0 {
		t.Fatalf("scalar agg = %d, %d", sv[0], nv[0])
	}
}

// The paper's Fig. 4 join: total shoe sales after 2018-03-15.
func TestInnerJoinFig4(t *testing.T) {
	s := retailStore(t)
	inv := &plan.Filter{
		Input: &plan.Scan{Table: "inventory", Cols: []string{"invtID", "category"}},
		Pred:  plan.EQ(plan.C("category"), plan.S("Shoes")),
	}
	sales := &plan.Filter{
		Input: &plan.Scan{Table: "sales", Cols: []string{"invtID", "saledate", "price"}},
		Pred:  plan.GT(plan.C("saledate"), plan.Date("2018-03-15")),
	}
	// Rename the sales join key to avoid output collision.
	salesP := &plan.Project{Input: sales, Exprs: []plan.NamedExpr{
		{Name: "s_invtID", E: plan.C("invtID")},
		{Name: "price", E: plan.C("price")},
	}}
	j := &plan.Join{Kind: plan.InnerJoin, L: salesP, R: inv,
		LKeys: []string{"s_invtID"}, RKeys: []string{"invtID"}}
	b := run(t, s, &plan.GroupBy{Input: j, Aggs: []plan.AggSpec{
		{Func: plan.AggSum, Name: "shoe_sales", E: plan.C("price"), Typ: col.Decimal},
	}})
	v, _ := b.Col("shoe_sales")
	// After 2018-03-15: row2 (invt 103 shoes, 1500), row4 (invt 104 games).
	if v[0] != 1500 {
		t.Fatalf("shoe_sales = %d, want 1500", v[0])
	}
}

func TestSemiAndAntiJoin(t *testing.T) {
	s := retailStore(t)
	scanInv := &plan.Scan{Table: "inventory", Cols: []string{"invtID", "category"}}
	sales := &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"invtID"}},
		Exprs: []plan.NamedExpr{{Name: "s_invtID", E: plan.C("invtID")}},
	}
	semi := run(t, s, &plan.Join{Kind: plan.SemiJoin, L: scanInv, R: sales,
		LKeys: []string{"invtID"}, RKeys: []string{"s_invtID"}})
	if semi.NumRows() != 4 { // 100,101,103,104 sold; 102 (Toys) not
		t.Fatalf("semi rows = %d, want 4", semi.NumRows())
	}
	scanInv2 := &plan.Scan{Table: "inventory", Cols: []string{"invtID"}}
	sales2 := &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"invtID"}},
		Exprs: []plan.NamedExpr{{Name: "s_invtID", E: plan.C("invtID")}},
	}
	anti := run(t, s, &plan.Join{Kind: plan.AntiJoin, L: scanInv2, R: sales2,
		LKeys: []string{"invtID"}, RKeys: []string{"s_invtID"}})
	ids, _ := anti.Col("invtID")
	if len(ids) != 1 || ids[0] != 102 {
		t.Fatalf("anti ids = %v, want [102]", ids)
	}
}

func TestLeftMarkJoinCounting(t *testing.T) {
	s := retailStore(t)
	inv := &plan.Scan{Table: "inventory", Cols: []string{"invtID"}}
	sales := &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"invtID"}},
		Exprs: []plan.NamedExpr{{Name: "s_invtID", E: plan.C("invtID")}},
	}
	j := &plan.Join{Kind: plan.LeftMarkJoin, L: inv, R: sales,
		LKeys: []string{"invtID"}, RKeys: []string{"s_invtID"}}
	// Count sales per item, preserving zero-sale items (q13 shape).
	g := &plan.GroupBy{Input: j, Keys: []string{"invtID"}, Aggs: []plan.AggSpec{
		{Func: plan.AggSum, Name: "n", E: plan.C(plan.MatchedCol)},
	}}
	b := run(t, s, &plan.OrderBy{Input: g, Keys: []plan.OrderKey{{Name: "invtID"}}})
	ids, _ := b.Col("invtID")
	ns, _ := b.Col("n")
	wantIDs := []int64{100, 101, 102, 103, 104}
	wantNs := []int64{2, 1, 0, 2, 1}
	for i := range wantIDs {
		if ids[i] != wantIDs[i] || ns[i] != wantNs[i] {
			t.Fatalf("row %d = (%d, %d), want (%d, %d)", i, ids[i], ns[i], wantIDs[i], wantNs[i])
		}
	}
}

func TestJoinExtraPredicate(t *testing.T) {
	s := retailStore(t)
	// Self-join sales on invtID with different departments (q21 shape).
	l := &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"txID", "invtID", "dept"}},
		Exprs: []plan.NamedExpr{
			{Name: "l_tx", E: plan.C("txID")},
			{Name: "l_invt", E: plan.C("invtID")},
			{Name: "l_dept", E: plan.C("dept")},
		},
	}
	r := &plan.Project{
		Input: &plan.Scan{Table: "sales", Cols: []string{"invtID", "dept"}},
		Exprs: []plan.NamedExpr{
			{Name: "r_invt", E: plan.C("invtID")},
			{Name: "r_dept", E: plan.C("dept")},
		},
	}
	j := &plan.Join{Kind: plan.SemiJoin, L: l, R: r,
		LKeys: []string{"l_invt"}, RKeys: []string{"r_invt"},
		Extra: plan.NE(plan.C("l_dept"), plan.C("r_dept"))}
	b := run(t, s, j)
	// invt 100 sold in east+west (tx 0 and 3 qualify); invt 103 east+west
	// (tx 2, 5). Others single-dept.
	if b.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", b.NumRows())
	}
}

func TestOrderByLimitAndText(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Limit{N: 2, Input: &plan.OrderBy{
		Input: &plan.Scan{Table: "inventory", Cols: []string{"invtID", "productname"}},
		Keys:  []plan.OrderKey{{Name: "productname"}, {Name: "invtID", Desc: true}},
	}})
	if b.NumRows() != 2 {
		t.Fatalf("rows = %d", b.NumRows())
	}
	ids, _ := b.Col("invtID")
	// product-Books < product-Games < product-Shoes (x2, desc id) < product-Toys
	if ids[0] != 101 || ids[1] != 104 {
		t.Fatalf("ids = %v", ids)
	}
}

func TestTextLike(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Filter{
		Input: &plan.Scan{Table: "inventory", Cols: []string{"invtID", "productname"}},
		Pred:  plan.Like{Col: "productname", Pattern: "%Sho%"},
	})
	if b.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", b.NumRows())
	}
	e := New(s)
	n := &plan.Filter{
		Input: &plan.Scan{Table: "inventory", Cols: []string{"invtID", "productname"}},
		Pred:  plan.Like{Col: "productname", Pattern: "%Sho%", Negate: true},
	}
	if err := plan.Bind(n, s); err != nil {
		t.Fatal(err)
	}
	nb, err := e.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	if nb.NumRows() != 3 {
		t.Fatalf("negated rows = %d, want 3", nb.NumRows())
	}
	// Every row's string is read once, whether or not it matches.
	if got := e.Stats.Work["text"]; got != 5 {
		t.Fatalf("text work = %d, want one heap read per inventory row (5)", got)
	}
}

// Render shows strings, dates and decimals, and resolves a Text column's
// shown cells with one heap read: the inventory heap is one page, read once
// for all five rows.
func TestRenderResolvesTextOnce(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Scan{Table: "inventory", Cols: []string{"invtID", "category", "productname"}})
	s.Dev.ResetStats()
	out := b.Render(0)
	if pages := s.Dev.Stats().PagesRead[flash.Host]; pages != 1 {
		t.Fatalf("render read %d host pages, want the one heap page", pages)
	}
	if want := "invtID\tcategory\tproductname\n100\tShoes\tproduct-Shoes\n"; !strings.HasPrefix(out, want) {
		t.Fatalf("render = %q, want prefix %q", out, want)
	}
	if out := b.Render(2); !strings.HasSuffix(out, "101\tBooks\tproduct-Books\n... (5 rows total)\n") {
		t.Fatalf("render(2) = %q", out)
	}
	sales := run(t, s, &plan.Scan{Table: "sales", Cols: []string{"saledate", "price"}})
	if out := sales.Render(1); !strings.Contains(out, "2018-01-05\t10.00") {
		t.Fatalf("render = %q, want the date and decimal formatted", out)
	}
}

func TestCaseExpression(t *testing.T) {
	s := retailStore(t)
	// Promo-style: sum(case when dept='east' then price else 0 end).
	b := run(t, s, &plan.GroupBy{
		Input: &plan.Scan{Table: "sales", Cols: []string{"dept", "price"}},
		Aggs: []plan.AggSpec{{Func: plan.AggSum, Name: "east_rev", Typ: col.Decimal,
			E: plan.Case{
				Cond: plan.EQ(plan.C("dept"), plan.S("east")),
				Then: plan.C("price"),
				Else: plan.I(0),
			}}},
	})
	v, _ := b.Col("east_rev")
	if v[0] != 1000+2000+3000+800 {
		t.Fatalf("east_rev = %d", v[0])
	}
}

func TestScalarJoin(t *testing.T) {
	s := retailStore(t)
	avg := &plan.GroupBy{
		Input: &plan.Scan{Table: "sales", Cols: []string{"price"}},
		Aggs:  []plan.AggSpec{{Func: plan.AggAvg, Name: "avgp", E: plan.C("price")}},
	}
	n := &plan.Filter{
		Input: &plan.ScalarJoin{
			Input: &plan.Scan{Table: "sales", Cols: []string{"txID", "price"}},
			Sub:   avg, Name: "avgp",
		},
		Pred: plan.GT(plan.C("price"), plan.C("avgp")),
	}
	b := run(t, s, n)
	// avg = (1000+2000+1500+500+3000+800)/6 = 1466; above: 2000, 1500, 3000.
	if b.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", b.NumRows())
	}
}

func TestCountDistinctAndAvg(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.GroupBy{
		Input: &plan.Scan{Table: "sales", Cols: []string{"dept", "invtID", "price"}},
		Keys:  []string{"dept"},
		Aggs: []plan.AggSpec{
			{Func: plan.AggCountDistinct, Name: "items", E: plan.C("invtID")},
			{Func: plan.AggAvg, Name: "avgp", E: plan.C("price")},
			{Func: plan.AggMin, Name: "minp", E: plan.C("price")},
			{Func: plan.AggMax, Name: "maxp", E: plan.C("price")},
		},
	})
	f, _ := b.Schema.Field("dept")
	depts, _ := b.Col("dept")
	items, _ := b.Col("items")
	minp, _ := b.Col("minp")
	maxp, _ := b.Col("maxp")
	names, err := f.Src.Strs(nil, depts, flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		switch name {
		case "east": // invt 100,101,104,103 => 4 distinct
			if items[i] != 4 || minp[i] != 800 || maxp[i] != 3000 {
				t.Fatalf("east = %d/%d/%d", items[i], minp[i], maxp[i])
			}
		case "west": // invt 103,100
			if items[i] != 2 || minp[i] != 500 || maxp[i] != 1500 {
				t.Fatalf("west = %d/%d/%d", items[i], minp[i], maxp[i])
			}
		}
	}
}

func TestInListsAndYear(t *testing.T) {
	s := retailStore(t)
	b := run(t, s, &plan.Filter{
		Input: &plan.Scan{Table: "sales", Cols: []string{"txID", "dept", "saledate"}},
		Pred: plan.And(
			plan.InStrs{Col: "dept", Vs: []string{"east", "north"}},
			plan.EQ(plan.YearOf{E: plan.C("saledate")}, plan.I(2018)),
		),
	})
	if b.NumRows() != 3 { // east sales in 2018: tx 0,1,4
		t.Fatalf("rows = %d, want 3", b.NumRows())
	}
	b2 := run(t, s, &plan.Filter{
		Input: &plan.Scan{Table: "sales", Cols: []string{"txID"}},
		Pred:  plan.InInts{E: plan.C("txID"), Vs: []int64{1, 3, 99}},
	})
	if b2.NumRows() != 2 {
		t.Fatalf("InInts rows = %d, want 2", b2.NumRows())
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := retailStore(t)
	e := New(s)
	n := &plan.Filter{
		Input: &plan.Scan{Table: "sales", Cols: []string{"txID", "price"}},
		Pred:  plan.GT(plan.C("price"), plan.I(0)),
	}
	if err := plan.Bind(n, s); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(n); err != nil {
		t.Fatal(err)
	}
	if e.Stats.PeakBytes == 0 || e.Stats.Work["scan"] == 0 || e.Stats.Work["filter"] == 0 {
		t.Fatalf("stats not tracked: %+v", e.Stats)
	}
}
