package aquoman

import (
	"strings"
	"testing"

	"aquoman/internal/plan"
)

func TestSanityCheck(t *testing.T) {
	if err := SanityCheck(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	db := Open()
	b := db.NewTable(Schema{Name: "t", Cols: []ColDef{
		{Name: "k", Typ: Int64},
		{Name: "v", Typ: Decimal},
		{Name: "tag", Typ: Dict},
	}})
	for i := 0; i < 1000; i++ {
		tag := "even"
		if i%2 == 1 {
			tag = "odd"
		}
		b.Append(int64(i), int64(i*10), tag)
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	p := &plan.GroupBy{
		Input: &plan.Filter{
			Input: &plan.Scan{Table: "t", Cols: []string{"k", "v", "tag"}},
			Pred:  plan.GE(plan.C("k"), plan.I(500)),
		},
		Keys: []string{"tag"},
		Aggs: []plan.AggSpec{{Func: plan.AggSum, Name: "total", E: plan.C("v")}},
	}
	res, err := db.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if len(res.Report.Units) == 0 {
		t.Fatal("custom query did not offload")
	}
	out := res.Render(10)
	if !strings.Contains(out, "total") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestHostVsOffloadPublic(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 5); err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{1, 3, 6} {
		host, err := db.RunTPCHHostOnly(q)
		if err != nil {
			t.Fatalf("q%d host: %v", q, err)
		}
		off, err := db.RunTPCH(q)
		if err != nil {
			t.Fatalf("q%d off: %v", q, err)
		}
		if host.NumRows() != off.NumRows() {
			t.Fatalf("q%d rows: %d vs %d", q, host.NumRows(), off.NumRows())
		}
	}
}

func TestEvaluatorConstruction(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 5); err != nil {
		t.Fatal(err)
	}
	ev := db.Evaluator(nil, 1000)
	e, err := ev.EvalQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	if e.RunSeconds["L"] <= 0 {
		t.Fatal("no modeled runtime")
	}
}

func TestMaterializeFKPublic(t *testing.T) {
	db := Open()
	d := db.NewTable(Schema{Name: "dim", Cols: []ColDef{{Name: "id", Typ: Int64}}})
	d.Append(int64(7))
	if _, err := d.Finalize(); err != nil {
		t.Fatal(err)
	}
	f := db.NewTable(Schema{Name: "fact", Cols: []ColDef{{Name: "fk", Typ: Int64}}})
	f.Append(int64(7))
	if _, err := f.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeFK("fact", "fk", "dim", "id"); err != nil {
		t.Fatal(err)
	}
	if err := db.MaterializeFK("missing", "fk", "dim", "id"); err == nil {
		t.Fatal("missing table accepted")
	}
}

// Auto-selected encodings plus zone-map pruning must pay on flash: over
// the same generated data q1 and q6 read at least 40% fewer device pages
// from an EncAuto store than from an EncRaw one (with the same answer),
// and the encoded column files are smaller in total.
func TestEncodedQueriesReadFewerPages(t *testing.T) {
	build := func(sel Encoding) *DB {
		db := Open()
		db.SetDefaultEncoding(sel)
		if err := db.LoadTPCH(0.01, 42); err != nil {
			t.Fatal(err)
		}
		return db
	}
	columnBytes := func(db *DB) (total int64) {
		for _, name := range db.Store.Tables() {
			tab := db.Store.MustTable(name)
			for _, cn := range tab.ColumnNames() {
				total += tab.MustColumn(cn).File.Size()
			}
		}
		return total
	}
	run := func(db *DB, q int) (string, int64) {
		db.ResetFlashStats()
		res, err := db.RunTPCH(q)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		return res.Render(1 << 20), db.FlashStats().TotalPagesRead()
	}
	raw, encoded := build(EncRaw), build(EncAuto)
	if r, e := columnBytes(raw), columnBytes(encoded); e >= r {
		t.Errorf("encoded column files total %d bytes, raw %d: encoding grew the store", e, r)
	}
	for _, q := range []int{1, 6} {
		rawOut, rawPages := run(raw, q)
		encOut, encPages := run(encoded, q)
		if rawOut != encOut {
			t.Errorf("q%d: encoded answer differs from raw:\n%s\nvs\n%s", q, encOut, rawOut)
		}
		if 10*encPages > 6*rawPages {
			t.Errorf("q%d: %d pages encoded vs %d raw, want at least 40%% fewer", q, encPages, rawPages)
		}
	}
}

// A zero-key aggregate with COUNT(*) beside other aggregates runs as one
// offloaded AGGREGATE, cell-exact against the host engine: the count rides
// on a column the task streams anyway.
func TestCountStarBesideAggregatesOffloads(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"select sum(l_extendedprice), count(*) from lineitem where l_orderkey >= 20000 and l_orderkey < 24000",
		"select count(*), min(l_quantity), avg(l_discount) from lineitem where l_shipdate < date '1993-01-01'",
	} {
		off, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if !off.Report.FullyOffloaded {
			t.Errorf("%s: not fully offloaded (units %v, notes %v)", stmt, off.Report.Units, off.Report.Notes)
		}
		host, err := db.QueryHostOnly(stmt)
		if err != nil {
			t.Fatalf("%s host: %v", stmt, err)
		}
		if o, h := off.Render(0), host.Render(0); o != h {
			t.Errorf("%s: offloaded answer\n%s differs from the host's\n%s", stmt, o, h)
		}
	}
}
