package sql

import (
	"errors"
	"strings"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
)

func compileOK(t *testing.T, src string) *Statement {
	t.Helper()
	ex, err := CompileExec(src, testStore(t))
	if err != nil {
		t.Fatalf("CompileExec(%q): %v", src, err)
	}
	return ex
}

func compileErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := CompileExec(src, testStore(t))
	if err == nil {
		t.Fatalf("CompileExec(%q) accepted", src)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("CompileExec(%q) error = %v, want substring %q", src, err, want)
	}
}

func TestCompileCreate(t *testing.T) {
	ex := compileOK(t, "CREATE TABLE events (e_id bigint, e_day date, e_amt decimal, e_msg text)")
	sc := ex.Create.Schema
	if sc.Name != "events" || len(sc.Cols) != 4 {
		t.Fatalf("schema = %+v", sc)
	}
	want := []col.Type{col.Int64, col.Date, col.Decimal, col.Text}
	for i, typ := range want {
		if sc.Cols[i].Typ != typ {
			t.Errorf("col %d type = %v, want %v", i, sc.Cols[i].Typ, typ)
		}
	}
	compileErr(t, "CREATE TABLE bad (x blob)", "unknown column type")
}

func TestCompileInsertLiterals(t *testing.T) {
	// region: r_regionkey int32, r_name dict, r_comment text.
	ex := compileOK(t, "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (7, 'ASIA', 'new row'), (8, 'EUROPE', 'another')")
	ins := ex.Insert
	if ins.N != 2 || ins.Table != "region" {
		t.Fatalf("insert = %+v", ins)
	}
	if got := ins.Ints["r_regionkey"]; got[0] != 7 || got[1] != 8 {
		t.Fatalf("r_regionkey = %v", got)
	}
	if got := ins.Strs["r_comment"]; got[1] != "another" {
		t.Fatalf("r_comment = %v", got)
	}

	// Decimal scaling, dates, negatives through the lineitem schema.
	ex = compileOK(t, "INSERT INTO orders (o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_shippriority) "+
		"VALUES (99, 1, 'O', 12.5, DATE '1995-06-17', '1-URGENT', -3)")
	ins = ex.Insert
	if got := ins.Ints["o_totalprice"][0]; got != 1250 {
		t.Fatalf("decimal literal = %d, want 1250", got)
	}
	if got := ins.Ints["o_shippriority"][0]; got != -3 {
		t.Fatalf("negative literal = %d", got)
	}
	if got := ins.Ints["o_orderdate"][0]; got <= 0 {
		t.Fatalf("date literal = %d", got)
	}

	compileErr(t, "INSERT INTO region (r_regionkey) VALUES (1, 2)", "row has 2 values")
	compileErr(t, "INSERT INTO region (bogus) VALUES (1)", "no column")
	compileErr(t, "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (r_name, 'x', 'y')", "literal")
	compileErr(t, "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (1.5, 'x', 'y')", "fractional")
}

func TestCompileDeleteVictims(t *testing.T) {
	ex := compileOK(t, "DELETE FROM region WHERE r_name = 'ASIA'")
	b, err := engine.New(testStore(t)).Run(ex.Delete.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 1 || b.Schema[0].Name != plan.RowIDCol {
		t.Fatalf("victims = %v rows, schema %v", b.NumRows(), b.Schema)
	}
	rowid := b.Cols[0][0]
	names := testStore(t).MustTable("region").MustColumn("r_name")
	if got, err := names.Str(names.MustReadAll(flash.Host)[rowid], flash.Host); err != nil || got != "ASIA" {
		t.Fatalf("victim rowid %d is %q, %v", rowid, got, err)
	}

	// No WHERE selects every row.
	ex = compileOK(t, "DELETE FROM region")
	b, err = engine.New(testStore(t)).Run(ex.Delete.Plan)
	if err != nil || b.NumRows() != 5 {
		t.Fatalf("unfiltered victims = %d, %v", b.NumRows(), err)
	}
}

func TestCompileUpdatePlan(t *testing.T) {
	ex := compileOK(t, "UPDATE nation SET n_regionkey = n_regionkey + 1, n_comment = 'moved' WHERE n_nationkey < 3")
	up := ex.Update
	if up.TextSets["n_comment"] != "moved" {
		t.Fatalf("text sets = %v", up.TextSets)
	}
	for _, c := range up.Cols {
		if c.Name == "n_comment" {
			t.Fatal("text-set column leaked into the plan outputs")
		}
	}
	st := testStore(t)
	b, err := engine.New(st).Run(up.Plan)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 3 {
		t.Fatalf("victims = %d, want 3", b.NumRows())
	}
	if b.Schema[0].Name != plan.RowIDCol {
		t.Fatalf("first field = %v", b.Schema[0])
	}
	oldRegion := st.MustTable("nation").MustColumn("n_regionkey").MustReadAll(flash.Host)
	rowids, _ := b.Col(plan.RowIDCol)
	newRegion, _ := b.Col("n_regionkey")
	keys, _ := b.Col("n_nationkey")
	for i, r := range rowids {
		if keys[i] != r {
			// nation is keyed 0..24 in rowid order in TPC-H.
			t.Fatalf("victim %d: key %d at rowid %d", i, keys[i], r)
		}
		if newRegion[i] != oldRegion[r]+1 {
			t.Fatalf("victim %d: new region %d, old %d", i, newRegion[i], oldRegion[r])
		}
	}

	compileErr(t, "UPDATE nation SET n_regionkey = 'x'", "string value")
	compileErr(t, "UPDATE nation SET bogus = 1", "no column")
	compileErr(t, "UPDATE nation SET n_regionkey = 1, n_regionkey = 2", "assigned twice")
	compileErr(t, "UPDATE nation SET n_name = 'NOT A NATION'", "not in the dictionary")
	compileErr(t, "UPDATE nation SET n_regionkey@rowid = 1", "companion")
}

func TestParseDMLErrors(t *testing.T) {
	for _, src := range []string{
		"DROP TABLE region",
		"INSERT region VALUES (1)",
		"UPDATE nation WHERE n_nationkey = 1",
		"DELETE FROM region WHERE",
		"INSERT INTO region VALUES (1,)",
		"CREATE TABLE t ()",
		"DELETE FROM region; DELETE FROM nation",
	} {
		if _, err := Compile(src, testStore(t)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// checkStatementKind holds the three properties that make Plan and
// CompileExec safe as wrappers over the one Compile: exactly one field of
// a Statement is set, Plan accepts iff it is the SELECT, CompileExec iff it
// is a write — and every rejection is a *CompileError.
func checkStatementKind(t *testing.T, src string, store *col.Store) {
	t.Helper()
	st, err := Compile(src, store)
	p, perr := Plan(src, store)
	ex, xerr := CompileExec(src, store)
	var ce *CompileError
	for _, e := range []error{err, perr, xerr} {
		if e != nil && !errors.As(e, &ce) {
			t.Fatalf("%q: %v is not a *CompileError", src, e)
		}
	}
	if err != nil {
		if perr == nil || xerr == nil {
			t.Fatalf("%q: Compile rejects (%v) but Plan err = %v, CompileExec err = %v", src, err, perr, xerr)
		}
		return
	}
	set := 0
	for _, is := range []bool{st.Select != nil, st.Create != nil, st.Insert != nil, st.Update != nil, st.Delete != nil} {
		if is {
			set++
		}
	}
	if set != 1 {
		t.Fatalf("%q: %d fields of Statement set, want exactly 1: %+v", src, set, st)
	}
	if query := st.Select != nil; (perr == nil) != query || (p != nil) != query {
		t.Fatalf("%q: SELECT = %v but Plan = %v, %v", src, query, p, perr)
	}
	if write := st.Select == nil; (xerr == nil) != write || (ex != nil) != write {
		t.Fatalf("%q: write = %v but CompileExec = %v, %v", src, write, ex, xerr)
	}
	if xerr != nil && !strings.Contains(xerr.Error(), "is a query, not a write") {
		t.Fatalf("%q: CompileExec on a SELECT says %q", src, xerr)
	}
	if perr != nil && !strings.Contains(perr.Error(), "is a write, not a query") {
		t.Fatalf("%q: Plan on a write says %q", src, perr)
	}
}

func TestStatementKinds(t *testing.T) {
	for _, src := range []string{
		"SELECT r_name FROM region WHERE r_regionkey = 1",
		"SELECT count(*) AS n FROM region;",
		"CREATE TABLE events (e_id bigint)",
		"INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (7, 'ASIA', 'x')",
		"UPDATE nation SET n_regionkey = 1 WHERE n_nationkey = 2",
		"DELETE FROM region WHERE r_regionkey = 0",
		"SELECT 1 FROM nosuch",
		"DROP TABLE region",
		"",
	} {
		checkStatementKind(t, src, testStore(t))
	}
}
