package plan

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/systolic"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s := col.NewStore(flash.NewDevice())
	b := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{
		{Name: "x", Typ: col.Int64},
		{Name: "y", Typ: col.Decimal},
		{Name: "d", Typ: col.Date},
		{Name: "mode", Typ: col.Dict},
		{Name: "note", Typ: col.Text},
	}})
	modes := []string{"AIR", "MAIL", "RAIL", "SHIP", "TRUCK"}
	for i := 0; i < 40; i++ {
		b.Append(int64(i), int64(i*100), col.DateValue(1995, 1, 1+i%28), modes[i%5], "n")
	}
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var schema Schema
	for _, cd := range tab.Cols {
		f := Field{Name: cd.Name, Typ: cd.Typ}
		if cd.Typ.IsString() {
			f.Src = tab.MustColumn(cd.Name)
		}
		schema = append(schema, f)
	}
	return schema
}

func evalOn(t *testing.T, schema Schema, e Expr, row []int64) int64 {
	t.Helper()
	lowered, err := Lower(e, schema)
	if err != nil {
		t.Fatalf("Lower(%s): %v", e, err)
	}
	return systolic.EvalExpr(lowered, row)
}

func TestArithmeticLowering(t *testing.T) {
	schema := testSchema(t)
	row := []int64{10, 250, 0, 0, 0} // x=10, y=2.50
	cases := []struct {
		e    Expr
		want int64
	}{
		{Add(C("x"), I(5)), 15},
		{Sub(C("x"), I(5)), 5},
		{Mul(C("x"), I(3)), 30},
		{DivE(C("x"), I(3)), 3},
		{DecMul(C("y"), Dec("2.00")), 500}, // 2.50*2.00 = 5.00
		{EQ(C("x"), I(10)), 1},
		{NE(C("x"), I(10)), 0},
		{LT(C("x"), I(11)), 1},
		{LE(C("x"), I(10)), 1},
		{GT(C("x"), I(10)), 0},
		{GE(C("x"), I(10)), 1},
		{And(EQ(C("x"), I(10)), GT(C("y"), I(0))), 1},
		{Or(EQ(C("x"), I(99)), GT(C("y"), I(0))), 1},
		{Not{E: EQ(C("x"), I(10))}, 0},
		{Between(C("x"), I(5), I(15)), 1},
		{Between(C("x"), I(11), I(15)), 0},
		{Case{Cond: GT(C("x"), I(5)), Then: I(100), Else: I(200)}, 100},
		{Case{Cond: GT(C("x"), I(50)), Then: I(100), Else: I(200)}, 200},
		{InInts{E: C("x"), Vs: []int64{3, 10, 20}}, 1},
		{InInts{E: C("x"), Vs: []int64{3, 20}}, 0},
	}
	for _, c := range cases {
		if got := evalOn(t, schema, c.e, row); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestDecLiteral(t *testing.T) {
	cases := map[string]int64{
		"0.05": 5, "0.10": 10, "24": 2400, "300": 30000, "-1.25": -125,
		"0.2": 20, "1": 100,
	}
	for s, want := range cases {
		if got := Dec(s).(Int).V; got != want {
			t.Errorf("Dec(%q) = %d, want %d", s, got, want)
		}
	}
}

func TestStringComparisons(t *testing.T) {
	schema := testSchema(t)
	// Dict order: AIR=0 MAIL=1 RAIL=2 SHIP=3 TRUCK=4.
	mkRow := func(mode int64) []int64 { return []int64{0, 0, 0, mode, 0} }
	cases := []struct {
		e    Expr
		mode int64
		want int64
	}{
		{EQ(C("mode"), S("MAIL")), 1, 1},
		{EQ(C("mode"), S("MAIL")), 2, 0},
		{NE(C("mode"), S("MAIL")), 2, 1},
		{EQ(C("mode"), S("ABSENT")), 1, 0},
		{NE(C("mode"), S("ABSENT")), 1, 1},
		{LT(C("mode"), S("RAIL")), 1, 1}, // MAIL < RAIL
		{LT(C("mode"), S("RAIL")), 3, 0},
		{GE(C("mode"), S("SHIP")), 4, 1},
		// Absent literal between RAIL and SHIP: "SEA".
		{LT(C("mode"), S("SEA")), 2, 1},
		{LT(C("mode"), S("SEA")), 3, 0},
		{GT(C("mode"), S("SEA")), 3, 1},
		{InStrs{Col: "mode", Vs: []string{"MAIL", "SHIP"}}, 3, 1},
		{InStrs{Col: "mode", Vs: []string{"MAIL", "SHIP"}}, 0, 0},
		{InStrs{Col: "mode", Vs: []string{"NONE"}}, 0, 0},
		{Like{Col: "mode", Pattern: "R%"}, 2, 1},
		{Like{Col: "mode", Pattern: "R%"}, 1, 0},
		{Like{Col: "mode", Pattern: "%AI%"}, 1, 1}, // MAIL, RAIL, AIR
		{Like{Col: "mode", Pattern: "%AI%"}, 3, 0},
		{Like{Col: "mode", Pattern: "%AI%", Negate: true}, 3, 1},
	}
	for _, c := range cases {
		if got := evalOn(t, schema, c.e, mkRow(c.mode)); got != c.want {
			t.Errorf("%s on mode=%d: got %d, want %d", c.e, c.mode, got, c.want)
		}
	}
}

func TestTextPredicatesReturnTextError(t *testing.T) {
	schema := testSchema(t)
	for _, e := range []Expr{
		Like{Col: "note", Pattern: "%x%"},
		SubstrCode{Col: "note", Start: 1, Len: 2},
		EQ(C("note"), S("n")),
	} {
		_, err := Lower(e, schema)
		if _, ok := err.(*TextError); !ok {
			t.Errorf("Lower(%s) err = %v, want TextError", e, err)
		}
	}
}

func TestYearOfAgainstTimePackage(t *testing.T) {
	schema := Schema{{Name: "d", Typ: col.Date}}
	lowered, err := Lower(YearOf{E: C("d")}, schema)
	if err != nil {
		t.Fatal(err)
	}
	// Every day from 1992 through 1999 must extract the right year.
	start := col.MustParseDate("1992-01-01")
	end := col.MustParseDate("1999-12-31")
	for d := start; d <= end; d++ {
		want := time.Unix(d*86400, 0).UTC().Year()
		if got := systolic.EvalExpr(lowered, []int64{d}); got != int64(want) {
			t.Fatalf("year(%s) = %d, want %d", col.DateString(d), got, want)
		}
	}
}

func TestPackString(t *testing.T) {
	for s, want := range map[string]int64{"": 0, "13": '1'<<8 | '3', "31": '3'<<8 | '1',
		"zz": 'z'<<8 | 'z', "123456789": 0x3132333435363738} {
		if got := PackString(s); got != want {
			t.Fatalf("PackString(%q) = %#x, want %#x", s, got, want)
		}
	}
}

// Property: membership lowering equals the naive set test for random
// value sets (including duplicates and contiguous runs).
func TestQuickMembership(t *testing.T) {
	schema := Schema{{Name: "v", Typ: col.Int64}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 1
		vs := make([]int64, n)
		set := map[int64]bool{}
		for i := range vs {
			vs[i] = int64(rng.Intn(20))
			set[vs[i]] = true
		}
		lowered, err := Lower(InInts{E: C("v"), Vs: vs}, schema)
		if err != nil {
			return false
		}
		for x := int64(-2); x < 24; x++ {
			got := systolic.EvalExpr(lowered, []int64{x})
			want := int64(0)
			if set[x] {
				want = 1
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestBindErrors(t *testing.T) {
	s := col.NewStore(flash.NewDevice())
	b := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{{Name: "x", Typ: col.Int64}}})
	b.Append(int64(1))
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	bad := []Node{
		&Scan{Table: "missing", Cols: []string{"x"}},
		&Scan{Table: "t", Cols: []string{"nope"}},
		&Filter{Input: &Scan{Table: "t", Cols: []string{"x"}}, Pred: C("nope")},
		&Join{L: &Scan{Table: "t", Cols: []string{"x"}},
			R: &Scan{Table: "t", Cols: []string{"x"}}, LKeys: []string{"x"}, RKeys: []string{"x"}},
		&OrderBy{Input: &Scan{Table: "t", Cols: []string{"x"}},
			Keys: []OrderKey{{Name: "nope"}}},
		&Limit{Input: &Scan{Table: "t", Cols: []string{"x"}}, N: -1},
		&GroupBy{Input: &Scan{Table: "t", Cols: []string{"x"}}, Keys: []string{"nope"}},
	}
	for i, n := range bad {
		if err := Bind(n, s); err == nil {
			t.Errorf("case %d bound", i)
		}
	}
}

func TestBindSchemas(t *testing.T) {
	s := col.NewStore(flash.NewDevice())
	b := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{
		{Name: "x", Typ: col.Int64}, {Name: "m", Typ: col.Dict}}})
	b.Append(int64(1), "a")
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	g := &GroupBy{
		Input: &Scan{Table: "t", Cols: []string{"x", "m", RowIDCol}},
		Keys:  []string{"m"},
		Aggs:  []AggSpec{{Func: AggSum, Name: "sx", E: C("x"), Typ: col.Decimal}},
	}
	root := &Limit{N: 5, Input: &OrderBy{Input: g, Keys: []OrderKey{{Name: "sx"}}}}
	if err := Bind(root, s); err != nil {
		t.Fatal(err)
	}
	sc := root.Schema()
	if len(sc) != 2 || sc[0].Name != "m" || sc[1].Name != "sx" || sc[1].Typ != col.Decimal {
		t.Fatalf("schema = %v", sc)
	}
	if sc[0].Src == nil {
		t.Fatal("dict source not propagated through group-by")
	}
	if got := BaseTables(root); len(got) != 1 || got[0] != "t" {
		t.Fatalf("BaseTables = %v", got)
	}
}
