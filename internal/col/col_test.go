package col

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aquoman/internal/flash"
)

func testStore() *Store { return NewStore(flash.NewDevice()) }

func TestTypeWidths(t *testing.T) {
	want := map[Type]int{
		Int64: 8, Int32: 4, Date: 4, Decimal: 4, Dict: 4, Text: 4, Bool: 1, RowID: 8,
	}
	for typ, w := range want {
		if typ.Width() != w {
			t.Errorf("%s.Width = %d, want %d", typ, typ.Width(), w)
		}
	}
}

func TestDateRoundTrip(t *testing.T) {
	v := MustParseDate("1998-09-01")
	if DateString(v) != "1998-09-01" {
		t.Fatalf("DateString = %q", DateString(v))
	}
	if DateYear(v) != 1998 {
		t.Fatalf("DateYear = %d", DateYear(v))
	}
	if DateValue(1998, 9, 1) != v {
		t.Fatal("DateValue mismatch")
	}
	if MustParseDate("1992-01-01") >= MustParseDate("1998-12-31") {
		t.Fatal("date ordering broken")
	}
}

func TestDecimalString(t *testing.T) {
	cases := map[Value]string{
		0:      "0.00",
		5:      "0.05",
		123:    "1.23",
		-10001: "-100.01",
	}
	for v, want := range cases {
		if got := DecimalString(v); got != want {
			t.Errorf("DecimalString(%d) = %q, want %q", v, got, want)
		}
	}
	if 12*DecimalScale+34 != 1234 {
		t.Fatal("DecimalScale")
	}
}

func buildSample(t *testing.T, s *Store) *Table {
	t.Helper()
	b := s.NewTable(Schema{
		Name: "sales",
		Cols: []ColDef{
			{Name: "id", Typ: Int64},
			{Name: "dept", Typ: Dict},
			{Name: "price", Typ: Decimal},
			{Name: "day", Typ: Date},
			{Name: "note", Typ: Text},
		},
	})
	depts := []string{"shoes", "books", "toys"}
	for i := 0; i < 100; i++ {
		b.Append(int64(i), depts[i%3], Value(i*100+50), DateValue(2018, 1, 1+i%28),
			"note-"+depts[i%3])
	}
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildAndReadBack(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	if tab.NumRows != 100 {
		t.Fatalf("NumRows = %d", tab.NumRows)
	}
	if tab.NumVecs() != 4 {
		t.Fatalf("NumVecs = %d, want 4", tab.NumVecs())
	}
	ids := tab.MustColumn("id").MustReadAll(flash.Host)
	for i, v := range ids {
		if v != Value(i) {
			t.Fatalf("id[%d] = %d", i, v)
		}
	}
	prices := tab.MustColumn("price").MustReadAll(flash.Host)
	if prices[3] != 350 {
		t.Fatalf("price[3] = %d", prices[3])
	}
}

func TestDictCodesSorted(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	dept := tab.MustColumn("dept")
	dict := dept.Dict()
	// books < shoes < toys lexicographically.
	if len(dict) != 3 || dict[0] != "books" || dict[1] != "shoes" || dict[2] != "toys" {
		t.Fatalf("dict = %v", dict)
	}
	code, ok := dept.Code("shoes")
	if !ok || code != 1 {
		t.Fatalf("Code(shoes) = %d, %v", code, ok)
	}
	if _, ok := dept.Code("absent"); ok {
		t.Fatal("Code(absent) found")
	}
	vals := dept.MustReadAll(flash.Host)
	if got, err := dept.Str(vals[0], flash.Host); err != nil || got != "shoes" { // row 0 is dept shoes (i%3==0)
		t.Fatalf("row0 dept = %q, %v", got, err)
	}
}

func TestCodeRangeForPrefix(t *testing.T) {
	s := testStore()
	b := s.NewTable(Schema{Name: "p", Cols: []ColDef{{Name: "ty", Typ: Dict}}})
	for _, v := range []string{"ECONOMY BRASS", "ECONOMY TIN", "LARGE BRASS", "MEDIUM TIN", "STANDARD BRASS"} {
		b.Append(v)
	}
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	c := tab.MustColumn("ty")
	lo, hi := c.CodeRangeForPrefix("ECONOMY")
	if lo != 0 || hi != 2 {
		t.Fatalf("prefix range = [%d,%d), want [0,2)", lo, hi)
	}
	lo, hi = c.CodeRangeForPrefix("MEDIUM")
	if hi-lo != 1 {
		t.Fatalf("MEDIUM range = [%d,%d)", lo, hi)
	}
	lo, hi = c.CodeRangeForPrefix("ZZZ")
	if lo != hi {
		t.Fatalf("ZZZ range = [%d,%d), want empty", lo, hi)
	}
}

func TestTextHeap(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	note := tab.MustColumn("note")
	offs := note.MustReadAll(flash.Host)
	if got, err := note.Str(offs[1], flash.Host); err != nil || got != "note-books" {
		t.Fatalf("note[1] = %q, %v", got, err)
	}
	if note.HeapBytes() == 0 {
		t.Fatal("HeapBytes = 0")
	}
}

func TestReadVecAndRange(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	id := tab.MustColumn("id")
	var out [32]Value
	if n, _ := id.ReadVec(3, flash.Host, out[:]); n != 4 { // rows 96..99
		t.Fatalf("ReadVec(3) = %d rows, want 4", n)
	}
	if out[0] != 96 || out[3] != 99 {
		t.Fatalf("vec3 = %v", out[:4])
	}
	if n, _ := id.ReadVec(4, flash.Host, out[:]); n != 0 {
		t.Fatalf("ReadVec(4) = %d, want 0", n)
	}
	buf := make([]Value, 10)
	if n, _ := id.ReadRange(95, 10, flash.Host, buf); n != 5 {
		t.Fatalf("ReadRange = %d, want 5", n)
	}
}

func TestGather(t *testing.T) {
	s := testStore()
	tab := buildSample(t, s)
	id := tab.MustColumn("id")
	got, _ := id.Gather(nil, []Value{5, 50, 99, 0}, flash.Aquoman)
	want := []Value{5, 50, 99, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Gather = %v", got)
		}
	}
}

func TestMaterializeFK(t *testing.T) {
	s := testStore()
	db := s.NewTable(Schema{Name: "dim", Cols: []ColDef{{Name: "k", Typ: Int64}, {Name: "v", Typ: Int64}}})
	// Sparse keys, shuffled order.
	keys := []Value{40, 10, 30, 20}
	for i, k := range keys {
		db.Append(k, int64(i*100))
	}
	dim, err := db.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	fb := s.NewTable(Schema{Name: "fact", Cols: []ColDef{{Name: "fk", Typ: Int64}}})
	for _, k := range []Value{10, 10, 20, 40, 30} {
		fb.Append(k)
	}
	fact, err := fb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := MaterializeFK(fact, "fk", dim, "k"); err != nil {
		t.Fatal(err)
	}
	rid := fact.MustColumn(RowIDColumnName("fk")).MustReadAll(flash.Host)
	want := []Value{1, 1, 3, 0, 2}
	for i := range want {
		if rid[i] != want[i] {
			t.Fatalf("rowids = %v, want %v", rid, want)
		}
	}
	// Dangling FK is an error.
	fb2 := s.NewTable(Schema{Name: "bad", Cols: []ColDef{{Name: "fk", Typ: Int64}}})
	fb2.Append(int64(999))
	bad, _ := fb2.Finalize()
	if err := MaterializeFK(bad, "fk", dim, "k"); err == nil {
		t.Fatal("dangling FK not detected")
	}
}

func TestFinalizeLengthMismatch(t *testing.T) {
	s := testStore()
	b := s.NewTable(Schema{Name: "x", Cols: []ColDef{{Name: "a", Typ: Int64}}})
	b.AppendColumnValues("a", []Value{1, 2, 3})
	b.SetNumRows(5)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestInt32Overflow(t *testing.T) {
	s := testStore()
	b := s.NewTable(Schema{Name: "x", Cols: []ColDef{{Name: "a", Typ: Int32}}})
	b.Append(int64(1) << 40)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on 32-bit overflow")
		}
	}()
	b.Finalize()
}

// Property: every stored integer value round-trips through flash encoding.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = rng.Int63n(1<<31) - 1<<30
		}
		s := testStore()
		b := s.NewTable(Schema{Name: "q", Cols: []ColDef{{Name: "a", Typ: Int32}}})
		b.AppendColumnValues("a", vals)
		b.SetNumRows(n)
		tab, err := b.Finalize()
		if err != nil {
			return false
		}
		got := tab.MustColumn("a").MustReadAll(flash.Host)
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: dict encoding preserves string order on codes.
func TestQuickDictOrder(t *testing.T) {
	f := func(words []string) bool {
		if len(words) == 0 {
			return true
		}
		s := testStore()
		b := s.NewTable(Schema{Name: "q", Cols: []ColDef{{Name: "w", Typ: Dict}}})
		for _, w := range words {
			b.Append(w)
		}
		tab, err := b.Finalize()
		if err != nil {
			return false
		}
		c := tab.MustColumn("w")
		codes := c.MustReadAll(flash.Host)
		for i := range words {
			for j := range words {
				if (words[i] < words[j]) != (codes[i] < codes[j]) {
					return false
				}
			}
			if got, err := c.Str(codes[i], flash.Host); err != nil || got != words[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
