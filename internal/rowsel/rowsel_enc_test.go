package rowsel

import (
	"math/rand"
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/systolic"
)

// buildEncTable builds the same three-column table as buildTable under an
// encoding selection: a is sorted (FOR-friendly), b is 7-distinct
// (dict-friendly), c alternates (RLE-viable).
func buildEncTable(t testing.TB, n int, sel enc.Selection) (*col.Store, *col.Table) {
	t.Helper()
	s := col.NewStore(flash.NewDevice())
	s.DefaultEncoding = sel
	tb := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{
		{Name: "a", Typ: col.Int32},
		{Name: "b", Typ: col.Int32},
		{Name: "c", Typ: col.Int32},
	}})
	for i := 0; i < n; i++ {
		tb.Append(i, i%7, i/512%2)
	}
	tab, err := tb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s, tab
}

// Every encoding must produce the exact mask the raw scan produces, with
// or without an incoming mask, across predicate shapes that exercise the
// dictionary truth table and the kernel over decoded FOR and RLE values.
func TestEncodedScanMaskEquality(t *testing.T) {
	const n = 50000
	_, rawTab := buildEncTable(t, n, enc.SelRaw)
	programs := map[string]*Program{
		"range-a": {Preds: []ColPred{
			pred("a", systolic.Mul(
				systolic.GT(systolic.In(0), systolic.C(1000)),
				systolic.LT(systolic.In(0), systolic.C(9000))), 2),
		}},
		"dict-b": {Preds: []ColPred{
			pred("b", systolic.EQ(systolic.In(0), systolic.C(3)), 1),
		}},
		"conj": {Preds: []ColPred{
			pred("a", systolic.LT(systolic.In(0), systolic.C(30000)), 1),
			pred("b", systolic.GT(systolic.In(0), systolic.C(2)), 1),
			pred("c", systolic.EQ(systolic.In(0), systolic.C(0)), 1),
		}},
		"nonaffine-a": {Preds: []ColPred{ // a quotient of the column
			pred("a", systolic.EQ(systolic.Div(systolic.In(0), systolic.C(100)), systolic.C(7)), 1),
		}},
	}
	masks := map[string]*bitvec.Mask{"nil": nil}
	rng := rand.New(rand.NewSource(41))
	partial := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			partial.Set(i)
		}
	}
	masks["partial"] = partial

	for _, sel := range []enc.Selection{enc.SelAuto, enc.SelDict, enc.SelRLE, enc.SelFOR} {
		_, tab := buildEncTable(t, n, sel)
		for pname, prog := range programs {
			for mname, in := range masks {
				t.Run(sel.String()+"/"+pname+"/"+mname, func(t *testing.T) {
					want, wantSt, err := prog.Run(rawTab, in, flash.Aquoman)
					if err != nil {
						t.Fatal(err)
					}
					got, gotSt, err := prog.Run(tab, in, flash.Aquoman)
					if err != nil {
						t.Fatal(err)
					}
					if want.Count() != got.Count() {
						t.Fatalf("selected %d rows, raw selects %d", got.Count(), want.Count())
					}
					for i := 0; i < n; i++ {
						if want.Get(i) != got.Get(i) {
							t.Fatalf("row %d: encoded=%v raw=%v", i, got.Get(i), want.Get(i))
						}
					}
					if gotSt.RowsSelected != wantSt.RowsSelected {
						t.Fatalf("stats rows %d vs %d", gotSt.RowsSelected, wantSt.RowsSelected)
					}
				})
			}
		}
	}
}

// A selective range over a sorted FOR column must prune most pages via
// zone maps: the device never reads them, and the stats say so.
func TestZoneMapPruning(t *testing.T) {
	const n = 200000
	s, tab := buildEncTable(t, n, enc.SelFOR)
	ci := tab.MustColumn("a")
	if ci.Codec() != enc.FOR {
		t.Fatalf("column a codec = %s, want for", ci.Codec())
	}
	nPages := len(ci.Enc.Pages)
	if nPages < 8 {
		t.Fatalf("want a multi-page column, got %d pages", nPages)
	}
	s.Dev.ResetStats()
	prog := &Program{Preds: []ColPred{
		pred("a", systolic.Mul(
			systolic.GT(systolic.In(0), systolic.C(5000)),
			systolic.LT(systolic.In(0), systolic.C(6000))), 2),
	}}
	m, st, err := prog.Run(tab, nil, flash.Aquoman)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Count(); got != 999 {
		t.Fatalf("selected %d rows, want 999", got)
	}
	if st.PagesPruned == 0 {
		t.Fatal("no pages pruned on a selective sorted range")
	}
	if st.PagesPruned+st.PagesRead+st.PagesSkipped != int64(nPages) {
		t.Fatalf("pruned %d + read %d + skipped %d != %d pages",
			st.PagesPruned, st.PagesRead, st.PagesSkipped, nPages)
	}
	// The device witnessed only the non-pruned reads.
	if dev := s.Dev.Stats().PagesRead[flash.Aquoman]; dev != st.PagesRead {
		t.Fatalf("device read %d pages, stats claim %d", dev, st.PagesRead)
	}
	if st.PagesRead >= int64(nPages)/2 {
		t.Fatalf("read %d of %d pages — pruning ineffective", st.PagesRead, nPages)
	}
}

// A predicate that can never match prunes every page and reads nothing.
func TestZoneMapPrunesAll(t *testing.T) {
	const n = 100000
	s, tab := buildEncTable(t, n, enc.SelFOR)
	s.Dev.ResetStats()
	prog := &Program{Preds: []ColPred{
		pred("a", systolic.GT(systolic.In(0), systolic.C(int64(n)+5)), 1),
	}}
	m, st, err := prog.Run(tab, nil, flash.Aquoman)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 0 {
		t.Fatalf("selected %d rows, want 0", m.Count())
	}
	if st.PagesRead != 0 {
		t.Fatalf("read %d pages for an impossible predicate", st.PagesRead)
	}
	if dev := s.Dev.Stats().PagesRead[flash.Aquoman]; dev != 0 {
		t.Fatalf("device read %d pages, want 0", dev)
	}
}

// Randomized differential: random predicates over random data must agree
// bit-for-bit between raw and every codec, and the decode counters must
// attribute pages to the right codec.
func TestEncodedScanRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n = 20000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(200)) * 10
	}
	build := func(sel enc.Selection) *col.Table {
		s := col.NewStore(flash.NewDevice())
		s.DefaultEncoding = sel
		tb := s.NewTable(col.Schema{Name: "t", Cols: []col.ColDef{{Name: "v", Typ: col.Int32}}})
		cvals := make([]col.Value, n)
		for i, v := range vals {
			cvals[i] = col.Value(v)
		}
		tb.AppendColumnValues("v", cvals)
		tb.SetNumRows(n)
		tab, err := tb.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	rawTab := build(enc.SelRaw)
	tabs := map[enc.Codec]*col.Table{
		enc.Dict: build(enc.SelDict),
		enc.RLE:  build(enc.SelRLE),
		enc.FOR:  build(enc.SelFOR),
	}
	for trial := 0; trial < 60; trial++ {
		c1 := int64(rng.Intn(2200) * 10)
		c2 := c1 + int64(rng.Intn(500))
		var e systolic.Expr
		switch trial % 3 {
		case 0:
			e = systolic.EQ(systolic.In(0), systolic.C(c1))
		case 1:
			e = systolic.Mul(
				systolic.GT(systolic.In(0), systolic.C(c1)),
				systolic.LT(systolic.In(0), systolic.C(c2)))
		default:
			e = systolic.GT(systolic.Add(systolic.In(0), systolic.C(-c1)), systolic.C(0))
		}
		prog := &Program{Preds: []ColPred{pred("v", e, 1)}}
		want, _, err := prog.Run(rawTab, nil, flash.Aquoman)
		if err != nil {
			t.Fatal(err)
		}
		for codec, tab := range tabs {
			got, st, err := prog.Run(tab, nil, flash.Aquoman)
			if err != nil {
				t.Fatalf("%s: %v", codec, err)
			}
			for i := 0; i < n; i++ {
				if want.Get(i) != got.Get(i) {
					t.Fatalf("trial %d %s: row %d diverges (expr %s)", trial, codec, i, e)
				}
			}
			for c := range st.EncDecoded {
				if enc.Codec(c) != codec && st.EncDecoded[c] != 0 {
					t.Fatalf("%s scan decoded %d pages of codec %s", codec, st.EncDecoded[c], enc.Codec(c))
				}
			}
		}
	}
}
