package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/delta"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
)

// scanFuzzCols is the fuzzed table: four 8-byte columns and three 4-byte
// ones, so that a scan of all of them needs more pages per 32 k rows than
// one device batch holds. Its chunks then end inside some columns' pages.
var scanFuzzCols = []col.ColDef{
	{Name: "a", Typ: col.Int64}, {Name: "b", Typ: col.Int64},
	{Name: "g", Typ: col.Int64}, {Name: "h", Typ: col.Int64},
	{Name: "c", Typ: col.Int32}, {Name: "d", Typ: col.Dict}, {Name: "e", Typ: col.Text},
}

var scanFuzzDict = []string{"apple", "fig", "kiwi", "pear", "plum"}

// scanFuzzRows are the row counts the fuzzer picks from: empty, short,
// the 32 k-row chunk of a narrow scan and its double, each ± 1, and
// beyond them any count up to 70 k.
var scanFuzzRows = []int{0, 1, 31, 33, 32767, 32768, 32769, 65535, 65536, 65537}

// scanFuzzStore builds the table over rows rows: runs (RLE), small ranges
// (FOR), a dictionary and short strings, raw or auto-encoded.
func scanFuzzStore(t *testing.T, rng *rand.Rand, rows int, auto bool) *col.Store {
	s := col.NewStore(flash.NewDevice())
	if auto {
		s.DefaultEncoding = enc.SelAuto
	}
	b := s.NewTable(col.Schema{Name: "t", Cols: scanFuzzCols})
	b.SeedDictionary("d", scanFuzzDict)
	for r := 0; r < rows; r++ {
		b.Append(int64(r/7), rng.Int63n(1000)-500, rng.Int63(), int64(r),
			rng.Int63n(1<<20), scanFuzzDict[rng.Intn(len(scanFuzzDict))], fmt.Sprintf("s%d", rng.Intn(100)))
	}
	if _, err := b.Finalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// scanFuzzOverlay returns one of the overlay shapes the host scan must
// apply: none, empty, delete-only, tail-only, deletes and a tail (some
// tail rows deleted again, so the tail is copied, not shared), and every
// base row deleted.
func scanFuzzOverlay(t *testing.T, rng *rand.Rand, tab *col.Table, kind int) *delta.Overlay {
	rows := tab.NumRows
	switch kind {
	case 0:
		return nil
	case 1:
		return &delta.Overlay{Table: "t", BaseRows: rows, TailCols: map[string][]int64{}}
	}
	d := delta.NewTable("t", rows, tab.ColumnNames())
	if kind == 3 || kind == 4 {
		n := 1 + rng.Intn(3000)
		if rng.Intn(8) == 0 {
			n = 33000 // a tail longer than a chunk
		}
		vals := make([][]int64, len(tab.Cols))
		for c, def := range tab.Cols {
			switch def.Typ {
			case col.Dict:
				vals[c] = make([]int64, n)
				for i := range vals[c] {
					vals[c][i] = rng.Int63n(int64(len(scanFuzzDict)))
				}
			case col.Text:
				strs := make([]string, n)
				for i := range strs {
					strs[i] = fmt.Sprintf("t%d", rng.Intn(100))
				}
				offs, err := col.AppendHeapStrings(tab.MustColumn(def.Name), strs)
				if err != nil {
					t.Fatal(err)
				}
				vals[c] = offs
			default:
				vals[c] = make([]int64, n)
				for i := range vals[c] {
					vals[c][i] = rng.Int63n(2000) - 1000
				}
			}
		}
		if _, err := d.Insert(1, vals); err != nil {
			t.Fatal(err)
		}
	}
	var victims []int64
	switch kind {
	case 2, 4:
		for i := rng.Intn(rows/3 + 2); i > 0; i-- {
			victims = append(victims, rng.Int63n(int64(rows)+1))
		}
		if kind == 4 {
			victims = append(victims, int64(rows), int64(rows+1))
		}
	case 5:
		for r := 0; r < rows; r++ {
			victims = append(victims, int64(r))
		}
	}
	d.Delete(2, victims)
	return d.OverlayAt(2)
}

// scanFuzzPred returns the filter to put over the scan (nil: a bare
// scan) and the columns it reads.
func scanFuzzPred(rng *rand.Rand, kind, rows int) (plan.Expr, []string) {
	switch kind {
	case 1:
		return plan.I(0), nil // keeps nothing
	case 2:
		return plan.I(1), nil // keeps everything
	case 3:
		return plan.LT(plan.C("a"), plan.I(rng.Int63n(int64(rows)/7+2))), []string{"a"}
	case 4:
		lo := rng.Int63n(1200) - 600
		return plan.Or(
			plan.And(plan.GE(plan.C("b"), plan.I(lo)), plan.LT(plan.C("b"), plan.I(lo+rng.Int63n(300)))),
			plan.GT(plan.C("c"), plan.I(rng.Int63n(1<<20))),
		), []string{"b", "c"}
	case 5:
		lo := rng.Int63n(int64(rows) + 100)
		return plan.Between(plan.C(plan.RowIDCol), plan.I(lo), plan.I(lo+rng.Int63n(40000))), []string{plan.RowIDCol}
	case 6:
		return plan.EQ(plan.C("d"), plan.S(scanFuzzDict[rng.Intn(len(scanFuzzDict))])), []string{"d"}
	case 7:
		// Needs the string heap: the scan runs bare, then the filter.
		return plan.Like{Col: "e", Pattern: fmt.Sprintf("%%%d%%", rng.Intn(10))}, []string{"e"}
	case 8:
		return plan.GT(plan.C("h"), plan.I(math.MaxInt64)), []string{"h"} // keeps nothing, read
	}
	return nil, nil
}

// FuzzHostScan holds the streaming host scan, bare and under a filter, to
// what materializing every column whole and then filtering it gives: the
// same rows in the same order, the same work counters and the same
// modelled memory footprint. The reference reads each column whole with
// ReadAll, applies the overlay by filtering and appending slices, and runs
// the engine's own filter over the result as a Materialized input.
func FuzzHostScan(f *testing.F) {
	// seed, row-count pick, flags (bit 0 auto, bits 1-3 overlay), predicate, column mask
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(4), uint8(1), uint8(3), uint8(0x01))
	f.Add(int64(3), uint8(5), uint8(2<<1), uint8(4), uint8(0xff))
	f.Add(int64(4), uint8(6), uint8(3<<1|1), uint8(5), uint8(0x80))
	f.Add(int64(5), uint8(7), uint8(4<<1), uint8(7), uint8(0x7f))
	f.Add(int64(6), uint8(9), uint8(5<<1|1), uint8(6), uint8(0x88))
	f.Add(int64(7), uint8(8), uint8(4<<1|1), uint8(1), uint8(0xff))
	f.Add(int64(8), uint8(5), uint8(1<<1), uint8(2), uint8(0x0f))
	f.Add(int64(9), uint8(13), uint8(4<<1|1), uint8(8), uint8(0xf0))
	f.Fuzz(func(t *testing.T, seed int64, rowPick, flags, predKind, colMask uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(70000)
		if int(rowPick) < len(scanFuzzRows) {
			rows = scanFuzzRows[rowPick]
		}
		s := scanFuzzStore(t, rng, rows, flags&1 == 1)
		tab := s.MustTable("t")
		ov := scanFuzzOverlay(t, rng, tab, int(flags>>1)%6)
		pred, reads := scanFuzzPred(rng, int(predKind)%9, rows)

		var cols []string
		for i, def := range scanFuzzCols {
			if colMask&(1<<i) != 0 {
				cols = append(cols, def.Name)
			}
		}
		if colMask&0x80 != 0 {
			cols = append(cols, plan.RowIDCol)
		}
		for _, c := range reads {
			if !slices.Contains(cols, c) {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			cols = []string{"b"}
		}
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

		scan := &plan.Scan{Table: "t", Cols: cols}
		var root plan.Node = scan
		if pred != nil {
			root = &plan.Filter{Input: scan, Pred: pred}
		}
		if err := plan.Bind(root, s); err != nil {
			t.Fatal(err)
		}
		e := New(s)
		e.SetOverlays(map[string]*delta.Overlay{"t": ov})
		got, err := e.Run(root)
		if err != nil {
			t.Fatal(err)
		}

		mat := &plan.Materialized{S: scan.Schema(), Cols: make([][]int64, len(cols)), Label: "whole columns"}
		for i, name := range cols {
			var base, tail []int64
			if name == plan.RowIDCol {
				base = make([]int64, rows)
				for r := range base {
					base[r] = int64(r)
				}
			} else {
				base = tab.MustColumn(name).MustReadAll(flash.Host)
			}
			if ov != nil {
				tail = ov.TailCols[name]
				if name == plan.RowIDCol {
					tail = ov.TailRowIDs
				}
			}
			for r, v := range base {
				if ov == nil || !ov.BaseDeleted(r) {
					mat.Cols[i] = append(mat.Cols[i], v)
				}
			}
			mat.Cols[i] = append(mat.Cols[i], tail...)
		}
		var ref plan.Node = mat
		if pred != nil {
			ref = &plan.Filter{Input: mat, Pred: pred}
			if err := plan.Bind(ref, s); err != nil {
				t.Fatal(err)
			}
		}
		re := New(s)
		want, err := re.Run(ref)
		if err != nil {
			t.Fatal(err)
		}

		for c := range cols {
			if !slices.Equal(got.Cols[c], want.Cols[c]) {
				t.Fatalf("rows %d, overlay %d, pred %v, cols %v: column %s has %d values, want %d (first %v, want %v)",
					rows, flags>>1%6, pred, cols, cols[c], len(got.Cols[c]), len(want.Cols[c]),
					got.Cols[c][:min(8, len(got.Cols[c]))], want.Cols[c][:min(8, len(want.Cols[c]))])
			}
		}
		if w := e.Stats.Work["scan"]; w != int64(rows*len(cols)) {
			t.Fatalf("scan work %d, want %d rows x %d columns", w, rows, len(cols))
		}
		delete(e.Stats.Work, "scan")
		if g, w := fmt.Sprintf("%+v", *e.Stats), fmt.Sprintf("%+v", *re.Stats); g != w {
			t.Fatalf("stats %s, want %s", g, w)
		}
	})
}
