package col

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// buildEnc builds a one-column table under the given encoding selection.
func buildEnc(t *testing.T, sel enc.Selection, vals []Value) (*Store, *Table) {
	t.Helper()
	s := testStore()
	s.DefaultEncoding = sel
	b := s.NewTable(Schema{Name: "e", Cols: []ColDef{{Name: "v", Typ: Int32}}})
	b.AppendColumnValues("v", vals)
	b.SetNumRows(len(vals))
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s, tab
}

func encTestVals(n int) []Value {
	rng := rand.New(rand.NewSource(17))
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(1+rng.Intn(50)) * 100 // l_quantity shape
	}
	return vals
}

// Every read path must return identical data for raw and encoded columns.
func TestEncodedReadEquality(t *testing.T) {
	vals := encTestVals(40000)
	_, rawTab := buildEnc(t, enc.SelRaw, vals)
	for _, sel := range []enc.Selection{enc.SelAuto, enc.SelDict, enc.SelRLE, enc.SelFOR} {
		t.Run(sel.String(), func(t *testing.T) {
			_, tab := buildEnc(t, sel, vals)
			ci := tab.MustColumn("v")
			if sel != enc.SelAuto && ci.Codec().String() != sel.String() {
				t.Fatalf("codec = %s, want %s", ci.Codec(), sel)
			}
			raw := rawTab.MustColumn("v")

			// ReadAll / ReadRange with odd offsets.
			got, err := ci.ReadAll(flash.Host)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("ReadAll[%d] = %d, want %d", i, got[i], vals[i])
				}
			}
			for _, span := range [][2]int{{0, 7}, {31, 64}, {1000, 2500}, {39990, 10}, {39999, 1}} {
				buf := make([]Value, span[1])
				ref := make([]Value, span[1])
				n1, err1 := ci.ReadRange(span[0], span[1], flash.Host, buf)
				n2, err2 := raw.ReadRange(span[0], span[1], flash.Host, ref)
				if err1 != nil || err2 != nil || n1 != n2 {
					t.Fatalf("ReadRange(%v): n=%d/%d err=%v/%v", span, n1, n2, err1, err2)
				}
				for i := 0; i < n1; i++ {
					if buf[i] != ref[i] {
						t.Fatalf("ReadRange(%v)[%d] = %d, want %d", span, i, buf[i], ref[i])
					}
				}
			}

			// Gather random rowids, including out-of-range.
			rng := rand.New(rand.NewSource(5))
			ids := make([]int64, 500)
			for i := range ids {
				ids[i] = int64(rng.Intn(len(vals) + 100))
			}
			g1, err1 := ci.Gather(nil, ids, flash.Host)
			g2, err2 := raw.Gather(nil, ids, flash.Host)
			if err1 != nil || err2 != nil {
				t.Fatalf("Gather: %v / %v", err1, err2)
			}
			for i := range ids {
				if g1[i] != g2[i] {
					t.Fatalf("Gather[%d] (rowid %d) = %d, want %d", i, ids[i], g1[i], g2[i])
				}
			}

			// PagedReader vector pass.
			r := NewPagedReader(ci, flash.Aquoman)
			var out [bitvec.VecSize]Value
			row := 0
			for vec := 0; ; vec++ {
				n, err := r.ReadVec(vec, out[:])
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				for j := 0; j < n; j++ {
					if out[j] != vals[row+j] {
						t.Fatalf("vec %d row %d = %d, want %d", vec, row+j, out[j], vals[row+j])
					}
				}
				row += n
			}
			if row != len(vals) {
				t.Fatalf("reader covered %d rows, want %d", row, len(vals))
			}
		})
	}
}

// An encoded column must occupy fewer flash pages and the paged reader
// must read fewer pages for a full pass than the raw layout.
func TestEncodedFewerPages(t *testing.T) {
	vals := encTestVals(200000)
	_, rawTab := buildEnc(t, enc.SelRaw, vals)
	_, encTab := buildEnc(t, enc.SelAuto, vals)
	rawPages := (rawTab.MustColumn("v").File.Size() + flash.PageSize - 1) / flash.PageSize
	ci := encTab.MustColumn("v")
	encPages := int64(len(ci.Enc.Pages))
	if encPages*2 > rawPages {
		t.Fatalf("auto encoding: %d pages vs %d raw — expected at least 2x fewer", encPages, rawPages)
	}
	r := NewPagedReader(ci, flash.Aquoman)
	var out [bitvec.VecSize]Value
	for vec := 0; ; vec++ {
		n, err := r.ReadVec(vec, out[:])
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if r.PagesRead != encPages {
		t.Fatalf("full pass read %d pages, want %d", r.PagesRead, encPages)
	}
	if r.EncBytesSaved == 0 {
		t.Fatal("EncBytesSaved = 0 on a compressed pass")
	}
}

// Persisted encoded stores round-trip through the v2 manifest; all-raw
// stores keep writing v1.
func TestPersistEncodedRoundTrip(t *testing.T) {
	vals := encTestVals(30000)
	s, _ := buildEnc(t, enc.SelAuto, vals)
	dir := t.TempDir()
	if err := SaveStore(s, dir); err != nil {
		t.Fatal(err)
	}
	dev := flash.NewDevice()
	s2, err := LoadStore(dir, dev)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := s2.Table("e")
	if err != nil {
		t.Fatal(err)
	}
	ci := tab.MustColumn("v")
	if ci.Enc == nil {
		t.Fatal("encoding metadata lost across persist")
	}
	got, err := ci.ReadAll(flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("row %d = %d, want %d", i, got[i], vals[i])
		}
	}

	// All-raw stores must keep the v1 manifest (older readers stay able
	// to open them).
	sRaw, _ := buildEnc(t, enc.SelRaw, vals[:100])
	rawDir := t.TempDir()
	if err := SaveStore(sRaw, rawDir); err != nil {
		t.Fatal(err)
	}
	for dirp, want := range map[string]string{dir: `"version": 2`, rawDir: `"version": 1`} {
		buf, err := os.ReadFile(filepath.Join(dirp, "catalog.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(buf), want) {
			t.Fatalf("catalog at %s missing %q", dirp, want)
		}
	}
}

// ReEncodeColumn rewrites in place and every read path sees the new
// layout immediately (the flash file generation bump invalidates caches).
func TestReEncodeColumn(t *testing.T) {
	vals := encTestVals(30000)
	s, tab := buildEnc(t, enc.SelRaw, vals)
	ci := tab.MustColumn("v")
	if ci.Enc != nil {
		t.Fatal("raw build has encoding metadata")
	}
	rawSize := ci.File.Size()
	if err := tab.ReEncodeColumn("v", enc.SelDict); err != nil {
		t.Fatal(err)
	}
	ci = tab.MustColumn("v")
	if ci.Codec() != enc.Dict {
		t.Fatalf("codec = %s after re-encode, want dict", ci.Codec())
	}
	if ci.File.Size() >= rawSize {
		t.Fatalf("dict re-encode grew the file: %d >= %d", ci.File.Size(), rawSize)
	}
	got, err := ci.ReadAll(flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("row %d = %d after re-encode, want %d", i, got[i], vals[i])
		}
	}
	// And back to raw.
	if err := tab.ReEncodeColumn("v", enc.SelRaw); err != nil {
		t.Fatal(err)
	}
	ci = tab.MustColumn("v")
	if ci.Enc != nil || ci.File.Size() != rawSize {
		t.Fatal("round-trip back to raw did not restore the legacy layout")
	}
	_ = s
}
