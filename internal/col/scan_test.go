package col

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// A Scanner reads what ReadAll reads, value for value and page for page
// (sequential and random reads per requester), and allocates nothing per
// chunk once its first chunk is in. The table is wider than one device
// batch holds per 32 k rows, so chunks end inside some columns' pages, and
// on the auto store its pages hold varying row counts.
func TestScannerMatchesReadAll(t *testing.T) {
	const rows = 70001
	for _, sel := range []enc.Selection{enc.SelRaw, enc.SelAuto} {
		s := NewStore(flash.NewDevice())
		s.DefaultEncoding = sel
		b := s.NewTable(Schema{Name: "t", Cols: []ColDef{
			{Name: "a", Typ: Int64}, {Name: "b", Typ: Int64}, {Name: "c", Typ: Int64}, {Name: "d", Typ: Int64},
			{Name: "e", Typ: Int32}, {Name: "f", Typ: Dict}, {Name: "g", Typ: Text},
		}})
		for r := 0; r < rows; r++ {
			b.Append(r/9, r%1000, r*r, -r, r%77, fmt.Sprint("k", r%5), fmt.Sprint("s", r%13))
		}
		tab, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		for _, names := range [][]string{tab.ColumnNames(), {"e"}, {"a", "", "d"}} {
			t.Run(fmt.Sprintf("%v/%q", sel, names), func(t *testing.T) {
				cols := make([]*ColumnInfo, len(names)) // "" is the row-id column
				want := make([][]Value, len(names))
				readAll := func() {
					for i, name := range names {
						if name == "" {
							want[i] = make([]Value, rows)
							for r := range want[i] {
								want[i][r] = Value(r)
							}
							continue
						}
						cols[i] = tab.MustColumn(name)
						want[i] = cols[i].MustReadAll(flash.Host)
					}
				}
				readAll() // each file's stream now ends where a scan's does
				s.Dev.ResetStats()
				readAll()
				wantStats := s.Dev.Stats()
				s.Dev.ResetStats()

				sc := NewScanner(nil, cols, rows, flash.Host)
				defer sc.Close()
				var before, after runtime.MemStats
				next := 0
				for chunk := 0; ; chunk++ {
					if chunk == 1 {
						runtime.ReadMemStats(&before)
					}
					start, n, err := sc.Next()
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					if start != next {
						t.Fatalf("chunk %d starts at row %d, want %d", chunk, start, next)
					}
					for c := range names {
						if !slices.Equal(sc.Cols[c][:n], want[c][start:start+n]) {
							t.Fatalf("chunk %d of column %q differs from ReadAll", chunk, names[c])
						}
					}
					next += n
				}
				runtime.ReadMemStats(&after)
				if next != rows {
					t.Fatalf("scanned %d rows, want %d", next, rows)
				}
				if grew := after.Mallocs - before.Mallocs; grew != 0 {
					t.Errorf("%d allocations after the first chunk", grew)
				}
				gotStats := s.Dev.Stats()
				if g, w := gotStats.PagesRead[flash.Host], wantStats.PagesRead[flash.Host]; g != w {
					t.Errorf("%d pages read, ReadAll reads %d", g, w)
				}
				if g, w := gotStats.PagesReadRandom[flash.Host], wantStats.PagesReadRandom[flash.Host]; g != w {
					t.Errorf("%d random page reads, ReadAll makes %d", g, w)
				}
			})
		}
	}
}
