package col

import (
	"sync"
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

// Concurrent readers — PagedReader streams, random ReadRange windows and
// Gathers — over one column store, with the shared page cache in front of
// the device, must all see identical data. Run with -race this pins down
// the col/flash/cache read path used by concurrent queries.
func TestConcurrentReadersSharedCache(t *testing.T) {
	dev := flash.NewDevice()
	s := NewStore(dev)
	b := s.NewTable(Schema{Name: "t", Cols: []ColDef{{Name: "v", Typ: Int64}}})
	const rows = 40000
	for i := 0; i < rows; i++ {
		b.Append(int64(i) * 3)
	}
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	dev.SetPageCache(sched.NewPageCache(16 * flash.PageSize))
	ci := tab.MustColumn("v")

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // sequential paged stream
				r := NewPagedReader(ci, flash.Aquoman)
				out := make([]Value, bitvec.VecSize)
				row := 0
				for vec := 0; vec*bitvec.VecSize < rows; vec++ {
					n, err := r.ReadVec(vec, out)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						if out[i] != int64(row)*3 {
							t.Errorf("vec %d row %d = %d", vec, row, out[i])
							return
						}
						row++
					}
				}
			case 1: // strided range windows
				out := make([]Value, 100)
				for start := g; start+100 < rows; start += 997 {
					n, err := ci.ReadRange(start, 100, flash.Host, out)
					if err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < n; i++ {
						if out[i] != int64(start+i)*3 {
							t.Errorf("range[%d+%d] = %d", start, i, out[i])
							return
						}
					}
				}
			default: // random gathers
				rowids := make([]Value, 0, 64)
				for i := 0; i < 64; i++ {
					rowids = append(rowids, int64((i*2654435761+g)%rows))
				}
				for rep := 0; rep < 20; rep++ {
					got, err := ci.Gather(nil, rowids, flash.Aquoman)
					if err != nil {
						t.Error(err)
						return
					}
					for i, id := range rowids {
						if got[i] != id*3 {
							t.Errorf("gather[%d] = %d, want %d", i, got[i], id*3)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
