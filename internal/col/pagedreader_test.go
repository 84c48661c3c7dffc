package col

import (
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/flash"
)

func buildWide(t *testing.T, n int) (*Store, *ColumnInfo) {
	t.Helper()
	s := testStore()
	b := s.NewTable(Schema{Name: "w", Cols: []ColDef{{Name: "v", Typ: Int32}}})
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = Value(i)
	}
	b.AppendColumnValues("v", vals)
	b.SetNumRows(n)
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s, tab.MustColumn("v")
}

func TestPagedReaderSequential(t *testing.T) {
	s, ci := buildWide(t, 1<<13) // 4 pages of int32
	s.Dev.ResetStats()
	r := NewPagedReader(ci, flash.Aquoman)
	if r.RowsPerPage() != flash.PageSize/4 {
		t.Fatalf("RowsPerPage = %d", r.RowsPerPage())
	}
	var out [bitvec.VecSize]Value
	total := 0
	for vec := 0; ; vec++ {
		n, _ := r.ReadVec(vec, out[:])
		if n == 0 {
			break
		}
		if out[0] != Value(vec*bitvec.VecSize) {
			t.Fatalf("vec %d starts with %d", vec, out[0])
		}
		total += n
	}
	if total != 1<<13 {
		t.Fatalf("rows = %d", total)
	}
	if r.PagesRead != 4 {
		t.Fatalf("PagesRead = %d, want 4 (one per page, buffered)", r.PagesRead)
	}
	if s.Dev.Stats().PagesRead[flash.Aquoman] != 4 {
		t.Fatalf("device pages = %d", s.Dev.Stats().PagesRead[flash.Aquoman])
	}
}

func TestPagedReaderSkipWholePages(t *testing.T) {
	_, ci := buildWide(t, 1<<13)
	r := NewPagedReader(ci, flash.Aquoman)
	vecsPerPage := r.VecsPerPage()
	var out [bitvec.VecSize]Value
	// Read the first page, skip the second entirely, read the third.
	for vec := 0; vec < vecsPerPage; vec++ {
		r.ReadVec(vec, out[:])
	}
	for vec := vecsPerPage; vec < 2*vecsPerPage; vec++ {
		r.SkipVec(vec)
	}
	for vec := 2 * vecsPerPage; vec < 3*vecsPerPage; vec++ {
		r.ReadVec(vec, out[:])
	}
	if r.PagesRead != 2 || r.PagesSkipped != 1 {
		t.Fatalf("read %d skipped %d, want 2/1", r.PagesRead, r.PagesSkipped)
	}
}

func TestPagedReaderSkipThenReadSamePage(t *testing.T) {
	_, ci := buildWide(t, 1<<13)
	r := NewPagedReader(ci, flash.Aquoman)
	var out [bitvec.VecSize]Value
	// Skip an early vector of page 0, then read a later vector of page 0:
	// the page must count as read, not skipped.
	r.SkipVec(0)
	r.ReadVec(1, out[:])
	if r.PagesRead != 1 || r.PagesSkipped != 0 {
		t.Fatalf("read %d skipped %d, want 1/0", r.PagesRead, r.PagesSkipped)
	}
}

func TestPagedReaderPastEnd(t *testing.T) {
	_, ci := buildWide(t, 100)
	r := NewPagedReader(ci, flash.Aquoman)
	var out [bitvec.VecSize]Value
	if n, _ := r.ReadVec(3, out[:]); n != 4 { // rows 96..99
		t.Fatalf("tail vec rows = %d, want 4", n)
	}
	if n, _ := r.ReadVec(4, out[:]); n != 0 {
		t.Fatalf("past-end rows = %d", n)
	}
}

// A window that ends in the middle of a page: EndWindow gives the reader its
// own copy of the page under the cursor, so the memory behind the batch can
// be reused at once, and the page is neither read from the device nor
// counted a second time.
func TestPagedReaderEndWindowDetachesCursorPage(t *testing.T) {
	s, ci := buildWide(t, 1<<13) // 4 pages of int32, 64 vectors a page
	s.Dev.ResetStats()
	r := NewPagedReader(ci, flash.Aquoman)
	defer r.Close()
	vpp := r.VecsPerPage()
	mask := bitvec.NewFull(1 << 13)
	scratch := make([]byte, 4*flash.PageSize)
	var b flash.Batch
	var out [bitvec.VecSize]Value
	read := func(v0, v1 int) {
		t.Helper()
		for vec := v0; vec < v1; vec++ {
			if _, err := r.ReadVec(vec, out[:]); err != nil {
				t.Fatal(err)
			}
			if out[0] != Value(vec*bitvec.VecSize) {
				t.Fatalf("vec %d starts with %d", vec, out[0])
			}
		}
	}

	mid := vpp + vpp/2 // halfway through page 1
	b.Reset(scratch)
	r.PlanWindow(&b, 0, mid, mask)
	if b.Len() != 2 {
		t.Fatalf("first window plans %d pages, want 2", b.Len())
	}
	if err := b.Read(nil, flash.Aquoman); err != nil {
		t.Fatal(err)
	}
	r.TakeWindow(&b)
	read(0, mid)

	r.EndWindow(mid)
	for i := range scratch {
		scratch[i] = 0xAA
	}
	b.Reset(scratch)
	r.PlanWindow(&b, mid, 4*vpp, mask)
	if b.Len() != 2 {
		t.Fatalf("second window plans %d pages, want 2 (page 1 is under the cursor)", b.Len())
	}
	if err := b.Read(nil, flash.Aquoman); err != nil {
		t.Fatal(err)
	}
	r.TakeWindow(&b)
	read(mid, 4*vpp)

	if r.PagesRead != 4 {
		t.Fatalf("PagesRead = %d, want 4", r.PagesRead)
	}
	if got := s.Dev.Stats().PagesRead[flash.Aquoman]; got != 4 {
		t.Fatalf("device pages = %d, want 4", got)
	}
}

func TestGatherPageBuffered(t *testing.T) {
	s, ci := buildWide(t, 1<<13)
	s.Dev.ResetStats()
	// Clustered rowids spanning two pages: page reads must equal the
	// pages touched, not the element count.
	rowids := make([]Value, 3000)
	for i := range rowids {
		rowids[i] = Value(i)
	}
	got, _ := ci.Gather(nil, rowids, flash.Aquoman)
	for i := range rowids {
		if got[i] != rowids[i] {
			t.Fatalf("gather[%d] = %d", i, got[i])
		}
	}
	if pages := s.Dev.Stats().PagesRead[flash.Aquoman]; pages != 2 {
		t.Fatalf("pages = %d, want 2 (clustered gather is sequential)", pages)
	}
	// Strided rowids hit a new page each time.
	s.Dev.ResetStats()
	stride := Value(flash.PageSize / 4)
	ci.Gather(nil, []Value{0, stride, 2 * stride, 3 * stride}, flash.Aquoman)
	if pages := s.Dev.Stats().PagesRead[flash.Aquoman]; pages != 4 {
		t.Fatalf("strided pages = %d, want 4", pages)
	}
}

func TestOrderFlags(t *testing.T) {
	s := testStore()
	b := s.NewTable(Schema{Name: "o", Cols: []ColDef{
		{Name: "asc", Typ: Int64},
		{Name: "dup", Typ: Int64},
		{Name: "rnd", Typ: Int64},
	}})
	b.Append(int64(1), int64(1), int64(5))
	b.Append(int64(2), int64(1), int64(3))
	b.Append(int64(5), int64(2), int64(9))
	tab, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	a := tab.MustColumn("asc")
	if !a.Sorted || !a.Unique {
		t.Fatalf("asc flags = %v/%v", a.Sorted, a.Unique)
	}
	d := tab.MustColumn("dup")
	if !d.Sorted || d.Unique {
		t.Fatalf("dup flags = %v/%v", d.Sorted, d.Unique)
	}
	r := tab.MustColumn("rnd")
	if r.Sorted || r.Unique {
		t.Fatalf("rnd flags = %v/%v", r.Sorted, r.Unique)
	}
}
