package col

import (
	"context"
	"fmt"

	"aquoman/internal/bitvec"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/pool"
)

// The process-wide pool hands out flash-page-sized buffers; these
// zero-length arrays fail to compile if the two constants ever diverge.
var (
	_ [pool.PageSize - flash.PageSize]struct{}
	_ [flash.PageSize - pool.PageSize]struct{}
	_ [pool.WindowPages - flash.QueueDepth]struct{}
	_ [flash.QueueDepth - pool.WindowPages]struct{}
)

// ReaderStats counts one sequential pass's page traffic, including the
// encoding-aware accounting: pages avoided by zone-map pruning, flash
// bytes saved relative to the raw fixed-width layout, and decoded page
// counts per codec.
type ReaderStats struct {
	// PagesRead / PagesSkipped count this pass's page traffic.
	PagesRead    int64
	PagesSkipped int64
	// PagesPruned counts pages never read because the predicate's
	// interval over the page's zone map was provably zero.
	PagesPruned int64
	// EncBytesSaved accumulates, per decoded page, how many fewer flash
	// bytes the encoded page cost than its rows would have cost raw.
	EncBytesSaved int64
	// EncDecoded counts decoded pages per codec (Raw stays zero). Pages
	// consumed whole by the encoded-aggregation kernel count here too:
	// the kernel is a decode that never materializes.
	EncDecoded [enc.NumCodecs]int64
}

// Add accumulates another pass's counters into s.
func (s *ReaderStats) Add(o ReaderStats) {
	s.PagesRead += o.PagesRead
	s.PagesSkipped += o.PagesSkipped
	s.PagesPruned += o.PagesPruned
	s.EncBytesSaved += o.EncBytesSaved
	for i := range s.EncDecoded {
		s.EncDecoded[i] += o.EncDecoded[i]
	}
}

// PagedReader streams a column through a page buffer, the way AQUOMAN's
// Column Reader and Table Reader consume flash (the prototype's 1 MB Flash
// Page Buffer): each flash page is read at most once per sequential pass,
// and pages whose Row Vectors are all masked out are skipped entirely. On
// encoded columns the reader holds one decoded page and exposes the
// encoded representation (dictionary codes, frame-of-reference deltas) so
// callers can evaluate on it directly.
//
// Left alone, the reader fetches one page at a time, when a vector first
// needs it. A scan that knows its row mask ahead of the reads can instead
// fetch a window of pages in one device batch (PlanWindow / TakeWindow):
// the reader then serves its vectors from the window, and because the
// window's page set is derived from the same mask the vector calls obey,
// it holds exactly the pages those calls would have fetched one by one.
// EndWindow closes the window: the reader keeps a copy of its own of the
// page under the cursor if later vectors still sit on it, and no view into
// the window's pages outlives the call. Page accounting is done when a
// vector first uses a page, so both ways of reading count the same.
//
// The reader's own page buffer is checked out of the process-wide pool on
// first use and returned by Close; the decoded-page scratch is reused
// across pages. A reader that has warmed up performs no heap allocation
// per page.
type PagedReader struct {
	ci  *ColumnInfo
	who flash.Requester
	ctx context.Context // nil = never cancelled

	bytesPage int64  // flash page under the cursor; -1 = none
	cur       []byte // its bytes (the last page may be short): buf, the cache's copy, or a window page
	curInWin  bool   // cur is a view into the current window, which EndWindow must detach
	buf       []byte // pooled page image, acquired lazily, released by Close
	one       flash.Batch

	// The current window: pages fetched ahead, ascending, and the position
	// the cursor has reached in them.
	winPages []int64
	winData  [][]byte
	winNext  int
	winBase  int // where this reader's pages start in the batch being planned

	decPage int64    // encoded page currently decoded into page; -1 = none
	page    enc.Page // reusable decoded-page scratch

	encAccounted int64 // last page charged to EncDecoded/EncBytesSaved

	ReaderStats
	lastSkipped int64
	pruned      map[int]bool
}

// NewPagedReader starts a sequential pass over the column. Callers must
// Close the reader when the pass ends to return its pooled page buffer.
func NewPagedReader(ci *ColumnInfo, who flash.Requester) *PagedReader {
	return &PagedReader{
		ci: ci, who: who,
		bytesPage: -1, decPage: -1, encAccounted: -1, lastSkipped: -1,
	}
}

// Close ends the pass and returns the pooled page buffer. Idempotent; the
// reader must not read again afterwards (stats remain available).
func (r *PagedReader) Close() {
	if r.buf != nil {
		pool.Pages.Put(r.buf)
		r.buf = nil
	}
	r.bytesPage = -1
	r.cur, r.curInWin = nil, false
	r.winPages, r.winData = r.winPages[:0], r.winData[:0]
	r.decPage = -1
}

// SetContext attaches a cancellation context to the pass: every page load
// checks ctx first, so a cancelled query stops issuing flash page reads
// at the next page boundary. A nil ctx (the default) never cancels.
func (r *PagedReader) SetContext(ctx context.Context) { r.ctx = ctx }

// Codec reports the column's storage codec (Raw for the legacy layout).
func (r *PagedReader) Codec() enc.Codec { return r.ci.Codec() }

// Meta returns the encoded column's page directory, or nil for raw.
func (r *PagedReader) Meta() *enc.ColumnMeta { return r.ci.Enc }

// RowsPerPage returns how many rows one flash page of this column holds.
// Only meaningful for raw columns; encoded pages carry variable counts.
func (r *PagedReader) RowsPerPage() int {
	return flash.PageSize / r.ci.Def.Typ.Width()
}

// VecsPerPage returns how many 32-row vectors one page holds.
func (r *PagedReader) VecsPerPage() int { return r.RowsPerPage() / bitvec.VecSize }

// MarkPruned records that page pi was eliminated by zone-map pruning
// before the scan. SkipVec calls landing on a pruned page are not double
// counted as mask skips; if the page ends up read after all (it can't be,
// when pruning is sound, but the accounting stays honest) the prune is
// revoked.
func (r *PagedReader) MarkPruned(pi int) {
	if r.pruned == nil {
		r.pruned = make(map[int]bool)
	}
	if !r.pruned[pi] {
		r.pruned[pi] = true
		r.PagesPruned++
	}
}

// vecPage maps a Row Vector to its flash page index.
func (r *PagedReader) vecPage(vec int) int64 { return r.ci.rowPage(vec * bitvec.VecSize) }

// pageVecs returns the Row Vectors [lo, hi) that flash page pi holds.
func (r *PagedReader) pageVecs(pi int64) (lo, hi int) {
	if r.ci.Enc != nil {
		pm := r.ci.Enc.Pages[pi]
		return pm.StartRow / bitvec.VecSize, (pm.StartRow + pm.Count + bitvec.VecSize - 1) / bitvec.VecSize
	}
	vpp := r.VecsPerPage()
	return int(pi) * vpp, (int(pi) + 1) * vpp
}

// PageSpan returns how many flash pages of this column Row Vectors
// [v0, v1) lie on — the most a window over them can hold.
func (r *PagedReader) PageSpan(v0, v1 int) int {
	return int(r.vecPage(v1-1)-r.vecPage(v0)) + 1
}

// EndWindow closes the current window ahead of Row Vector next, the first
// one the pass has not consumed. The window's pages are dropped, and with
// them the page under the cursor, unless next still sits on that page: then
// the reader copies it into its own page buffer. Either way the reader
// holds no view into the window afterwards, so the caller may reuse the
// memory behind the batch. Idempotent; a reader with no window is left
// alone.
func (r *PagedReader) EndWindow(next int) {
	r.winPages, r.winData, r.winNext = r.winPages[:0], r.winData[:0], 0
	if !r.curInWin {
		return
	}
	r.curInWin = false
	if r.bytesPage == r.vecPage(next) {
		r.cur = r.buf[:copy(r.buf, r.cur)]
	} else {
		r.bytesPage, r.cur = -1, nil
	}
}

// PlanWindow starts a new window over Row Vectors [v0, v1), ending the one
// before: it adds to b the pages of this column that hold at least one
// vector mask has not zeroed (every vector, for a nil mask), leaving out
// the page already under the cursor. Those are exactly the pages a ReadVec
// for every live vector and a SkipVec for every dead one would fetch.
// After b.Read succeeds, TakeWindow hands the reader its pages.
func (r *PagedReader) PlanWindow(b *flash.Batch, v0, v1 int, mask *bitvec.Mask) {
	// The reader's own page is checked out with the first window, so that a
	// warmed-up scan never goes to the pool.
	if r.buf == nil {
		r.buf = pool.Pages.Get()
	}
	r.EndWindow(v0)
	r.winBase = b.Len()
	for pi, last := r.vecPage(v0), r.vecPage(v1-1); pi <= last; pi++ {
		if pi == r.bytesPage {
			continue
		}
		lo, hi := r.pageVecs(pi)
		for v := max(lo, v0); v < min(hi, v1); v++ {
			if mask == nil || !mask.VecAllZero(v) {
				b.Add(r.ci.File, pi)
				r.winPages = append(r.winPages, pi)
				break
			}
		}
	}
}

// TakeWindow adopts the pages PlanWindow added to b, once b has been read.
// The pages must stay valid (see flash.Batch.Reset) until EndWindow; a
// caller that shares the memory behind b among several readers ends every
// reader's window before it reuses any of it.
func (r *PagedReader) TakeWindow(b *flash.Batch) {
	for i := range r.winPages {
		r.winData = append(r.winData, b.Page(r.winBase+i))
	}
}

// loadPageBytes puts flash page pi under the cursor — from the current
// window when it is there, else by a one-page device read — and accounts
// the read (revoking a provisional skip or prune on the same page). The
// returned slice is read-only and valid until the next load on this reader.
func (r *PagedReader) loadPageBytes(pi int64) ([]byte, error) {
	if pi == r.bytesPage {
		return r.cur, nil
	}
	// Invalidate first: a failed read leaves no page under the cursor.
	r.bytesPage = -1
	for r.winNext < len(r.winData) && r.winPages[r.winNext] < pi {
		r.winNext++
	}
	r.curInWin = r.winNext < len(r.winData) && r.winPages[r.winNext] == pi
	if r.curInWin {
		r.cur = r.winData[r.winNext]
	} else {
		if r.buf == nil {
			r.buf = pool.Pages.Get()
		}
		r.one.Reset(r.buf)
		r.one.Add(r.ci.File, pi)
		if err := r.one.Read(r.ctx, r.who); err != nil {
			return nil, err
		}
		r.cur = r.one.Page(0)
	}
	if pi == r.lastSkipped {
		// An earlier vector of this page was masked; the page is being
		// read after all.
		r.PagesSkipped--
		r.lastSkipped = -1
	}
	if r.pruned[int(pi)] {
		delete(r.pruned, int(pi))
		r.PagesPruned--
	}
	r.bytesPage = pi
	r.PagesRead++
	return r.cur, nil
}

// accountEnc charges one encoded page to the codec counters exactly once,
// whether it was materialized by decode or consumed whole by the
// aggregation kernel.
func (r *PagedReader) accountEnc(pi int64, count int) {
	if pi == r.encAccounted {
		return
	}
	r.encAccounted = pi
	r.EncDecoded[r.ci.Enc.Codec]++
	if saved := int64(count)*int64(r.ci.Def.Typ.Width()) - flash.PageSize; saved > 0 {
		r.EncBytesSaved += saved
	}
}

// loadEncPage reads and decodes encoded page pi into the reusable scratch.
func (r *PagedReader) loadEncPage(pi int) (*enc.Page, error) {
	if int64(pi) == r.decPage {
		return &r.page, nil
	}
	buf, err := r.loadPageBytes(int64(pi))
	if err != nil {
		return nil, err
	}
	r.decPage = -1
	if err := enc.DecodePageInto(&r.page, buf, r.ci.Enc.Dict); err != nil {
		return nil, fmt.Errorf("col: column %s page %d: %w", r.ci.Def.Name, pi, err)
	}
	r.decPage = int64(pi)
	r.accountEnc(int64(pi), r.page.Count)
	return &r.page, nil
}

// PageAggregate computes COUNT/SUM/MIN/MAX over encoded page pi straight
// from its flash image, without decoding (enc.AggregatePage). ok is false
// when the column's codec has no encoded-aggregation kernel (raw, Dict);
// the caller falls back to the materializing path, which reuses the page
// bytes already buffered. A kernel-consumed page is accounted exactly
// like a decoded one (PagesRead, EncDecoded, EncBytesSaved), so fused and
// unfused passes report identical stats.
func (r *PagedReader) PageAggregate(pi int) (enc.PageAgg, bool, error) {
	if r.ci.Enc == nil || (r.ci.Enc.Codec != enc.RLE && r.ci.Enc.Codec != enc.FOR) {
		return enc.PageAgg{}, false, nil
	}
	buf, err := r.loadPageBytes(int64(pi))
	if err != nil {
		return enc.PageAgg{}, false, err
	}
	agg, ok, err := enc.AggregatePage(buf)
	if err != nil {
		return enc.PageAgg{}, false, fmt.Errorf("col: column %s page %d: %w", r.ci.Def.Name, pi, err)
	}
	if !ok {
		return agg, false, nil
	}
	r.accountEnc(int64(pi), agg.Count)
	return agg, true, nil
}

// encVecSpan locates Row Vector vec inside its encoded page. Interior
// pages hold a multiple of 32 rows, so a vector never straddles pages.
func (r *PagedReader) encVecSpan(vec int) (pi, off, count int) {
	start := vec * bitvec.VecSize
	pi = r.ci.Enc.PageFor(start)
	pm := r.ci.Enc.Pages[pi]
	off = start - pm.StartRow
	count = bitvec.VecSize
	if start+count > r.ci.numRows {
		count = r.ci.numRows - start
	}
	return pi, off, count
}

// ReadVec fills out with Row Vector vec and returns the number of valid
// rows (0 past the end). Page loads are accounted once per page; a page
// read failing (fault injection, budget exhausted) fails the vector. On
// encoded columns the values are materialized from the decoded page.
func (r *PagedReader) ReadVec(vec int, out []Value) (int, error) {
	start := vec * bitvec.VecSize
	if start >= r.ci.numRows {
		return 0, nil
	}
	if r.ci.Enc != nil {
		pi, off, count := r.encVecSpan(vec)
		p, err := r.loadEncPage(pi)
		if err != nil {
			return 0, err
		}
		copy(out[:count], p.Values()[off:off+count])
		return count, nil
	}
	w := r.ci.Def.Typ.Width()
	page := int64(start) * int64(w) / flash.PageSize
	buf, err := r.loadPageBytes(page)
	if err != nil {
		return 0, err
	}
	count := bitvec.VecSize
	if start+count > r.ci.numRows {
		count = r.ci.numRows - start
	}
	off := start*w - int(page)*flash.PageSize
	decode(r.ci.Def.Typ, buf[off:off+count*w], out[:count])
	return count, nil
}

// ReadVecCodes fills out with the vector's dictionary codes without
// materializing values. ok is false when the column is not
// dictionary-encoded; the caller falls back to ReadVec.
func (r *PagedReader) ReadVecCodes(vec int, out []int64) (n int, ok bool, err error) {
	if r.ci.Enc == nil || r.ci.Enc.Codec != enc.Dict {
		return 0, false, nil
	}
	start := vec * bitvec.VecSize
	if start >= r.ci.numRows {
		return 0, true, nil
	}
	pi, off, count := r.encVecSpan(vec)
	p, err := r.loadEncPage(pi)
	if err != nil {
		return 0, true, err
	}
	copy(out[:count], p.Native[off:off+count])
	return count, true, nil
}

// SkipVec notes that Row Vector vec was masked out. When every vector of
// a page is skipped the whole page read is avoided (the Table Reader's
// {RowVecID, MaskAllZero} path). Vectors of zone-map-pruned pages are
// already accounted under PagesPruned and are not counted again.
func (r *PagedReader) SkipVec(vec int) {
	page := r.vecPage(vec)
	if r.pruned[int(page)] {
		return
	}
	if page != r.bytesPage && page != r.lastSkipped {
		r.PagesSkipped++
		r.lastSkipped = page
	}
}
