package flash

import (
	"context"
	"fmt"

	"aquoman/internal/obs"
)

// PageID names one page of one file.
type PageID struct {
	File string
	Page int64
}

// PageFiller is the device half of a page-cache fill. The cache works out
// which pages of a batch it is missing and hands the whole set to one
// FillPages call, which the device serves as one command-queue submit.
type PageFiller interface {
	// FillPages reads page ids[miss[k]] of the batch for every k and
	// stores a private copy of it in data[k], or the reason it could not
	// be read in errs[k]. It returns once the device has delivered the
	// last page.
	FillPages(miss []int, data [][]byte, errs []error)
}

// Batch is a multi-page read: pages of one or more files of one device,
// fetched as a single submit to the command queue, so the caller waits for
// the device once instead of once per page. Through a page cache, resident
// pages cost nothing and only the missing set reaches the device.
//
// A Batch is reusable — Reset, Add the pages, Read, look at them with
// Page — and a batch that has grown to its working size allocates nothing
// when every page is a cache hit, which is what keeps a warm scan
// allocation-free however many pages it touches. Not safe for concurrent
// use.
type Batch struct {
	files   []*File
	ids     []PageID
	data    [][]byte
	scratch []byte
	errs    []error // fill's per-page fault results when the caller keeps none

	// Set for the duration of one Read; FillPages needs them.
	ctx context.Context
	who Requester
}

// Reset empties the batch. scratch is where an uncached device delivers
// the pages (page i of the batch at scratch[i*PageSize:]); it must stay
// untouched until the caller is done with Page. A page that does not fit
// in what is left of the scratch — or any page, when there is none — gets
// an allocation of its own.
func (b *Batch) Reset(scratch []byte) {
	b.files = b.files[:0]
	b.ids = b.ids[:0]
	b.data = b.data[:0]
	b.scratch = scratch
}

// Add appends one page of f to the batch. The device's sequential-stream
// accounting runs page by page in Add order, so a batch counts the seeks
// that reading its pages one by one would; a scan adds them ascending.
func (b *Batch) Add(f *File, page int64) {
	b.files = append(b.files, f)
	b.ids = append(b.ids, PageID{File: f.name, Page: page})
	b.data = append(b.data, nil)
}

// Len returns the number of pages added since Reset.
func (b *Batch) Len() int { return len(b.ids) }

// Page returns the content of the i-th page added (short for a file's
// last page, nil past its end) after a successful Read. The bytes are
// read-only — behind a cache they are the cache's shared copy — and valid
// until the next Reset.
func (b *Batch) Page(i int) []byte { return b.data[i] }

// Read fetches every page of the batch, and is the only way to the device:
// whether a page is served by the installed cache or read from the file is
// decided here and nowhere else. A page that cannot be read (fault
// injection, retry budget exhausted) fails the batch with the error of the
// first such page in Add order, wrapping the injector's typed error; its
// neighbours are still read, and behind a cache still cached. ctx (nil =
// never cancelled) is checked before anything is issued and again once
// the device has delivered, and it interrupts the wait in between; it also
// carries the query's obs.Lifecycle for wait-state attribution.
func (b *Batch) Read(ctx context.Context, who Requester) error {
	if len(b.ids) == 0 {
		return nil
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	b.ctx, b.who = ctx, who
	defer func() { b.ctx = nil }()
	var err error
	if cache := b.files[0].dev.PageCache(); cache != nil {
		err = cache.GetPages(ctx, b.ids, b.data, b)
	} else {
		// Straight off the device: fault checks, copies and the wait for
		// the command queue are all device-read time.
		r := obs.LifecycleFrom(ctx).Begin(obs.StateDeviceRead)
		err = b.fill(nil, b.data, nil)
		r.End()
	}
	if err == nil && ctx != nil {
		err = ctx.Err()
	}
	return err
}

// FillPages implements PageFiller: it is the miss path of Read behind a
// cache. The wait for the device is cut short when the reading query is
// cancelled, but the pages are still returned — and so cached — because
// readers coalesced on them must not lose them to another query's
// cancellation.
func (b *Batch) FillPages(miss []int, data [][]byte, errs []error) {
	_ = b.fill(miss, data, errs) // every page's error is in errs
}

// fill is the one place file bytes are copied for a read, and so the one
// place reads are accounted: every selected page goes through the fault
// check (with the retry loop), then each run of pages of one file is
// copied, and its sequential-stream accounting done, under one hold of the
// file lock — never across a fault check, where an injector may park — and
// at the end all the pages that could be read make one pass through the
// command queue. miss selects pages of the batch (nil = all of them); the
// k-th selected page lands in data[k] — a slot of the scratch when all are
// read, a private copy for a cache to keep when miss is set — and its
// error, if errs is non-nil, in errs[k]. fill returns the first page error,
// else the error of an interrupted wait.
func (b *Batch) fill(miss []int, data [][]byte, errs []error) error {
	d := b.files[0].dev
	n := len(b.ids)
	at := func(k int) int { return k }
	if miss != nil {
		n, at = len(miss), func(k int) int { return miss[k] }
	}
	if errs == nil {
		if cap(b.errs) < n {
			b.errs = make([]error, n)
		}
		errs = b.errs[:n]
		clear(errs)
	}
	var firstErr error
	if inj, pol := d.readPolicy(); inj != nil {
		for k := range errs {
			id := b.ids[at(k)]
			errs[k] = d.checkRead(inj, pol, id.File, id.Page, b.who)
			if firstErr == nil {
				firstErr = errs[k]
			}
		}
	}
	good := 0
	for k := 0; k < n; {
		f := b.files[at(k)]
		var pages, random int64
		f.mu.Lock()
		for ; k < n && b.files[at(k)] == f; k++ {
			if errs[k] != nil {
				continue
			}
			page := b.ids[at(k)].Page
			var dst []byte
			if miss == nil && k*PageSize < len(b.scratch) {
				dst = b.scratch[k*PageSize : k*PageSize : min((k+1)*PageSize, len(b.scratch))]
			}
			if lo := page * PageSize; lo < int64(len(f.data)) {
				hi := min(lo+PageSize, int64(len(f.data)))
				data[k] = append(dst, f.data[lo:hi]...)
			}
			// Re-touching the page the stream last ended on stays
			// sequential; any other jump, forward or back, is one seek.
			if last := f.lastRead[b.who]; last >= 0 && (page > last || page < last-1) {
				random++
			}
			f.lastRead[b.who] = page + 1
			pages++
		}
		f.mu.Unlock()
		if pages > 0 {
			d.account(f.name, b.who, pages, random, 0, 0)
		}
		good += int(pages)
	}
	err := d.readPages(b.ctx, good)
	if firstErr != nil {
		return firstErr
	}
	return err
}

// ReadAtCtx fills p from offset off of the file, accounting every touched
// page to who, and returns the number of bytes read; reading past EOF
// returns the available prefix. It is the one byte-range read: the range
// goes to the device as batches of at most QueueDepth pages (1 MB), so a
// bulk read overlaps tR across each batch and a cancelled reader (ctx nil
// = never cancelled) stops consuming flash bandwidth within that many
// pages. A page that cannot be read fails the read with a wrapped
// faults-typed error; bytes of earlier batches stay delivered.
func (f *File) ReadAtCtx(ctx context.Context, p []byte, off int64, who Requester) (int, error) {
	end := min(off+int64(len(p)), f.Size())
	if off < 0 || off >= end {
		return 0, nil
	}
	var b Batch
	total := 0
	for first := off / PageSize; first*PageSize < end; first += QueueDepth {
		// A page-aligned destination is the batch's scratch: an uncached
		// device then delivers straight into p.
		var scratch []byte
		if off%PageSize == 0 {
			scratch = p[first*PageSize-off:]
		}
		b.Reset(scratch)
		for page := first; page < first+QueueDepth && page*PageSize < end; page++ {
			b.Add(f, page)
		}
		if err := b.Read(ctx, who); err != nil {
			return total, err
		}
		for i, data := range b.data {
			pageStart := (first + int64(i)) * PageSize
			lo := max(off-pageStart, 0)
			hi := min(end-pageStart, int64(len(data)))
			if hi <= lo {
				continue
			}
			if dst := p[pageStart+lo-off:]; &dst[0] != &data[lo] { // not already delivered in place
				copy(dst, data[lo:hi])
			}
			total += int(hi - lo)
		}
	}
	return total, nil
}

// ReadAt is ReadAtCtx for callers with no query to answer to.
func (f *File) ReadAt(p []byte, off int64, who Requester) (int, error) {
	return f.ReadAtCtx(nil, p, off, who)
}

// readPolicy returns the fault injector (nil when fault-free) and retry
// policy a read starting now runs under.
func (d *Device) readPolicy() (FaultInjector, RetryPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults, d.retry
}

// checkRead passes one page through the fault injector, absorbing transient
// failures with the retry policy. It returns nil when the page is readable;
// the returned error wraps the injector's typed fault error.
func (d *Device) checkRead(inj FaultInjector, pol RetryPolicy, file string, page int64, who Requester) error {
	for attempt := 0; ; attempt++ {
		stall, err := inj.ReadFault(file, page, who, attempt)
		if stall > 0 {
			d.accountFault(file, who, evSlow, stall)
		}
		if err == nil {
			return nil
		}
		d.accountFault(file, who, evFault, 0)
		if !isTransient(err) || attempt >= pol.Budget {
			d.accountFault(file, who, evFailed, 0)
			return fmt.Errorf("flash: read %s page %d (attempt %d): %w", file, page, attempt+1, err)
		}
		d.accountFault(file, who, evRetry, pol.backoff(attempt))
	}
}
