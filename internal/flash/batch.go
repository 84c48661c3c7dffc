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

	// Set for the duration of one Read; FillPages needs them.
	ctx context.Context
	who Requester
}

// Reset empties the batch. scratch is where an uncached device delivers
// the pages (page i of the batch at scratch[i*PageSize:]); it must stay
// untouched until the caller is done with Page. A batch that outgrows its
// scratch, or has none, allocates.
func (b *Batch) Reset(scratch []byte) {
	b.files = b.files[:0]
	b.ids = b.ids[:0]
	b.data = b.data[:0]
	b.scratch = scratch
}

// Add appends one page of f to the batch. Pages of one file must be added
// in ascending order, which keeps the device's sequential-stream
// accounting identical to reading them one by one.
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

// Read fetches every page of the batch. A page that cannot be read (fault
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

// fill is the one device read path for page sets: for each page, the
// fault check (with the retry loop), the copy and the sequential-stream
// accounting a single-page read would do, then one pass of all the pages
// that could be read through the command queue. miss selects pages of the
// batch (nil = all of them); the k-th selected page lands in data[k] — a
// slot of the scratch when all are read, a private copy for a cache to
// keep when miss is set — and its error, if errs is non-nil, in errs[k].
// fill returns the first page error, else the error of an interrupted wait.
func (b *Batch) fill(miss []int, data [][]byte, errs []error) error {
	d := b.files[0].dev
	inj, pol := d.readPolicy()

	n := len(miss)
	if miss == nil {
		n = len(b.ids)
	}
	var (
		firstErr      error
		run           *File // traffic is accounted once per run of pages of one file
		pages, random int64
		good          int
	)
	flush := func() {
		if pages > 0 {
			d.account(run.name, b.who, pages, random, 0, 0)
		}
		pages, random = 0, 0
	}
	for k := 0; k < n; k++ {
		i := k
		if miss != nil {
			i = miss[k]
		}
		f, page := b.files[i], b.ids[i].Page
		if f != run {
			flush()
			run = f
		}
		if err := d.checkRead(inj, pol, f.name, page, page, b.who); err != nil {
			if errs != nil {
				errs[k] = err
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var dst []byte
		if miss == nil && (k+1)*PageSize <= len(b.scratch) {
			dst = b.scratch[k*PageSize : k*PageSize : (k+1)*PageSize]
		}
		f.mu.Lock()
		if lo := page * PageSize; lo < int64(len(f.data)) {
			hi := min(lo+PageSize, int64(len(f.data)))
			data[k] = append(dst, f.data[lo:hi]...)
		}
		if f.lastRead[b.who] >= 0 && (page > f.lastRead[b.who] || page < f.lastRead[b.who]-1) {
			random++
		}
		f.lastRead[b.who] = page + 1
		f.mu.Unlock()
		pages++
		good++
	}
	flush()
	err := d.readPages(b.ctx, good)
	if firstErr != nil {
		return firstErr
	}
	return err
}

// readCached serves the byte range [off, off+len(p)) of f through the
// installed cache, one batch of at most QueueDepth pages at a time: hits
// cost no device I/O and each batch's missing pages are one device submit.
// ctx (nil = never cancelled) is checked between batches, so a cancelled
// reader stops issuing page reads within one queue's worth of pages.
func (f *File) readCached(ctx context.Context, p []byte, off int64, who Requester) (int, error) {
	f.mu.Lock()
	size := int64(len(f.data))
	f.mu.Unlock()
	if off >= size {
		return 0, nil
	}
	end := min(off+int64(len(p)), size)
	var b Batch
	total := 0
	for first := off / PageSize; first*PageSize < end; first += QueueDepth {
		b.Reset(nil)
		for page := first; page < first+QueueDepth && page*PageSize < end; page++ {
			b.Add(f, page)
		}
		if err := b.Read(ctx, who); err != nil {
			return total, err
		}
		for i := range b.ids {
			pageStart := (first + int64(i)) * PageSize
			data := b.data[i]
			lo := max(off-pageStart, 0)
			hi := min(end-pageStart, int64(len(data)))
			if hi > lo {
				total += copy(p[pageStart+lo-off:], data[lo:hi])
			}
		}
	}
	return total, nil
}

// readPolicy returns the fault injector (nil when fault-free) and retry
// policy a read starting now runs under.
func (d *Device) readPolicy() (FaultInjector, RetryPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults, d.retry
}

// checkRead passes every page of [first, last] through the fault injector,
// absorbing transient failures with the retry policy. It returns nil when
// all pages are readable; the returned error wraps the injector's typed
// fault error.
func (d *Device) checkRead(inj FaultInjector, pol RetryPolicy, file string, first, last int64, who Requester) error {
	if inj == nil {
		return nil
	}
	for page := first; page <= last; page++ {
		attempt := 0
		for {
			stall, err := inj.ReadFault(file, page, who, attempt)
			if stall > 0 {
				d.accountFault(file, who, evSlow, stall)
			}
			if err == nil {
				break
			}
			d.accountFault(file, who, evFault, 0)
			if !isTransient(err) || attempt >= pol.Budget {
				d.accountFault(file, who, evFailed, 0)
				return fmt.Errorf("flash: read %s page %d (attempt %d): %w", file, page, attempt+1, err)
			}
			d.accountFault(file, who, evRetry, pol.backoff(attempt))
			attempt++
		}
	}
	return nil
}
