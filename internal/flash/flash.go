// Package flash simulates the NAND flash device AQUOMAN is embedded in.
//
// The paper's prototype (BlueDBM) exposes a 1 TB open-channel flash array
// with 8 KB page access granularity, 2.4 GB/s read and 0.8 GB/s write
// bandwidth, and a flash-command queue of depth 128. Both the x86 host and
// AQUOMAN access NAND through a flash controller switch that arbitrates
// page reads, page writes, and block erases (Fig. 3).
//
// This package reproduces that device as an in-memory page store with exact
// byte-level content plus per-requester traffic accounting. The accounting
// (pages read sequentially vs. randomly, per requester) is what the timing
// model in internal/perf converts into simulated seconds, mirroring the
// paper's trace-based simulator.
//
// Reads are fallible: an optional FaultInjector (see internal/faults) can
// fail, stall, or permanently poison page reads, and the device absorbs
// transient failures with a budgeted exponential-backoff retry loop before
// surfacing an error to the read path. Backoff time is accounted (Stats
// StallNanos), not slept, so fault schedules replay deterministically.
//
// There is one way to the device: a Batch of pages (batch.go). A byte-range
// read (File.ReadAtCtx) is a sequence of batches, at most QueueDepth pages
// each; Batch.Read decides cache or device, and Batch.fill is the one place
// file bytes are copied, faults are checked and traffic is accounted.
//
// Wall-clock time is modelled only on request (SetReadLatency): a batch's
// device pages are then one submit to the shared command queue — QueueDepth
// slots, tR per command, one bus at ReadBandwidth (queue.go) — and the
// reader sleeps once, until its last command completes. The pages of a
// batch overlap their tR; concurrent readers contend for the one bus. Write
// bandwidth and erases are accounted but never slept.
package flash

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aquoman/internal/obs"
)

// Device geometry and rate constants from Sec. VII of the paper.
const (
	// PageSize is the flash page access granularity in bytes.
	PageSize = 8192
	// QueueDepth is the flash command queue depth; it sizes the Row-Mask
	// Vector circular buffer (Sec. VI: 128 in-flight pages => 32K 32-row
	// vectors of mask state).
	QueueDepth = 128
	// ReadBandwidth is the sustained read rate in bytes/second.
	ReadBandwidth = 2.4e9
	// WriteBandwidth is the sustained write rate in bytes/second.
	WriteBandwidth = 0.8e9
)

// Requester identifies which side of the controller switch issued an I/O.
type Requester int

const (
	// Host I/O arrives through the legacy OS stack (filesystem + block
	// device driver in Fig. 3).
	Host Requester = iota
	// Aquoman I/O is issued by the in-storage accelerator itself.
	Aquoman
	numRequesters
)

// NumRequesters is the number of controller-switch requesters (exported
// for per-requester accounting in other packages, e.g. internal/faults).
const NumRequesters = int(numRequesters)

func (r Requester) String() string {
	switch r {
	case Host:
		return "host"
	case Aquoman:
		return "aquoman"
	default:
		return fmt.Sprintf("requester(%d)", int(r))
	}
}

// FaultInjector decides the fate of individual page-read attempts. It is
// consulted once per touched page per attempt; returning a non-nil error
// fails the attempt, and a positive stall models a latency spike on a
// successful read. Implementations whose errors expose a
// `Transient() bool` method (internal/faults.Error does) participate in
// the device's retry loop; other errors fail immediately.
type FaultInjector interface {
	ReadFault(file string, page int64, who Requester, attempt int) (stall time.Duration, err error)
}

// PageCacher is the seam where a shared page cache (internal/sched's
// LRU PageCache) plugs in front of the device. When one is installed via
// SetPageCache, every Batch is served page-wise through it: a cached
// page costs no device I/O — no traffic accounting, no fault-injector
// consultation, no read latency — while the missing pages of a batch are
// handed to one fill call, which performs exactly one real device read per
// page and one command-queue submit for the set. Implementations must
// coalesce concurrent misses on the same page into a single device read
// and must not cache the result of a failed read.
type PageCacher interface {
	// GetPage returns the content of page `page` of the named file. On a
	// miss it calls read (exactly once per coalesced group of concurrent
	// misses) and caches the result only if read returned nil error. The
	// returned slice is shared — callers must copy, not mutate. ctx (which
	// may be nil) carries the requesting query's obs.Lifecycle so the cache
	// can attribute hit / coalesce-wait / device-read time; it is not used
	// for cancellation — fills complete so coalesced waiters are served.
	// It is the one-page case of GetPages.
	GetPage(ctx context.Context, file string, page int64, read func() ([]byte, error)) ([]byte, error)
	// GetPages stores the content of page ids[i] in data[i] for every i,
	// under GetPage's per-page contract: a resident page is a hit, a page
	// another reader is already fetching is waited for, and the rest — the
	// missing set — go to a single fill.FillPages call (never more than
	// one per GetPages). A page whose read failed is not cached and fails
	// the call with the error of the first such page in ids order; data
	// for the other pages is still valid.
	GetPages(ctx context.Context, ids []PageID, data [][]byte, fill PageFiller) error
	// InvalidatePages drops the cached pages [first, last] of file after
	// the underlying bytes changed.
	InvalidatePages(file string, first, last int64)
	// InvalidateFile drops every cached page of file (Create/Remove).
	InvalidateFile(file string)
}

// RetryPolicy bounds the device's page-read retry loop. A transient fault
// is retried up to Budget times with exponential backoff (BaseDelay
// doubled per attempt, capped at MaxDelay); backoff time is accounted in
// Stats.StallNanos rather than slept.
type RetryPolicy struct {
	// Budget is the maximum retries per page read (0 = fail on first error).
	Budget int
	// BaseDelay is the first backoff; it doubles each retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
}

// DefaultRetryPolicy mirrors firmware ECC retry behaviour: a handful of
// re-reads with microsecond-scale backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{Budget: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: 10 * time.Millisecond}
}

// backoff returns the delay before retry number attempt (0-based).
func (p RetryPolicy) backoff(attempt int) time.Duration {
	d := p.BaseDelay
	for i := 0; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	return d
}

// transienter is the marker interface retryable fault errors implement.
type transienter interface{ Transient() bool }

// isTransient reports whether err may clear on retry.
func isTransient(err error) bool {
	var t transienter
	return errors.As(err, &t) && t.Transient()
}

// Stats is a snapshot of traffic through the controller switch.
type Stats struct {
	// PagesRead counts 8 KB page reads per requester.
	PagesRead [numRequesters]int64
	// PagesReadRandom counts page reads that broke the requester's
	// sequential stream on a file (gathers by RowID land here).
	PagesReadRandom [numRequesters]int64
	// PagesWritten counts page-granular writes per requester.
	PagesWritten [numRequesters]int64
	// PagesWrittenRandom counts writes that broke the requester's
	// sequential write stream on a file — the write-amplification
	// counterpart of PagesReadRandom (in-place updates land here,
	// appends stay sequential).
	PagesWrittenRandom [numRequesters]int64

	// ReadFaults counts injected page-read failures observed (each failed
	// attempt, including ones later absorbed by a retry).
	ReadFaults [numRequesters]int64
	// ReadRetries counts retry attempts issued by the backoff loop.
	ReadRetries [numRequesters]int64
	// ReadsFailed counts page reads abandoned after exhausting the retry
	// budget or hitting a non-transient fault.
	ReadsFailed [numRequesters]int64
	// SlowReads counts reads that hit an injected latency spike.
	SlowReads [numRequesters]int64
	// StallNanos accumulates simulated stall time: injected read latency
	// plus retry backoff.
	StallNanos [numRequesters]int64
}

// BytesRead returns total bytes read by r.
func (s Stats) BytesRead(r Requester) int64 { return s.PagesRead[r] * PageSize }

// BytesWritten returns total bytes written by r.
func (s Stats) BytesWritten(r Requester) int64 { return s.PagesWritten[r] * PageSize }

// TotalPagesRead returns page reads summed over requesters.
func (s Stats) TotalPagesRead() int64 {
	var t int64
	for _, v := range s.PagesRead {
		t += v
	}
	return t
}

// TotalReadRetries returns retry attempts summed over requesters.
func (s Stats) TotalReadRetries() int64 {
	var t int64
	for _, v := range s.ReadRetries {
		t += v
	}
	return t
}

// Sub returns s - o, counter-wise (used to extract a per-query trace).
func (s Stats) Sub(o Stats) Stats {
	var r Stats
	for i := 0; i < int(numRequesters); i++ {
		r.PagesRead[i] = s.PagesRead[i] - o.PagesRead[i]
		r.PagesReadRandom[i] = s.PagesReadRandom[i] - o.PagesReadRandom[i]
		r.PagesWritten[i] = s.PagesWritten[i] - o.PagesWritten[i]
		r.PagesWrittenRandom[i] = s.PagesWrittenRandom[i] - o.PagesWrittenRandom[i]
		r.ReadFaults[i] = s.ReadFaults[i] - o.ReadFaults[i]
		r.ReadRetries[i] = s.ReadRetries[i] - o.ReadRetries[i]
		r.ReadsFailed[i] = s.ReadsFailed[i] - o.ReadsFailed[i]
		r.SlowReads[i] = s.SlowReads[i] - o.SlowReads[i]
		r.StallNanos[i] = s.StallNanos[i] - o.StallNanos[i]
	}
	return r
}

// Delta is Sub with before/after naming: d = after.Delta(before).
func (s Stats) Delta(before Stats) Stats { return s.Sub(before) }

// Device is a simulated flash drive holding named files. It is safe for
// concurrent use; the controller switch serializes command accounting.
type Device struct {
	mu        sync.Mutex
	files     map[string]*File
	stats     Stats
	fileStats map[string]*Stats

	// gens counts content mutations per file name: bumped on Create,
	// Remove, and every Append/WriteAt. Consumers that cache derived
	// results (the query result cache) bake the generation captured at
	// lookup into their keys, so a mutation strands every stale entry
	// instead of racing an explicit invalidation. Counters survive
	// Remove/Create cycles on the same name — a re-created file must not
	// resurrect generation numbers older entries were keyed under.
	gens map[string]uint64

	faults FaultInjector
	retry  RetryPolicy
	cache  PageCacher

	// readLatencyNs, when positive, is tR, the array-read latency of one
	// page-read command, and switches on the wall-clock model: reads go
	// through queue and sleep until their commands complete. Off (0) by
	// default so tests and simulations stay deterministic.
	readLatencyNs atomic.Int64
	epoch         time.Time // origin of the device clock queue runs on
	queue         cmdQueue

	// metrics mirrors the traffic counters into an obs registry (nil
	// counters no-op, so the account path is branch-free when
	// observability is off).
	metrics struct {
		pagesRead          [numRequesters]*obs.Counter
		pagesReadRandom    [numRequesters]*obs.Counter
		pagesWritten       [numRequesters]*obs.Counter
		pagesWrittenRandom [numRequesters]*obs.Counter
		readFaults         [numRequesters]*obs.Counter
		readRetries        [numRequesters]*obs.Counter
		readsFailed        [numRequesters]*obs.Counter
		slowReads          [numRequesters]*obs.Counter
		stallNanos         [numRequesters]*obs.Counter
		files              *obs.Gauge
	}
}

// NewDevice returns an empty flash device with the default retry policy
// and no fault injector.
func NewDevice() *Device {
	return &Device{
		files:     make(map[string]*File),
		fileStats: make(map[string]*Stats),
		gens:      make(map[string]uint64),
		retry:     DefaultRetryPolicy(),
		epoch:     time.Now(),
	}
}

// SetFaults plugs a fault injector into the device's read path (nil
// detaches it). Call with the device idle.
func (d *Device) SetFaults(fi FaultInjector) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.faults = fi
}

// SetPageCache installs a page cache in front of the device's read path
// (nil detaches it). Install with the device idle: pages already being
// read bypass the cache. Traffic accounting changes meaning under a
// cache — Stats counts only device reads (misses), which is exactly what
// the single-flight and offload models want.
func (d *Device) SetPageCache(c PageCacher) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cache = c
}

// PageCache returns the installed page cache (nil when none).
func (d *Device) PageCache() PageCacher {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cache
}

// SetReadLatency switches the wall-clock device model on: tR is the
// array-read latency of one page-read command (the paper's NAND: ~100 us).
// Every device page read is then a command in the shared QueueDepth-deep
// queue — it waits for a slot, takes tR, and crosses the one ReadBandwidth
// bus (PageSize / ReadBandwidth = 3.41 us a page) — and a read call sleeps
// once, until the last of its commands completes: 1 page costs tR + 3.41
// us, a batch of 128 costs tR + 128 x 3.41 us, and concurrent readers
// share the bus. 0, the default, switches the model off: no read ever
// sleeps and the queue is not consulted. Cached page hits never reach the
// device and cost nothing either way.
func (d *Device) SetReadLatency(tR time.Duration) {
	d.readLatencyNs.Store(int64(tR))
}

// ReadLatency returns tR, the per-command read latency (0 = model off).
func (d *Device) ReadLatency() time.Duration {
	return time.Duration(d.readLatencyNs.Load())
}

// SetRetryPolicy replaces the page-read retry policy.
func (d *Device) SetRetryPolicy(p RetryPolicy) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.retry = p
}

// RetryPolicy returns the active page-read retry policy.
func (d *Device) RetryPolicy() RetryPolicy {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retry
}

// Observe mirrors the device's traffic counters into reg under the
// flash_* metric families, labeled per requester plus any extra
// alternating key/value labels (distrib clusters add device=N). Passing
// a nil registry detaches the device from metrics again.
func (d *Device) Observe(reg *obs.Registry, extraLabels ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := Requester(0); r < numRequesters; r++ {
		labels := append([]string{"requester", r.String()}, extraLabels...)
		if reg == nil {
			d.metrics.pagesRead[r] = nil
			d.metrics.pagesReadRandom[r] = nil
			d.metrics.pagesWritten[r] = nil
			d.metrics.pagesWrittenRandom[r] = nil
			d.metrics.readFaults[r] = nil
			d.metrics.readRetries[r] = nil
			d.metrics.readsFailed[r] = nil
			d.metrics.slowReads[r] = nil
			d.metrics.stallNanos[r] = nil
			continue
		}
		d.metrics.pagesRead[r] = reg.Counter("flash_pages_read_total", labels...)
		d.metrics.pagesReadRandom[r] = reg.Counter("flash_pages_read_random_total", labels...)
		d.metrics.pagesWritten[r] = reg.Counter("flash_pages_written_total", labels...)
		d.metrics.pagesWrittenRandom[r] = reg.Counter("flash_pages_written_random_total", labels...)
		d.metrics.readFaults[r] = reg.Counter("flash_read_faults_total", labels...)
		d.metrics.readRetries[r] = reg.Counter("flash_read_retries_total", labels...)
		d.metrics.readsFailed[r] = reg.Counter("flash_reads_failed_total", labels...)
		d.metrics.slowReads[r] = reg.Counter("flash_slow_reads_total", labels...)
		d.metrics.stallNanos[r] = reg.Counter("flash_stall_nanos_total", labels...)
	}
	if reg == nil {
		d.metrics.files = nil
	} else {
		d.metrics.files = reg.Gauge("flash_files", extraLabels...)
		d.metrics.files.Set(int64(len(d.files)))
	}
	if reg == nil {
		return
	}
	// Seed the counters with the traffic already accounted, so registry
	// deltas stay consistent with Stats().Sub for in-flight devices.
	for r := Requester(0); r < numRequesters; r++ {
		d.metrics.pagesRead[r].Add(d.stats.PagesRead[r] - d.metrics.pagesRead[r].Value())
		d.metrics.pagesReadRandom[r].Add(d.stats.PagesReadRandom[r] - d.metrics.pagesReadRandom[r].Value())
		d.metrics.pagesWritten[r].Add(d.stats.PagesWritten[r] - d.metrics.pagesWritten[r].Value())
		d.metrics.pagesWrittenRandom[r].Add(d.stats.PagesWrittenRandom[r] - d.metrics.pagesWrittenRandom[r].Value())
		d.metrics.readFaults[r].Add(d.stats.ReadFaults[r] - d.metrics.readFaults[r].Value())
		d.metrics.readRetries[r].Add(d.stats.ReadRetries[r] - d.metrics.readRetries[r].Value())
		d.metrics.readsFailed[r].Add(d.stats.ReadsFailed[r] - d.metrics.readsFailed[r].Value())
		d.metrics.slowReads[r].Add(d.stats.SlowReads[r] - d.metrics.slowReads[r].Value())
		d.metrics.stallNanos[r].Add(d.stats.StallNanos[r] - d.metrics.stallNanos[r].Value())
	}
}

// File is a byte-addressable flash-backed file. Content is stored exactly;
// reads and writes are accounted at page granularity.
type File struct {
	dev  *Device
	name string

	mu        sync.Mutex
	data      []byte
	lastRead  [numRequesters]int64 // next sequential page per requester, -1 if none
	lastWrite [numRequesters]int64 // next sequential write page per requester, -1 if none
}

// Create creates (or truncates) a file. Any stats previously attributed to
// a file of the same name are discarded — a re-created file starts with a
// clean per-file ledger.
func (d *Device) Create(name string) *File {
	d.mu.Lock()
	f := &File{dev: d, name: name}
	for i := range f.lastRead {
		f.lastRead[i] = -1
		f.lastWrite[i] = -1
	}
	d.files[name] = f
	delete(d.fileStats, name)
	d.gens[name]++
	d.metrics.files.Set(int64(len(d.files)))
	cache := d.cache
	d.mu.Unlock()
	if cache != nil {
		cache.InvalidateFile(name)
	}
	return f
}

// Open returns the named file.
func (d *Device) Open(name string) (*File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, fmt.Errorf("flash: open %s: no such file", name)
	}
	return f, nil
}

// Exists reports whether a file of that name exists.
func (d *Device) Exists(name string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	return ok
}

// Remove deletes a file and drops its per-file stats attribution, so a
// later file of the same name starts from zero counters. Removing a
// missing file is a no-op.
func (d *Device) Remove(name string) {
	d.mu.Lock()
	delete(d.files, name)
	delete(d.fileStats, name)
	d.gens[name]++
	d.metrics.files.Set(int64(len(d.files)))
	cache := d.cache
	d.mu.Unlock()
	if cache != nil {
		cache.InvalidateFile(name)
	}
}

// Generation returns the mutation counter for a file name: 0 until the
// file is first created, bumped by Create, Remove, and every write.
// Comparing generations captured at two points in time tells a caller
// whether the file's content could have changed in between.
func (d *Device) Generation(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gens[name]
}

// bumpGen records one content mutation of the named file.
func (d *Device) bumpGen(name string) {
	d.mu.Lock()
	d.gens[name]++
	d.mu.Unlock()
}

// Files returns the names of all files in deterministic order.
func (d *Device) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalBytes returns the summed content size of all files.
func (d *Device) TotalBytes() int64 {
	d.mu.Lock()
	files := make([]*File, 0, len(d.files))
	for _, f := range d.files {
		files = append(files, f)
	}
	d.mu.Unlock()
	var t int64
	for _, f := range files {
		t += f.Size()
	}
	return t
}

// Stats returns a snapshot of the device traffic counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// FileStats returns the traffic attributed to the named file (zero for
// unknown files). Attribution follows the name: Remove/Create reset it.
func (d *Device) FileStats(name string) Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.fileStats[name]; ok {
		return *s
	}
	return Stats{}
}

// ResetStats zeroes the traffic counters (device-wide and per-file) and
// sequential-read state (used between experiments).
func (d *Device) ResetStats() {
	d.mu.Lock()
	d.stats = Stats{}
	d.fileStats = make(map[string]*Stats)
	files := make([]*File, 0, len(d.files))
	for _, f := range d.files {
		files = append(files, f)
	}
	d.mu.Unlock()
	for _, f := range files {
		f.mu.Lock()
		for i := range f.lastRead {
			f.lastRead[i] = -1
			f.lastWrite[i] = -1
		}
		f.mu.Unlock()
	}
}

// fileStatsLocked returns the per-file ledger for name. Caller holds d.mu.
func (d *Device) fileStatsLocked(name string) *Stats {
	s, ok := d.fileStats[name]
	if !ok {
		s = &Stats{}
		d.fileStats[name] = s
	}
	return s
}

func (d *Device) account(file string, who Requester, pagesRead, readRandom, pagesWritten, writeRandom int64) {
	d.mu.Lock()
	d.stats.PagesRead[who] += pagesRead
	d.stats.PagesReadRandom[who] += readRandom
	d.stats.PagesWritten[who] += pagesWritten
	d.stats.PagesWrittenRandom[who] += writeRandom
	fs := d.fileStatsLocked(file)
	fs.PagesRead[who] += pagesRead
	fs.PagesReadRandom[who] += readRandom
	fs.PagesWritten[who] += pagesWritten
	fs.PagesWrittenRandom[who] += writeRandom
	// Counter handles are captured under the lock (Observe may rebind
	// them); the Adds themselves are atomic and happen outside it.
	pr, prr := d.metrics.pagesRead[who], d.metrics.pagesReadRandom[who]
	pw, pwr := d.metrics.pagesWritten[who], d.metrics.pagesWrittenRandom[who]
	d.mu.Unlock()
	if pagesRead > 0 {
		pr.Add(pagesRead)
	}
	if readRandom > 0 {
		prr.Add(readRandom)
	}
	if pagesWritten > 0 {
		pw.Add(pagesWritten)
	}
	if writeRandom > 0 {
		pwr.Add(writeRandom)
	}
}

// faultEvent classifies fault-path accounting updates.
type faultEvent int

const (
	evFault faultEvent = iota
	evRetry
	evFailed
	evSlow
)

func (d *Device) accountFault(file string, who Requester, ev faultEvent, stall time.Duration) {
	d.mu.Lock()
	fs := d.fileStatsLocked(file)
	var c *obs.Counter
	switch ev {
	case evFault:
		d.stats.ReadFaults[who]++
		fs.ReadFaults[who]++
		c = d.metrics.readFaults[who]
	case evRetry:
		d.stats.ReadRetries[who]++
		fs.ReadRetries[who]++
		c = d.metrics.readRetries[who]
	case evFailed:
		d.stats.ReadsFailed[who]++
		fs.ReadsFailed[who]++
		c = d.metrics.readsFailed[who]
	case evSlow:
		d.stats.SlowReads[who]++
		fs.SlowReads[who]++
		c = d.metrics.slowReads[who]
	}
	var sc *obs.Counter
	if stall > 0 {
		d.stats.StallNanos[who] += int64(stall)
		fs.StallNanos[who] += int64(stall)
		sc = d.metrics.stallNanos[who]
	}
	d.mu.Unlock()
	c.Inc()
	if stall > 0 {
		sc.Add(int64(stall))
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the file content size in bytes.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int64(len(f.data))
}

// NumPages returns the number of flash pages the file occupies.
func (f *File) NumPages() int64 {
	return (f.Size() + PageSize - 1) / PageSize
}

// accountWrite updates the requester's sequential write stream and
// returns the page count and random-seek count of a write of n bytes at
// off. Caller holds f.mu.
func (f *File) accountWrite(who Requester, off, n int64) (pages, random int64) {
	first, last := off/PageSize, (off+n-1)/PageSize
	pages = last - first + 1
	// Re-touching the page the stream last ended on (partial-page appends)
	// stays sequential; any other jump is one seek, mirroring the read
	// side's stream model.
	if f.lastWrite[who] >= 0 && (first > f.lastWrite[who] || first < f.lastWrite[who]-1) {
		random = 1
	}
	f.lastWrite[who] = last + 1
	return pages, random
}

// invalidateWritten drops any cached pages the byte range [off, off+n)
// overlaps. Called after the content mutation is visible, so a racing
// reader either sees the new bytes or has its stale cache fill rejected
// by the cache's generation check.
func (f *File) invalidateWritten(off, n int64) {
	// The generation bump happens unconditionally — result-cache
	// fingerprints depend on it even when no page cache is installed —
	// and, like the page-cache invalidation, only after the mutation is
	// visible, so entries keyed under the old generation are stranded
	// rather than refreshed with mixed content.
	f.dev.bumpGen(f.name)
	if cache := f.dev.PageCache(); cache != nil {
		cache.InvalidatePages(f.name, off/PageSize, (off+n-1)/PageSize)
	}
}

// Append writes p at the end of the file, accounted to requester who.
func (f *File) Append(p []byte, who Requester) {
	if len(p) == 0 {
		return
	}
	f.mu.Lock()
	off := int64(len(f.data))
	f.data = append(f.data, p...)
	pages, random := f.accountWrite(who, off, int64(len(p)))
	f.mu.Unlock()
	f.dev.account(f.name, who, 0, 0, pages, random)
	f.invalidateWritten(off, int64(len(p)))
}

// WriteAt writes p at offset off (extending the file as needed).
func (f *File) WriteAt(p []byte, off int64, who Requester) {
	if len(p) == 0 {
		return
	}
	f.mu.Lock()
	end := off + int64(len(p))
	if int64(len(f.data)) < end {
		f.data = append(f.data, make([]byte, end-int64(len(f.data)))...)
	}
	copy(f.data[off:end], p)
	pages, random := f.accountWrite(who, off, int64(len(p)))
	f.mu.Unlock()
	f.dev.account(f.name, who, 0, 0, pages, random)
	f.invalidateWritten(off, int64(len(p)))
}

// PagesSpanned reports how many pages the byte range [off, off+n) touches.
func PagesSpanned(off, n int64) int64 {
	if n <= 0 {
		return 0
	}
	return (off+n-1)/PageSize - off/PageSize + 1
}
