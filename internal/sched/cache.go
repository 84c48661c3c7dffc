// Package sched layers concurrent query execution on top of the single-query
// core: an admission-controlled scheduler (sched.go) and a shared,
// size-bounded LRU flash-page cache (this file). The cache sits in front of
// flash.Device via the flash.PageCacher seam, so every byte a query reads can
// be served to the next query without touching the simulated NAND again.
package sched

import (
	"container/list"
	"context"
	"sync"
	"time"

	"aquoman/internal/flash"
	"aquoman/internal/obs"
)

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      int64 // page requests served from memory
	Misses    int64 // page requests that performed a device read
	Evictions int64 // pages dropped to stay within the byte budget
	Bytes     int64 // bytes currently resident
	Entries   int64 // pages currently resident
}

// HitRate returns Hits / (Hits + Misses), or 0 before any traffic.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// pageKey identifies one cached page. Partition isolates devices that reuse
// file names (distrib shards all store "lineitem/l_qty.dat"). The file
// generation — bumped by every write or invalidation, including a column
// re-encode replacing the file — is part of the key: a reader that starts
// after an invalidation can never be served bytes fetched before it, not
// even by coalescing onto an older in-flight read.
type pageKey struct {
	part string
	file string
	page int64
	gen  uint64
}

type fileKey struct {
	part string
	file string
}

// entry is one resident page; it lives in both the lookup map and the LRU
// list (front = most recently used).
type entry struct {
	key  pageKey
	data []byte
	elem *list.Element
}

// flight is an in-progress device read of one page. Concurrent misses on
// the same page find the flight and wait on done instead of issuing
// duplicate reads. The flights of one batch fill share a done channel: the
// device delivers the batch as a whole.
type flight struct {
	key  pageKey
	done chan struct{}
	data []byte
	err  error
}

// readFunc adapts GetPage's one-page read callback to a batch fill.
type readFunc func() ([]byte, error)

func (r readFunc) FillPages(_ []int, data [][]byte, errs []error) { data[0], errs[0] = r() }

// PageCache is a shared, size-bounded, single-flight LRU cache of flash
// pages. It is safe for concurrent use. It implements flash.PageCacher
// (for the default partition ""); per-device views come from Partition.
//
// Correctness properties (asserted by cache_test.go):
//   - resident bytes never exceed the byte budget;
//   - a faulted read never populates the cache (and the error is returned
//     to every waiter of that flight);
//   - a write or invalidation that races with an in-flight read wins: the
//     stale fill is discarded, and readers arriving after the invalidation
//     do not join the doomed flight (generation counters per file, baked
//     into the page key at lookup time).
type PageCache struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[pageKey]*entry
	lru     *list.List
	flights map[pageKey]*flight
	gens    map[fileKey]uint64

	hits, misses, evictions int64

	// Optional observability handles; nil-safe.
	cHits, cMisses, cEvictions *obs.Counter
	gBytes, gEntries           *obs.Gauge
	hDeviceRead, hCoalesce     *obs.Histogram
}

// NewPageCache returns a cache bounded to maxBytes of page data.
// maxBytes <= 0 disables residency entirely (every read is a miss), but
// single-flight deduplication still applies.
func NewPageCache(maxBytes int64) *PageCache {
	return &PageCache{
		max:     maxBytes,
		entries: make(map[pageKey]*entry),
		lru:     list.New(),
		flights: make(map[pageKey]*flight),
		gens:    make(map[fileKey]uint64),
	}
}

// Observe binds hit/miss/eviction counters and residency gauges into reg.
func (c *PageCache) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cHits = reg.Counter("sched_cache_hits_total")
	c.cMisses = reg.Counter("sched_cache_misses_total")
	c.cEvictions = reg.Counter("sched_cache_evictions_total")
	c.gBytes = reg.Gauge("sched_cache_bytes")
	c.gEntries = reg.Gauge("sched_cache_entries")
	c.hDeviceRead = reg.Histogram("flash_device_read_ns")
	c.hCoalesce = reg.Histogram("sched_cache_coalesce_wait_ns")
}

// Stats snapshots the cache counters.
func (c *PageCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   int64(len(c.entries)),
	}
}

// GetPage implements flash.PageCacher for the default partition. The
// context is not used for cancellation (cache fills always complete so
// other waiters are served); it only carries the requesting query's
// obs.Lifecycle for wait-state attribution.
func (c *PageCache) GetPage(ctx context.Context, file string, page int64, read func() ([]byte, error)) ([]byte, error) {
	return c.getPage(ctx, "", file, page, read)
}

// GetPages implements flash.PageCacher for the default partition.
func (c *PageCache) GetPages(ctx context.Context, ids []flash.PageID, data [][]byte, fill flash.PageFiller) error {
	return c.getPages(ctx, "", ids, data, fill)
}

// InvalidatePages implements flash.PageCacher for the default partition.
func (c *PageCache) InvalidatePages(file string, first, last int64) {
	c.invalidatePages("", file, first, last)
}

// InvalidateFile implements flash.PageCacher for the default partition.
func (c *PageCache) InvalidateFile(file string) {
	c.invalidateFile("", file)
}

// Partition returns a view of the cache whose keys are isolated under name.
// All partitions share one byte budget and one LRU. The returned view
// implements flash.PageCacher.
func (c *PageCache) Partition(name string) *Partition {
	return &Partition{c: c, name: name}
}

// Partition is a named view of a shared PageCache (see PageCache.Partition).
type Partition struct {
	c    *PageCache
	name string
}

// GetPage implements flash.PageCacher.
func (p *Partition) GetPage(ctx context.Context, file string, page int64, read func() ([]byte, error)) ([]byte, error) {
	return p.c.getPage(ctx, p.name, file, page, read)
}

// GetPages implements flash.PageCacher.
func (p *Partition) GetPages(ctx context.Context, ids []flash.PageID, data [][]byte, fill flash.PageFiller) error {
	return p.c.getPages(ctx, p.name, ids, data, fill)
}

// InvalidatePages implements flash.PageCacher.
func (p *Partition) InvalidatePages(file string, first, last int64) {
	p.c.invalidatePages(p.name, file, first, last)
}

// InvalidateFile implements flash.PageCacher.
func (p *Partition) InvalidateFile(file string) {
	p.c.invalidateFile(p.name, file)
}

// getPage is the one-page case of getPages.
func (c *PageCache) getPage(ctx context.Context, part, file string, page int64, read func() ([]byte, error)) ([]byte, error) {
	ids := [1]flash.PageID{{File: file, Page: page}}
	var data [1][]byte
	err := c.getPages(ctx, part, ids[:], data[:], readFunc(read))
	return data[0], err
}

// pending is what a batch lookup could not serve from memory.
type pending struct {
	miss   []int     // batch indices this call reads from the device
	mine   []*flight // their flights, in the same order
	joinAt []int     // batch indices another reader is already fetching
	joined []*flight
}

// getPages serves a batch of pages: resident pages are hits, pages another
// reader is already fetching are waited for, and the rest are registered
// as this call's flights and handed to one fill — one device submit.
// Callers must treat the returned slices as read-only. When ctx carries a
// query lifecycle, the elapsed time is attributed to cache_hit (the
// lookups), device_read (the fill) and coalesce_wait (other readers'
// flights); the clock is not read at all otherwise.
func (c *PageCache) getPages(ctx context.Context, part string, ids []flash.PageID, data [][]byte, fill flash.PageFiller) error {
	lc := obs.LifecycleFrom(ctx)
	hit := lc.Begin(obs.StateCacheHit)
	var p pending
	c.mu.Lock()
	c.lookupLocked(part, ids, data, &p)
	c.mu.Unlock()
	c.cHits.Add(int64(len(ids) - len(p.miss)))
	hit.End()
	if len(p.miss) == 0 && len(p.joined) == 0 {
		return nil
	}
	return c.resolve(lc, part, &p, data, fill)
}

// lookupLocked fills data with the resident pages of the batch and sorts
// the rest into p, registering a flight for every page nobody is fetching
// yet. Followers of another reader's flight count as hits — they cost no
// device I/O — but their wait is attributed separately so coalescing
// convoys show up.
func (c *PageCache) lookupLocked(part string, ids []flash.PageID, data [][]byte, p *pending) {
	var (
		gen  uint64
		done chan struct{}
	)
	for i, id := range ids {
		// The generation is read once per run of pages of one file: it is
		// what a reader arriving after an invalidation is keyed apart by.
		if i == 0 || id.File != ids[i-1].File {
			gen = c.gens[fileKey{part, id.File}]
		}
		key := pageKey{part, id.File, id.Page, gen}
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			data[i] = e.data
			continue
		}
		if f, ok := c.flights[key]; ok {
			p.joinAt, p.joined = append(p.joinAt, i), append(p.joined, f)
			continue
		}
		if done == nil {
			done = make(chan struct{})
		}
		f := &flight{key: key, done: done}
		c.flights[key] = f
		p.miss, p.mine = append(p.miss, i), append(p.mine, f)
	}
	c.hits += int64(len(ids) - len(p.miss))
	c.misses += int64(len(p.miss))
}

// resolve reads the batch's missing pages with one fill, publishes them,
// and only then waits for the pages other readers are fetching: every
// reader resolves its own flights before it blocks on anyone else's, so
// two readers whose batches overlap both ways cannot wait on each other.
// It returns the error of the first failed page in batch order.
func (c *PageCache) resolve(lc *obs.Lifecycle, part string, p *pending, data [][]byte, fill flash.PageFiller) error {
	var firstErr error
	errAt := len(data)
	fail := func(i int, err error) {
		if err != nil && i < errAt {
			firstErr, errAt = err, i
		}
	}
	if len(p.miss) > 0 {
		c.cMisses.Add(int64(len(p.miss)))
		got, errs := make([][]byte, len(p.miss)), make([]error, len(p.miss))
		r := lc.Begin(obs.StateDeviceRead)
		if c.hDeviceRead != nil {
			r0 := time.Now()
			fill.FillPages(p.miss, got, errs)
			c.hDeviceRead.Observe(int64(time.Since(r0)))
		} else {
			fill.FillPages(p.miss, got, errs)
		}
		r.End()
		c.mu.Lock()
		for k, f := range p.mine {
			f.data, f.err = got[k], errs[k]
			delete(c.flights, f.key)
			// Insert only if the read succeeded and no write/invalidation
			// landed on the file while the read was in flight (the fill
			// would be stale — and, keyed under the old generation,
			// unreachable yet budget-consuming).
			if f.err == nil && f.data != nil && f.key.gen == c.gens[fileKey{part, f.key.file}] {
				c.insertLocked(f.key, f.data)
			}
			data[p.miss[k]] = f.data
			fail(p.miss[k], f.err)
		}
		c.mu.Unlock()
		close(p.mine[0].done)
	}
	if len(p.joined) > 0 {
		r := lc.Begin(obs.StateCoalesceWait)
		var w0 time.Time
		if c.hCoalesce != nil {
			w0 = time.Now()
		}
		for k, f := range p.joined {
			<-f.done
			data[p.joinAt[k]] = f.data
			fail(p.joinAt[k], f.err)
		}
		if c.hCoalesce != nil {
			c.hCoalesce.Observe(int64(time.Since(w0)))
		}
		r.End()
	}
	return firstErr
}

// insertLocked adds a page and evicts from the LRU tail until the budget
// holds. Pages larger than the whole budget are not cached.
func (c *PageCache) insertLocked(key pageKey, data []byte) {
	size := int64(len(data))
	if size == 0 || size > c.max {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= int64(len(old.data))
		c.lru.Remove(old.elem)
		delete(c.entries, key)
	}
	for c.bytes+size > c.max {
		tail := c.lru.Back()
		if tail == nil {
			return
		}
		c.removeLocked(tail.Value.(*entry), true)
	}
	e := &entry{key: key, data: data}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(len(c.entries)))
}

func (c *PageCache) removeLocked(e *entry, evicted bool) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.data))
	if evicted {
		c.evictions++
		c.cEvictions.Inc()
	}
	c.gBytes.Set(c.bytes)
	c.gEntries.Set(int64(len(c.entries)))
}

// invalidatePages drops [first, last] of a file by key — every write pays
// this under the mutex all page lookups take, so it must not walk the map.
// The generation bump strands whatever a racing fill inserts afterwards.
func (c *PageCache) invalidatePages(part, file string, first, last int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fk := fileKey{part, file}
	gen := c.gens[fk]
	c.gens[fk] = gen + 1
	for page := first; page <= last; page++ {
		if e, ok := c.entries[pageKey{part, file, page, gen}]; ok {
			c.removeLocked(e, false)
		}
	}
}

func (c *PageCache) invalidateFile(part, file string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[fileKey{part, file}]++
	for key, e := range c.entries {
		if key.part == part && key.file == file {
			c.removeLocked(e, false)
		}
	}
}
