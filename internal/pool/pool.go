// Package pool provides the sync.Pool-backed buffer arena behind the
// fused scan path (internal/tabletask). Steady-state morsel processing
// must not allocate, so the page buffers and decoded-vector scratch that
// a table task needs are checked out once per task and returned when the
// task finishes; the per-morsel loop then runs entirely on recycled
// memory.
//
// Ownership rules (see DESIGN.md §13):
//
//   - Get transfers exclusive ownership to the caller; Put transfers it
//     back. A buffer must be Put at most once and never touched after.
//   - Put poisons the buffer (sentinel words at both ends) so stale
//     aliases that read a returned buffer observe garbage loudly instead
//     of silently reading whatever the next owner wrote.
//   - Double puts and foreign puts (a buffer this pool never handed out)
//     panic immediately: both are ownership bugs that would otherwise
//     surface as cross-query data corruption.
//
// The checked-out registry costs a mutexed map update per Get/Put. That
// is deliberate: pools are hit once per task (thousands of rows), not
// once per morsel, so the check is free at the scale it runs while the
// bugs it catches are the worst kind this codebase can have.
package pool

import (
	"fmt"
	"sync"
)

// Poison is the sentinel written into returned buffers. Reading it back
// out of a live buffer means some holder kept an alias across Put.
const Poison = -0x6b6c6f6f70 // "kloop", negated: never a valid row id/code

// bytePoison is the per-byte sentinel for byte buffers.
const bytePoison = 0xA5

// Bytes is a pool of fixed-size byte buffers (flash page images).
type Bytes struct {
	size int
	mu   sync.Mutex
	out  map[*byte]struct{}
	p    sync.Pool
}

// NewBytes returns a pool of len==size byte buffers.
func NewBytes(size int) *Bytes {
	b := &Bytes{size: size, out: make(map[*byte]struct{})}
	b.p.New = func() interface{} {
		buf := make([]byte, size)
		return &buf
	}
	return b
}

// Get checks a buffer out of the pool. Contents are unspecified (a
// recycled buffer still carries its poison prefix); callers must write
// before they read.
func (b *Bytes) Get() []byte {
	buf := *b.p.Get().(*[]byte)
	b.mu.Lock()
	b.out[&buf[0]] = struct{}{}
	b.mu.Unlock()
	return buf
}

// Put returns a buffer to the pool, poisoning both ends first. It panics
// on a double put or on a buffer that did not come from this pool.
func (b *Bytes) Put(buf []byte) {
	if len(buf) != b.size {
		panic(fmt.Sprintf("pool: Put of %d-byte buffer into %d-byte pool", len(buf), b.size))
	}
	b.mu.Lock()
	if _, ok := b.out[&buf[0]]; !ok {
		b.mu.Unlock()
		panic("pool: double put or foreign buffer")
	}
	delete(b.out, &buf[0])
	b.mu.Unlock()
	poisonBytes(buf)
	b.p.Put(&buf)
}

// poisonBytes stamps the sentinel over the first and last words of buf
// (whole buffer when small). Partial poisoning keeps Put O(1)-ish on
// 8 KB pages while still tripping any reader of the common prefixes.
func poisonBytes(buf []byte) {
	n := len(buf)
	if n <= 64 {
		for i := range buf {
			buf[i] = bytePoison
		}
		return
	}
	for i := 0; i < 32; i++ {
		buf[i] = bytePoison
		buf[n-1-i] = bytePoison
	}
}

// Ints is a pool of int64 scratch slices (decoded page vectors). Slices
// are recycled by capacity: Get returns a slice of exactly n elements,
// reusing a pooled backing array when it is big enough.
type Ints struct {
	mu  sync.Mutex
	out map[*int64]struct{}
	p   sync.Pool
}

// NewInts returns an int64 slice pool.
func NewInts() *Ints {
	return &Ints{out: make(map[*int64]struct{})}
}

// Get checks out a slice of n int64s (n > 0). Contents are unspecified.
func (s *Ints) Get(n int) []int64 {
	if n <= 0 {
		panic("pool: Get of non-positive length")
	}
	var buf []int64
	if v := s.p.Get(); v != nil {
		buf = *(v.(*[]int64))
	}
	if cap(buf) < n {
		buf = make([]int64, n)
	}
	buf = buf[:n]
	s.mu.Lock()
	s.out[&buf[0]] = struct{}{}
	s.mu.Unlock()
	return buf
}

// Put returns a slice obtained from Get (any re-slicing of it is fine as
// long as the first element is preserved). Panics on double/foreign put.
func (s *Ints) Put(buf []int64) {
	if cap(buf) == 0 {
		panic("pool: Put of empty buffer")
	}
	buf = buf[:1][:cap(buf)]
	s.mu.Lock()
	if _, ok := s.out[&buf[0]]; !ok {
		s.mu.Unlock()
		panic("pool: double put or foreign buffer")
	}
	delete(s.out, &buf[0])
	s.mu.Unlock()
	poisonInts(buf)
	s.p.Put(&buf)
}

// poisonInts stamps Poison over the first and last words of buf.
func poisonInts(buf []int64) {
	n := len(buf)
	if n <= 16 {
		for i := range buf {
			buf[i] = Poison
		}
		return
	}
	for i := 0; i < 8; i++ {
		buf[i] = Poison
		buf[n-1-i] = Poison
	}
}

// PageSize is the flash page size the Pages pool hands out. It mirrors
// flash.PageSize as a plain constant so pool stays dependency-free; a
// compile-time assertion in internal/col keeps the two in sync.
const PageSize = 8192

// Pages is the process-wide pool of flash-page-sized byte buffers.
var Pages = NewBytes(PageSize)

// WindowPages is how many page slots one Windows buffer holds. It mirrors
// flash.QueueDepth (asserted in internal/col): a scan never has more pages
// in flight than the device's command queue takes.
const WindowPages = 128

// Windows is the process-wide pool of Flash Page Buffers: the 1 MB a scan
// receives one read window into when no page cache holds the pages for it.
var Windows = NewBytes(WindowPages * PageSize)

// Vals is the process-wide pool of decoded-page int64 scratch.
var Vals = NewInts()
