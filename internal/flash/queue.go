package flash

import (
	"context"
	"math"
	"sync"
	"time"
)

// pageXferNs is how long one page occupies the read bus: PageSize bytes at
// ReadBandwidth (3.41 us), rounded up so the modelled device never beats
// the real one.
var pageXferNs = int64(math.Ceil(PageSize / ReadBandwidth * 1e9))

// cmdQueue is the flash command queue in virtual time: QueueDepth slots in
// front of one read bus. A page-read command takes the slot that frees
// first, starts when both it and the caller are ready, has its page in the
// chip's register tR later, and then crosses the bus, one page at a time,
// for pageXferNs. The slot is free again once the page is across. Because
// the bus serializes transfers, commands complete in issue order, so the
// slot that frees first is always the one issued longest ago — a ring.
//
// The model is arithmetic: no goroutine, no timer. Callers learn when
// their last command completes and sleep until then themselves, so one
// reader with many pages in flight overlaps tR across them, and many
// readers share the bus's bandwidth instead of each getting their own.
type cmdQueue struct {
	mu       sync.Mutex
	slotFree [QueueDepth]int64 // device-clock ns at which each slot's command completes
	head     int               // the slot that frees first
	busFree  int64             // device-clock ns at which the bus is idle
}

// submit issues n page-read commands at device-clock time now, each with
// array-read latency tR, and returns when the last of them completes.
func (q *cmdQueue) submit(now, tR int64, n int) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	done := now
	for i := 0; i < n; i++ {
		ready := max(now, q.slotFree[q.head]) + tR
		done = max(ready, q.busFree) + pageXferNs
		q.busFree = done
		q.slotFree[q.head] = done
		q.head = (q.head + 1) % QueueDepth
	}
	return done
}

// clock returns the device clock: nanoseconds since the device was made.
func (d *Device) clock() int64 { return int64(time.Since(d.epoch)) }

// cancellable reports whether ctx can ever be cancelled (a nil or
// Background context never is).
func cancellable(ctx context.Context) bool {
	return ctx != nil && ctx.Done() != nil
}

// readPages passes n page reads through the command queue and sleeps until
// the last one completes — once per call, however many pages. With no read
// latency set it returns at once and the queue is never touched. The sleep
// returns early, with the context's error, when ctx is cancelled: a
// cancelled query stops paying, and holding, simulated NAND time. The
// commands stay issued either way; the bandwidth they took is spent.
func (d *Device) readPages(ctx context.Context, n int) error {
	tR := d.readLatencyNs.Load()
	if tR <= 0 || n <= 0 {
		return nil
	}
	now := d.clock()
	wait := time.Duration(d.queue.submit(now, tR, n) - now)
	if !cancellable(ctx) {
		time.Sleep(wait)
		return nil
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
