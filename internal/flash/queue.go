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

// Queue is the flash command queue in virtual time: a ring of slots in
// front of one read bus. A page-read command takes the slot that frees
// first, starts when both it and the caller are ready, has its page in the
// chip's register tR later, and then crosses the bus, one page at a time,
// for xfer. The slot is free again once the page is across. Because the bus
// serializes transfers, commands complete in issue order, so the slot that
// frees first is always the one issued longest ago — a ring.
//
// The model is arithmetic in whatever unit the caller's clock counts — the
// served device's nanoseconds, internal/pipesim's cycles: no goroutine, no
// timer. Callers learn when a command completes and wait until then
// themselves, so one reader with many pages in flight overlaps tR across
// them, and many readers share the bus's bandwidth instead of each getting
// their own. Not safe for concurrent use.
type Queue struct {
	slotFree []int64 // time at which each slot's command completes
	head     int     // the slot that frees first
	busFree  int64   // time at which the bus is idle
}

// NewQueue returns an idle queue of the given depth.
func NewQueue(depth int) Queue { return Queue{slotFree: make([]int64, depth)} }

// Submit issues one page-read command at time now, with array-read latency
// tR and bus occupancy xfer, and returns when it completes.
func (q *Queue) Submit(now, tR, xfer int64) (done int64) {
	ready := max(now, q.slotFree[q.head]) + tR
	done = max(ready, q.busFree) + xfer
	q.busFree = done
	q.slotFree[q.head] = done
	q.head = (q.head + 1) % len(q.slotFree)
	return done
}

// cmdQueue is the served device's Queue: QueueDepth slots, pageXferNs a
// page, on the device clock, shared by every reader.
type cmdQueue struct {
	mu sync.Mutex
	Queue
	submits int64
}

// submit issues n page-read commands at device-clock time now, each with
// array-read latency tR, and returns when the last of them completes.
func (q *cmdQueue) submit(now, tR int64, n int) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.slotFree == nil {
		q.Queue = NewQueue(QueueDepth)
	}
	q.submits++
	done := now
	for i := 0; i < n; i++ {
		done = q.Submit(now, tR, pageXferNs)
	}
	return done
}

// QueueSubmits returns how many trips readers have made to the command
// queue, however many pages each carried (0 while the wall-clock model is
// off). It exists for tests, which count batches by it, not by wall clock.
func (d *Device) QueueSubmits() int64 {
	d.queue.mu.Lock()
	defer d.queue.mu.Unlock()
	return d.queue.submits
}

// clock returns the device clock: nanoseconds since the device was made.
func (d *Device) clock() int64 { return int64(time.Since(d.epoch)) }

// readPages passes n page reads through the command queue and sleeps until
// the last one completes — once per call, however many pages. With no read
// latency set it returns at once and the queue is never touched. The sleep
// returns early, with the context's error, when ctx (nil = never) is
// cancelled: a cancelled query stops paying, and holding, simulated NAND
// time. The commands stay issued either way; the bandwidth they took is
// spent.
func (d *Device) readPages(ctx context.Context, n int) error {
	tR := d.readLatencyNs.Load()
	if tR <= 0 || n <= 0 {
		return nil
	}
	now := d.clock()
	wait := time.Duration(d.queue.submit(now, tR, n) - now)
	if ctx == nil || ctx.Done() == nil {
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
