package flash

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// The queue model is arithmetic on a clock the caller supplies, so every
// case here runs in virtual time: nothing sleeps.

const tR100 = int64(100 * time.Microsecond)

func TestQueueOnePage(t *testing.T) {
	if pageXferNs != 3414 { // 8192 B / 2.4 GB/s = 3413.3 ns, rounded up
		t.Fatalf("pageXferNs = %d, want 3414", pageXferNs)
	}
	var q cmdQueue
	const now = 5_000_000
	if got, want := q.submit(now, tR100, 1), now+tR100+pageXferNs; got != want {
		t.Fatalf("1 page completes at %d, want now + tR + xfer = %d", got, want)
	}
}

// A full queue's worth of commands overlaps tR completely: the pages are
// all in their registers at tR and cross the bus back to back.
func TestQueueFullDepthOverlapsLatency(t *testing.T) {
	var q cmdQueue
	if got, want := q.submit(0, tR100, QueueDepth), tR100+QueueDepth*pageXferNs; got != want {
		t.Fatalf("%d pages complete at %d, want tR + %d*xfer = %d", QueueDepth, got, QueueDepth, want)
	}
	// One page at a time — what a caller pays that never batches.
	var serial cmdQueue
	now := int64(0)
	for i := 0; i < QueueDepth; i++ {
		now = serial.submit(now, tR100, 1)
	}
	if want := QueueDepth * (tR100 + pageXferNs); now != want {
		t.Fatalf("%d serial pages complete at %d, want %d", QueueDepth, now, want)
	}
}

// Past the queue's depth a command waits for a slot. With a long tR the
// wait shows: command 128+i takes the slot command i frees at tR +
// (i+1)*xfer, is ready tR later, and the second wave ends at 2*tR +
// 129*xfer. With the paper's tR the bus is the bottleneck instead and the
// slot wait hides behind it.
func TestQueueSecondWaveWaitsForSlots(t *testing.T) {
	const tR = int64(time.Millisecond)
	var q cmdQueue
	if got, want := q.submit(0, tR, 2*QueueDepth), 2*tR+(QueueDepth+1)*pageXferNs; got != want {
		t.Fatalf("slot-bound: 256 pages complete at %d, want 2*tR + 129*xfer = %d", got, want)
	}
	var bus cmdQueue
	if got, want := bus.submit(0, tR100, 2*QueueDepth), tR100+2*QueueDepth*pageXferNs; got != want {
		t.Fatalf("bus-bound: 256 pages complete at %d, want tR + 256*xfer = %d", got, want)
	}
	// The same 256 pages as two submits at the same instant cost the same:
	// the queue is the device's, not the caller's.
	var split cmdQueue
	split.submit(0, tR, QueueDepth)
	if got, want := split.submit(0, tR, QueueDepth), 2*tR+(QueueDepth+1)*pageXferNs; got != want {
		t.Fatalf("split submit completes at %d, want %d", got, want)
	}
}

// Two callers interleaving batches share one bus: whatever the pattern,
// the pages delivered by any completion time never amount to more than
// ReadBandwidth.
func TestQueueAggregateBandwidthBounded(t *testing.T) {
	var q cmdQueue
	const start = int64(1_000_000)
	nowA, nowB := start, start
	pages := 0
	for i := 0; i < 200; i++ {
		// A issues 48-page batches back to back; B issues 16-page batches
		// and thinks for 20 us between them.
		var done int64
		if nowA <= nowB {
			nowA = q.submit(nowA, tR100, 48)
			pages, done = pages+48, nowA
		} else {
			nowB = q.submit(nowB, tR100, 16)
			pages, done = pages+16, nowB
			nowB += 20_000
		}
		if rate := float64(pages) * PageSize / (float64(done-start) / 1e9); rate > ReadBandwidth {
			t.Fatalf("after %d pages the device has delivered %.4g B/s, above %.4g", pages, rate, float64(ReadBandwidth))
		}
	}
	// The queue overlaps the two callers' tR: together they get more out of
	// the device than A's 48-page batches could alone.
	alone := 48 * PageSize / (float64(tR100+48*pageXferNs) / 1e9)
	if rate := float64(pages) * PageSize / (float64(max(nowA, nowB)-start) / 1e9); rate <= alone {
		t.Fatalf("two callers reached %.4g B/s, no more than one alone (%.4g)", rate, alone)
	}
}

// An idle queue starts commands at the caller's clock, not in the past.
func TestQueueIdleSlotsStartNow(t *testing.T) {
	var q cmdQueue
	q.submit(0, tR100, QueueDepth)
	const later = int64(time.Second)
	if got, want := q.submit(later, tR100, 1), later+tR100+pageXferNs; got != want {
		t.Fatalf("page issued on an idle queue completes at %d, want %d", got, want)
	}
}

// With no read latency the model is off: reads never touch the queue, so
// they cannot sleep.
func TestZeroLatencyNeverSleeps(t *testing.T) {
	d := NewDevice()
	f := d.Create("f")
	f.Append(make([]byte, 300*PageSize), Host)
	buf := make([]byte, 300*PageSize)
	if _, err := f.ReadAt(buf, 0, Aquoman); err != nil {
		t.Fatal(err)
	}
	var b Batch
	for p := int64(0); p < 300; p++ {
		b.Add(f, p)
	}
	if err := b.Read(nil, Aquoman); err != nil {
		t.Fatal(err)
	}
	if d.queue.busFree != 0 || d.queue.head != 0 {
		t.Fatalf("zero-latency reads went through the command queue: %+v", d.queue.slotFree[:4])
	}
	d.SetReadLatency(time.Hour)
	d.SetReadLatency(0)
	if err := d.readPages(context.Background(), 1000); err != nil || d.queue.busFree != 0 {
		t.Fatalf("readPages with the model off: err %v, busFree %d", err, d.queue.busFree)
	}
}

// A batch straight off the device: pages land in the caller's scratch in
// Add order, short and missing pages included, accounted like one-by-one
// reads, for one pass through the queue.
func TestBatchDirectRead(t *testing.T) {
	d := NewDevice()
	f, g := d.Create("f"), d.Create("g")
	content := make([]byte, 5*PageSize+100)
	for i := range content {
		content[i] = byte(i / PageSize)
	}
	f.Append(content, Host)
	g.Append(bytes.Repeat([]byte{0xEE}, PageSize), Host)

	scratch := make([]byte, 4*PageSize)
	var b Batch
	b.Reset(scratch)
	b.Add(f, 1)
	b.Add(f, 2)
	b.Add(f, 5) // the short last page
	b.Add(g, 0)
	b.Add(f, 9) // past the end; also past the scratch
	d.SetReadLatency(100 * time.Microsecond)
	before := d.Stats()
	if err := b.Read(context.Background(), Aquoman); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]byte{
		content[PageSize : 2*PageSize], content[2*PageSize : 3*PageSize], content[5*PageSize:],
		bytes.Repeat([]byte{0xEE}, PageSize), nil,
	} {
		if !bytes.Equal(b.Page(i), want) {
			t.Fatalf("page %d: got %d bytes, want %d", i, len(b.Page(i)), len(want))
		}
	}
	if &b.Page(1)[0] != &scratch[PageSize] {
		t.Fatal("page 1 did not land in its scratch slot")
	}
	delta := d.Stats().Sub(before)
	if delta.PagesRead[Aquoman] != 5 || delta.PagesReadRandom[Aquoman] != 2 {
		t.Fatalf("accounted %d pages, %d seeks; want 5 pages, 2 seeks (f:2->5, f:5->9)",
			delta.PagesRead[Aquoman], delta.PagesReadRandom[Aquoman])
	}
	// One submit of five commands: all ready at tR, then back to back on
	// the bus.
	if d.queue.head != 5 || d.queue.busFree-d.queue.slotFree[0] != 4*pageXferNs {
		t.Fatalf("batch was not one 5-command submit: head %d, first-to-last %d ns",
			d.queue.head, d.queue.busFree-d.queue.slotFree[0])
	}
}

// Cancelling the caller interrupts the wait for the device, promptly.
func TestReadPagesInterruptible(t *testing.T) {
	d := NewDevice()
	d.SetReadLatency(time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	start := time.Now()
	if err := d.readPages(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("cancelled wait was not prompt")
	}
}
