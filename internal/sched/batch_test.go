package sched_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

// readBatch reads pages [first, last] of f as one batch and checks them
// against the file's content.
func readBatch(ctx context.Context, f *flash.File, content []byte, first, last int64) error {
	var b flash.Batch
	for p := first; p <= last; p++ {
		b.Add(f, p)
	}
	if err := b.Read(ctx, flash.Aquoman); err != nil {
		return err
	}
	for i := 0; i < b.Len(); i++ {
		lo := (first + int64(i)) * flash.PageSize
		if !bytes.Equal(b.Page(i), content[lo:lo+flash.PageSize]) {
			return fmt.Errorf("page %d: wrong bytes", first+int64(i))
		}
	}
	return nil
}

// Scans batch-filling overlapping ranges at the same time read each
// distinct page from the device exactly once, whatever the interleaving:
// a page is either resident, or in exactly one reader's flight.
func TestBatchFillsOverlappingRangesReadOnce(t *testing.T) {
	const pages = 256
	dev := flash.NewDevice()
	content := fillFile(t, dev, "tab/c.dat", pages*flash.PageSize)
	dev.SetPageCache(sched.NewPageCache(2 * pages * flash.PageSize))
	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	var wg sync.WaitGroup
	for _, scan := range [][2]int64{{0, 159}, {96, 255}, {0, 255}, {64, 191}} {
		wg.Add(1)
		go func(first, last int64) {
			defer wg.Done()
			for p := first; p <= last; p += 32 {
				if err := readBatch(nil, f, content, p, min(p+31, last)); err != nil {
					t.Error(err)
					return
				}
			}
		}(scan[0], scan[1])
	}
	wg.Wait()
	if got := dev.Stats().Sub(before).PagesRead[flash.Aquoman]; got != pages {
		t.Fatalf("four overlapping scans cost %d device page reads, want %d (one per distinct page)", got, pages)
	}
}

// blockingFill is a PageFiller that parks inside the device read until
// released and then delivers pages of one repeated byte.
type blockingFill struct {
	entered, release chan struct{}
	fill             byte
}

func (b *blockingFill) FillPages(miss []int, data [][]byte, errs []error) {
	if b.entered != nil {
		close(b.entered)
		<-b.release
	}
	for k := range miss {
		data[k] = bytes.Repeat([]byte{b.fill}, 64)
	}
}

func ids(file string, first, last int64) []flash.PageID {
	var out []flash.PageID
	for p := first; p <= last; p++ {
		out = append(out, flash.PageID{File: file, Page: p})
	}
	return out
}

// A reader that arrives after an invalidation never joins a batch that was
// in flight before it: it reads the device itself, does not wait for the
// older batch, and the older batch's fill does not become resident.
func TestBatchNeverJoinedAcrossInvalidation(t *testing.T) {
	cache := sched.NewPageCache(64 * flash.PageSize)
	old := &blockingFill{entered: make(chan struct{}), release: make(chan struct{}), fill: 0xAA}
	oldData := make([][]byte, 8)
	oldDone := make(chan error, 1)
	go func() { oldDone <- cache.GetPages(nil, ids("tab/c.dat", 0, 7), oldData, old) }()
	<-old.entered
	cache.InvalidatePages("tab/c.dat", 3, 3) // page 3 is rewritten mid-flight

	newData := make([][]byte, 4)
	newDone := make(chan error, 1)
	go func() { newDone <- cache.GetPages(nil, ids("tab/c.dat", 2, 5), newData, &blockingFill{fill: 0xEC}) }()
	select {
	case err := <-newDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(old.release)
		t.Fatal("post-invalidation reader waited on the pre-invalidation batch")
	}
	for i, d := range newData {
		if len(d) == 0 || d[0] != 0xEC {
			t.Fatalf("post-invalidation reader got stale bytes for page %d", 2+i)
		}
	}
	close(old.release)
	if err := <-oldDone; err != nil {
		t.Fatal(err)
	}
	if oldData[3][0] != 0xAA {
		t.Fatal("pre-invalidation reader lost its own read")
	}
	// What is resident now is the fresh fill; nothing of the stale one.
	got := make([][]byte, 8)
	refill := &blockingFill{fill: 0x11}
	if err := cache.GetPages(nil, ids("tab/c.dat", 0, 7), got, refill); err != nil {
		t.Fatal(err)
	}
	for p, d := range got {
		want := byte(0x11) // never resident: the stale fill was discarded
		if p >= 2 && p <= 5 {
			want = 0xEC
		}
		if d[0] != want {
			t.Fatalf("page %d served %#x, want %#x", p, d[0], want)
		}
	}
}

// A page that fails in the middle of a batch — retry budget exhausted, or
// bad for good — fails the batch on that page; its neighbours are cached,
// it is not, and once it reads again it costs exactly one device read.
func TestBatchFaultMidBatch(t *testing.T) {
	for _, kind := range []faults.Kind{faults.Transient, faults.Permanent} {
		t.Run(kind.String(), func(t *testing.T) {
			const pages, bad = 16, 7
			dev := flash.NewDevice()
			content := fillFile(t, dev, "tab/c.dat", pages*flash.PageSize)
			dev.SetPageCache(sched.NewPageCache(64 * flash.PageSize))
			inj := faults.New(faults.Config{})
			failing := true
			inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
				return kind, failing && page == bad
			}
			dev.SetFaults(inj)
			f, err := dev.Open("tab/c.dat")
			if err != nil {
				t.Fatal(err)
			}
			before := dev.Stats()
			err = readBatch(nil, f, content, 0, pages-1)
			var fe *faults.Error
			if !errors.As(err, &fe) || fe.Page != bad || fe.Kind != kind {
				t.Fatalf("batch error = %v, want an injected %s fault on page %d", err, kind, bad)
			}
			d := dev.Stats().Sub(before)
			if d.PagesRead[flash.Aquoman] != pages-1 || d.ReadsFailed[flash.Aquoman] != 1 {
				t.Fatalf("read %d pages, failed %d; want %d and 1", d.PagesRead[flash.Aquoman], d.ReadsFailed[flash.Aquoman], pages-1)
			}
			wantRetries := int64(0)
			if kind == faults.Transient {
				wantRetries = int64(dev.RetryPolicy().Budget)
			}
			if d.ReadRetries[flash.Aquoman] != wantRetries {
				t.Fatalf("bad page retried %d times, want %d", d.ReadRetries[flash.Aquoman], wantRetries)
			}

			// Still failing: only the bad page goes back to the device.
			before = dev.Stats()
			if err := readBatch(nil, f, content, 0, pages-1); !errors.As(err, &fe) || fe.Page != bad {
				t.Fatalf("second batch error = %v", err)
			}
			if got := dev.Stats().Sub(before).PagesRead[flash.Aquoman]; got != 0 {
				t.Fatalf("neighbours of the bad page were not cached: %d device reads", got)
			}
			failing = false
			before = dev.Stats()
			if err := readBatch(nil, f, content, 0, pages-1); err != nil {
				t.Fatal(err)
			}
			if got := dev.Stats().Sub(before).PagesRead[flash.Aquoman]; got != 1 {
				t.Fatalf("healed batch cost %d device reads, want 1 (the bad page was cached?)", got)
			}
		})
	}
}

// Cancelling a reader in the middle of a batch fill returns it promptly,
// leaves no flight unresolved, and the readers coalesced on its pages
// still get them.
func TestBatchCancelMidFill(t *testing.T) {
	const pages = 32
	dev := flash.NewDevice()
	content := fillFile(t, dev, "tab/c.dat", pages*flash.PageSize)
	cache := sched.NewPageCache(64 * flash.PageSize)
	dev.SetPageCache(cache)
	dev.SetReadLatency(time.Minute) // the fill waits "forever" unless cancelled
	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	fillerDone := make(chan error, 1)
	go func() { fillerDone <- readBatch(ctx, f, content, 0, pages-1) }()
	// The filler holds its flights once the cache has counted its misses.
	waitFor(t, "the filler's misses", func() bool { return cache.Stats().Misses == pages })

	// A second reader coalesces on half of those pages.
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- readBatch(context.Background(), f, content, 8, 23) }()
	waitFor(t, "the waiter to coalesce", func() bool { return cache.Stats().Hits == 16 })

	start := time.Now()
	cancel()
	if err := <-fillerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled filler returned %v, want context.Canceled", err)
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("coalesced waiter lost its pages to another reader's cancellation: %v", err)
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("cancellation took %v", wall)
	}
	// No flight is left behind: the pages are resident, and reading them
	// again neither blocks nor touches the device.
	before := dev.Stats()
	if err := readBatch(context.Background(), f, content, 0, pages-1); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Sub(before).TotalPagesRead(); got != 0 {
		t.Fatalf("pages of the cancelled fill were re-read: %d device reads", got)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// GetPage is GetPages with one page: same residency, same counters.
func TestGetPageIsOnePageBatch(t *testing.T) {
	cache := sched.NewPageCache(64 * flash.PageSize)
	rng := rand.New(rand.NewSource(1))
	page := make([]byte, 128)
	rng.Read(page)
	reads := 0
	read := func() ([]byte, error) { reads++; return page, nil }
	for i := 0; i < 3; i++ {
		got, err := cache.GetPage(nil, "tab/c.dat", 4, read)
		if err != nil || !bytes.Equal(got, page) {
			t.Fatalf("GetPage: %v", err)
		}
	}
	data := make([][]byte, 2)
	if err := cache.GetPages(nil, ids("tab/c.dat", 4, 5), data, &blockingFill{fill: 0x55}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[0], page) || data[1][0] != 0x55 {
		t.Fatal("batch did not see GetPage's fill, or did not fill its own miss")
	}
	if st := cache.Stats(); reads != 1 || st.Misses != 2 || st.Hits != 3 {
		t.Fatalf("reads %d, stats %+v; want 1 read, 2 misses, 3 hits", reads, st)
	}
}
