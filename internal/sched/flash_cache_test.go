package sched_test

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

func fillFile(t *testing.T, dev *flash.Device, name string, size int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(len(name))))
	data := make([]byte, size)
	rng.Read(data)
	f := dev.Create(name)
	f.Append(data, flash.Host)
	return data
}

// Single-flight through the real device: N goroutines reading the same
// page region concurrently must cost exactly one device page read (the
// flash per-requester stats are the witness, per the issue).
func TestSingleFlightDeviceStats(t *testing.T) {
	dev := flash.NewDevice()
	want := fillFile(t, dev, "tab/c.dat", flash.PageSize)
	dev.SetPageCache(sched.NewPageCache(16 * flash.PageSize))
	before := dev.Stats()

	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, flash.PageSize)
			n, err := f.ReadAt(buf, 0, flash.Aquoman)
			if err != nil || n != flash.PageSize {
				t.Errorf("read: n=%d err=%v", n, err)
				return
			}
			if !bytes.Equal(buf, want) {
				t.Error("reader got wrong bytes")
			}
		}()
	}
	wg.Wait()
	delta := dev.Stats().Sub(before)
	if got := delta.PagesRead[flash.Aquoman]; got != 1 {
		t.Fatalf("device served %d page reads for %d concurrent readers, want 1", got, workers)
	}
}

// Randomized reads and writes through a cached device must be
// byte-identical to an uncached shadow copy: WriteAt/Append invalidation
// keeps the cache coherent.
func TestCachedDeviceReadEquivalence(t *testing.T) {
	dev := flash.NewDevice()
	shadow := fillFile(t, dev, "tab/c.dat", 140*flash.PageSize+123)
	dev.SetPageCache(sched.NewPageCache(4 * flash.PageSize))
	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}
	// The shapes a byte-range read has to get right whatever the cache
	// holds — unaligned, straddling EOF, more than a command queue's worth
	// of pages — and then random traffic over the first ten pages.
	const hot = 10*flash.PageSize + 123
	shapes := [][2]int{
		{123, 3*flash.PageSize + 7},
		{len(shadow) - 100, 5000},
		{flash.PageSize / 2, (flash.QueueDepth + 2) * flash.PageSize},
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < len(shapes)+3000; i++ {
		var off int64
		var n int
		if i < len(shapes) {
			off, n = int64(shapes[i][0]), shapes[i][1]
		} else {
			off, n = int64(rng.Intn(hot)), 1+rng.Intn(3*flash.PageSize)
			if off+int64(n) > hot {
				n = hot - int(off)
			}
			if rng.Intn(8) == 0 {
				patch := make([]byte, n)
				rng.Read(patch)
				f.WriteAt(patch, off, flash.Host)
				copy(shadow[off:], patch)
				continue
			}
		}
		buf := make([]byte, n)
		got, err := f.ReadAt(buf, off, flash.Host)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(n, len(shadow)-int(off)); got != want || !bytes.Equal(buf[:got], shadow[off:off+int64(got)]) {
			t.Fatalf("op %d: read [%d,+%d) returned %d bytes, want %d; or they diverged from shadow", i, off, n, got, want)
		}
	}
}

// Fault interaction, both directions:
//   - a faulted read must NOT populate the cache (the error reaches the
//     caller and the next read retries the device);
//   - a read served from cache must NOT consume an injected fault (the
//     injector never sees it).
func TestCacheFaultInteraction(t *testing.T) {
	dev := flash.NewDevice()
	want := fillFile(t, dev, "tab/c.dat", flash.PageSize)
	dev.SetPageCache(sched.NewPageCache(16 * flash.PageSize))
	dev.SetRetryPolicy(flash.RetryPolicy{Budget: 0})

	inj := faults.New(faults.Config{})
	failing := true
	inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if failing && strings.HasPrefix(file, "tab/") {
			return faults.Permanent, true
		}
		return 0, false
	}
	dev.SetFaults(inj)

	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, flash.PageSize)
	var fe *faults.Error
	if _, err := f.ReadAt(buf, 0, flash.Host); !errors.As(err, &fe) {
		t.Fatalf("faulted read returned %v, want *faults.Error", err)
	}
	// The failure must not be resident: with faults cleared the same read
	// must hit the device (one more page read) and succeed.
	failing = false
	before := dev.Stats()
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil || !bytes.Equal(buf, want) {
		t.Fatalf("post-fault read: %v", err)
	}
	if got := dev.Stats().Sub(before).PagesRead[flash.Host]; got != 1 {
		t.Fatalf("post-fault read cost %d device reads, want 1 (fault was cached?)", got)
	}

	// Now the page is cached. Re-arm the injector: a cache hit must not
	// consume (or even consult) an injected fault.
	failing = true
	injBefore := inj.Counts().TotalInjected()
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil {
		t.Fatalf("cached read consulted the faulty device: %v", err)
	}
	if !bytes.Equal(buf, want) {
		t.Fatal("cached read returned wrong bytes")
	}
	if d := inj.Counts().TotalInjected() - injBefore; d != 0 {
		t.Fatalf("cache hit consumed %d injected faults, want 0", d)
	}
}

// Regression: a reader that starts AFTER a file invalidation (e.g. a
// column re-encode replacing the file) must never coalesce onto a read
// that was in flight BEFORE the invalidation — the follower would be
// handed the pre-invalidation bytes. The generation baked into the page
// key at lookup time forces post-invalidation readers onto a fresh read.
func TestNoStaleFlightServeAcrossInvalidation(t *testing.T) {
	cache := sched.NewPageCache(16 * flash.PageSize)
	stale := bytes.Repeat([]byte{0xAA}, 64) // old raw layout
	fresh := bytes.Repeat([]byte{0xEC}, 64) // re-encoded layout

	entered := make(chan struct{})
	release := make(chan struct{})
	oldDone := make(chan struct{})
	var oldData []byte
	go func() {
		defer close(oldDone)
		oldData, _ = cache.GetPage(nil, "tab/c.dat", 0, func() ([]byte, error) {
			close(entered)
			<-release
			return stale, nil
		})
	}()
	<-entered
	// The file is rewritten while the read is in flight.
	cache.InvalidateFile("tab/c.dat")

	// A reader starting now must perform its own device read and complete
	// without waiting for the blocked pre-invalidation flight.
	newDone := make(chan struct{})
	var newData []byte
	go func() {
		defer close(newDone)
		newData, _ = cache.GetPage(nil, "tab/c.dat", 0, func() ([]byte, error) {
			return fresh, nil
		})
	}()
	select {
	case <-newDone:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("post-invalidation reader coalesced onto the stale in-flight read")
	}
	if !bytes.Equal(newData, fresh) {
		t.Fatalf("post-invalidation reader got stale bytes %x", newData[:4])
	}
	close(release)
	<-oldDone
	if !bytes.Equal(oldData, stale) {
		t.Fatalf("pre-invalidation reader got %x, want its own read's bytes", oldData[:4])
	}
	// The fresh fill must be resident under the current generation; the
	// stale fill must not have displaced it.
	served, err := cache.GetPage(nil, "tab/c.dat", 0, func() ([]byte, error) {
		t.Fatal("fresh page was not resident after invalidation")
		return nil, nil
	})
	if err != nil || !bytes.Equal(served, fresh) {
		t.Fatalf("resident page = %x, err %v, want fresh bytes", served[:4], err)
	}
}

// The read-latency throttle only charges device reads: cache hits are
// free, which is the mechanism the concurrency benchmark leans on.
func TestReadLatencyOnlyOnMisses(t *testing.T) {
	dev := flash.NewDevice()
	fillFile(t, dev, "tab/c.dat", 4*flash.PageSize)
	dev.SetPageCache(sched.NewPageCache(16 * flash.PageSize))
	dev.SetReadLatency(0) // explicit default: disabled
	if got := dev.ReadLatency(); got != 0 {
		t.Fatalf("latency = %v, want 0", got)
	}
	f, err := dev.Open("tab/c.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*flash.PageSize)
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats()
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil {
		t.Fatal(err)
	}
	if got := dev.Stats().Sub(before).TotalPagesRead(); got != 0 {
		t.Fatalf("warm re-read cost %d device reads, want 0", got)
	}
}
