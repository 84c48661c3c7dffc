package aquoman

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aquoman/internal/distrib"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// liveHeap is the heap still reachable after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// requireNothingLeftBehind runs query (which must attach rec to the context
// it runs under) 50 times to warm every cache and lazily built table, then
// 200 more, and requires that the process kept nothing per query: live heap
// does not grow with the query count, and the recorders themselves are
// garbage once their queries are over.
func requireNothingLeftBehind(t *testing.T, query func(rec *Lifecycle)) {
	t.Helper()
	var collected atomic.Int64
	run := func(n int) {
		for i := 0; i < n; i++ {
			rec := NewLifecycle("q")
			runtime.SetFinalizer(rec, func(*Lifecycle) { collected.Add(1) })
			query(rec)
			rec.Finish()
		}
	}
	run(50)
	before := liveHeap()
	const queries = 200
	run(queries)
	grown := liveHeap() - before
	// A span was ~180 B and q6 left 11 of them: ~2 KB a query, ~390 KB here.
	if limit := int64(64 << 10); grown > limit {
		t.Errorf("live heap grew %d B over %d queries (%d B a query), want under %d B in all",
			grown, queries, grown/queries, limit)
	}
	// Finalizers run on their own goroutine, a collection or two after the
	// object died: give them a moment before counting.
	for deadline := time.Now().Add(5 * time.Second); collected.Load() < 50+queries-2 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < 50+queries-2 {
		t.Errorf("only %d of %d finished recorders were collected: the process still holds the rest", got, 50+queries)
	}
}

// A served query leaves nothing behind: with observability on and the
// scheduler in front, 200 × q6 through DB.Submit retain no span — an
// untraced query does not even have a span store — and no heap.
func TestServedQueryLeavesNothingBehind(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 42); err != nil {
		t.Fatal(err)
	}
	db.HeapScale = 1000 / 0.002
	db.EnableObservability()
	db.EnableCache(64 << 20)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 2, QueueDepth: 8})
	defer db.Close()
	requireNothingLeftBehind(t, func(rec *Lifecycle) {
		ticket, err := db.Submit(WithLifecycle(context.Background(), rec), Request{TPCH: 6})
		if err != nil {
			t.Fatal(err)
		}
		res, err := ticket.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Trace != nil || rec.Spans() != nil {
			t.Fatal("a query nobody asked to trace kept spans")
		}
	})
}

// The same for a scattered query: the coordinator and both shards of an
// observed cluster keep nothing once the query has merged.
func TestScatteredQueryLeavesNothingBehind(t *testing.T) {
	c := distrib.NewCluster(2)
	c.HeapScale = 1000 / 0.002
	c.DisableHostMirror = true
	if err := c.LoadTPCH(0.002, 42); err != nil {
		t.Fatal(err)
	}
	c.EnableObservability()
	c.EnableCache(64 << 20)
	requireNothingLeftBehind(t, func(rec *Lifecycle) {
		if _, _, err := c.RunQueryCtx(WithLifecycle(context.Background(), rec), func() plan.Node { return tpch.Q6() }); err != nil {
			t.Fatal(err)
		}
		if rec.Spans() != nil {
			t.Fatal("a query nobody asked to trace kept spans")
		}
	})
	runtime.KeepAlive(c) // or the final heap reading finds the whole cluster dead
}
