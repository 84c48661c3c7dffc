package aquoman

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/sql"
	"aquoman/internal/tpch"
)

// concOracle evaluates all 22 TPC-H queries through the naive reference
// executor while the device is idle and fault-free.
func concOracle(t *testing.T, db *DB) map[int]*tpch.OraBatch {
	t.Helper()
	ora, err := tpch.NewOracle(db.Store)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]*tpch.OraBatch)
	for _, q := range tpch.Queries() {
		n := q.Build()
		if err := plan.Bind(n, db.Store); err != nil {
			t.Fatalf("q%d bind: %v", q.Num, err)
		}
		b, err := ora.Run(n)
		if err != nil {
			t.Fatalf("q%d oracle: %v", q.Num, err)
		}
		want[q.Num] = b
	}
	return want
}

func diffResult(t *testing.T, label string, got *Result, want *tpch.OraBatch) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: nil result", label)
		return
	}
	if len(got.Batch.Schema) != len(want.Schema) {
		t.Errorf("%s: %d output columns, oracle has %d", label, len(got.Batch.Schema), len(want.Schema))
		return
	}
	if got.NumRows() != want.NumRows() {
		t.Errorf("%s: %d rows, oracle has %d", label, got.NumRows(), want.NumRows())
		return
	}
	for c := range got.Batch.Cols {
		for r := range got.Batch.Cols[c] {
			if got.Batch.Cols[c][r] != want.Cols[c][r] {
				t.Errorf("%s: row %d col %q = %d, oracle %d",
					label, r, got.Batch.Schema[c].Name, got.Batch.Cols[c][r], want.Cols[c][r])
				return
			}
		}
	}
}

// All 22 TPC-H queries submitted simultaneously from 8 goroutines through
// the scheduler, with the shared page cache in front of the device, must
// each be cell-exact against the sequential reference executor. Run with
// -race this is the central concurrency-correctness proof.
func TestConcurrentOracleDifferential(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 42); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.EnableCache(64 << 20)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 8, QueueDepth: 64})
	defer db.Close()

	// Stripe the 22 queries across 8 submitter goroutines; every
	// goroutine also re-runs q6 so several streams hammer the same hot
	// lineitem pages concurrently (cache sharing, single-flight).
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nums := []int{6}
			for _, q := range tpch.Queries() {
				if q.Num%8 == g {
					nums = append(nums, q.Num)
				}
			}
			for _, q := range nums {
				ticket, err := db.Submit(nil, Request{TPCH: q, Admit: &Admission{Wait: true}})
				if err != nil {
					t.Errorf("q%d submit: %v", q, err)
					return
				}
				res, err := ticket.Wait()
				if err != nil {
					t.Errorf("q%d: %v", q, err)
					return
				}
				diffResult(t, fmt.Sprintf("q%d (goroutine %d)", q, g), res, want[q])
			}
		}(g)
	}
	wg.Wait()
	st := db.CacheStats()
	if st.Hits == 0 {
		t.Fatal("concurrent TPC-H run never hit the shared cache")
	}
	if st.Bytes > 64<<20 {
		t.Fatalf("cache resident %d bytes exceeds budget", st.Bytes)
	}
}

// One device pass under concurrency: behind a page cache larger than the
// q1 + q6 footprint, S streams each running q1 then q6 cost the device the
// same page count as one stream — single-flight turns S concurrent scans
// of a file into one pass, and every cache miss is exactly one device read.
func TestOneDevicePassUnderConcurrency(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 42); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	// A device that takes time to answer keeps fills in flight long enough
	// for other streams to arrive at the same pages.
	db.Flash.SetReadLatency(100 * time.Microsecond)
	defer db.Close()

	var pages, lookups int64 // of the one-stream round
	for _, streams := range []int{1, 4, 16} {
		db.ConfigureScheduler(SchedulerConfig{MaxInFlight: streams, QueueDepth: 2 * streams})
		cache := db.EnableCache(64 << 20) // cold per round
		db.ResetFlashStats()
		var wg sync.WaitGroup
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for _, q := range []int{1, 6} {
					ticket, err := db.Submit(nil, Request{TPCH: q, Admit: &Admission{Wait: true}})
					if err != nil {
						t.Errorf("stream %d q%d submit: %v", s, q, err)
						return
					}
					res, err := ticket.Wait()
					if err != nil {
						t.Errorf("stream %d q%d: %v", s, q, err)
						return
					}
					diffResult(t, fmt.Sprintf("q%d (stream %d of %d)", q, s, streams), res, want[q])
				}
			}(s)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		got, st := db.FlashStats().TotalPagesRead(), cache.Stats()
		if streams == 1 {
			pages, lookups = got, st.Hits+st.Misses
			if pages == 0 {
				t.Fatal("one stream read no device pages — the round measured nothing")
			}
		}
		if got != pages || st.Misses != pages {
			t.Fatalf("%d streams: device served %d pages on %d cache misses, want %d (one pass) for both", streams, got, st.Misses, pages)
		}
		if n := st.Hits + st.Misses; n != int64(streams)*lookups {
			t.Fatalf("%d streams: %d cache lookups, want %d x %d", streams, n, streams, lookups)
		}
	}
}

// RunConcurrent is the convenience wrapper: order-preserving results for
// a mixed batch of plans.
func TestRunConcurrent(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.EnableCache(16 << 20)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 4, QueueDepth: 4})
	defer db.Close()
	nums := []int{1, 6, 14, 6, 1, 19, 6, 12}
	plans := make([]Plan, len(nums))
	for i, q := range nums {
		p, err := TPCHQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		plans[i] = p
	}
	results, err := db.RunConcurrent(plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		diffResult(t, fmt.Sprintf("plans[%d]=q%d", i, nums[i]), res, want[nums[i]])
	}
}

// gateDevice installs a fault-injector hook that blocks every device page
// read matching wait() until the returned release func is called. It
// never injects a fault — it only parks readers, giving tests a
// deterministic way to keep a query in-flight.
func gateDevice(db *DB, match func(file string) bool) (release func()) {
	gate := make(chan struct{})
	inj := faults.New(faults.Config{})
	inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if match(file) {
			<-gate
		}
		return 0, false
	}
	db.WithFaults(inj)
	return func() { close(gate) }
}

// Fairness: a long SORT query pinned in one of two in-flight slots must
// not starve short q6 queries flowing through the other slot — every
// short completes within a bounded number of scheduling rounds.
func TestSchedulerFairnessLongSort(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 2, QueueDepth: 64})
	defer db.Close()

	// The hog: a full ORDER BY over orders, parked on its first orders
	// page read by the gate.
	release := gateDevice(db, func(file string) bool {
		return len(file) >= 7 && file[:7] == "orders/"
	})
	long, err := db.Submit(nil, Request{SQL: "SELECT o_totalprice FROM orders ORDER BY o_totalprice DESC"})
	if err != nil {
		t.Fatal(err)
	}
	for long.Round() == 0 {
		time.Sleep(time.Millisecond) // wait until the hog owns a slot
	}

	const shorts = 8
	tickets := make([]*Ticket, shorts)
	for i := range tickets {
		p, err := TPCHQuery(6)
		if err != nil {
			t.Fatal(err)
		}
		ticket, err := db.Submit(nil, Request{Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = ticket
	}
	for i, ticket := range tickets {
		res, err := ticket.Wait()
		if err != nil {
			t.Fatalf("short %d: %v", i, err)
		}
		diffResult(t, fmt.Sprintf("short %d", i), res, want[6])
		if r := ticket.Round(); r < 2 || r > int64(i)+2 {
			t.Fatalf("short %d granted at round %d, want within [2, %d]: starved behind the sort", i, r, i+2)
		}
	}
	select {
	case <-long.Done():
		t.Fatal("long sort finished before its gate was released")
	default:
	}
	release()
	res, err := long.Wait()
	if err != nil {
		t.Fatal(err)
	}
	orders, err := db.Store.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != orders.NumRows {
		t.Fatalf("sort returned %d rows, want %d", res.NumRows(), orders.NumRows)
	}
	for r := 1; r < res.NumRows(); r++ {
		if res.Batch.Cols[0][r] > res.Batch.Cols[0][r-1] {
			t.Fatal("sort output not descending")
		}
	}
}

// Backpressure: with one in-flight slot gated and the queue full, Submit
// must fail fast with ErrQueueFull; queued work still completes exactly
// once the gate lifts.
func TestSubmitBackpressure(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 1, QueueDepth: 1})
	defer db.Close()

	release := gateDevice(db, func(string) bool { return true })
	submit := func() (*Ticket, error) {
		p, err := TPCHQuery(6)
		if err != nil {
			t.Fatal(err)
		}
		return db.Submit(nil, Request{Plan: p})
	}
	first, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	for first.Round() == 0 {
		time.Sleep(time.Millisecond) // in-flight, parked on the gate
	}
	queued, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	release()
	for i, ticket := range []*Ticket{first, queued} {
		res, err := ticket.Wait()
		if err != nil {
			t.Fatalf("ticket %d: %v", i, err)
		}
		diffResult(t, fmt.Sprintf("ticket %d", i), res, want[6])
	}
}

// A deterministic stuck-device fault scoped to the orders table must fail
// the queries that touch it with a typed fault error — and must not wedge
// or corrupt the unrelated q6 queries queued behind them on the same
// single in-flight slot.
func TestStuckDeviceDoesNotWedgeQueue(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 1, QueueDepth: 16})
	db.SetRetryPolicy(RetryPolicy{Budget: 0})
	defer db.Close()

	inj := faults.New(faults.Config{})
	inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if len(file) >= 7 && file[:7] == "orders/" {
			return faults.DeviceStuck, true
		}
		return 0, false
	}
	db.WithFaults(inj)

	// Interleave victims (orders scans) and bystanders (q6) in one queue.
	var victims, bystanders []*Ticket
	for i := 0; i < 3; i++ {
		vt, err := db.Submit(nil, Request{SQL: "SELECT o_orderkey FROM orders WHERE o_totalprice > 0"})
		if err != nil {
			t.Fatal(err)
		}
		victims = append(victims, vt)
		p, err := TPCHQuery(6)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := db.Submit(nil, Request{Plan: p})
		if err != nil {
			t.Fatal(err)
		}
		bystanders = append(bystanders, bt)
	}
	for i, ticket := range victims {
		_, err := ticket.Wait()
		var fe *faults.Error
		if !errors.As(err, &fe) || fe.Kind != faults.DeviceStuck {
			t.Fatalf("victim %d: err = %v, want DeviceStuck fault", i, err)
		}
	}
	for i, ticket := range bystanders {
		res, err := ticket.Wait()
		if err != nil {
			t.Fatalf("bystander %d wedged: %v", i, err)
		}
		diffResult(t, fmt.Sprintf("bystander %d", i), res, want[6])
	}
	if inj.Counts().TotalInjected() == 0 {
		t.Fatal("schedule injected no faults")
	}
}

func mustPlanSQL(t *testing.T, db *DB, src string) Plan {
	t.Helper()
	p, err := sql.Plan(src, db.Store)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
