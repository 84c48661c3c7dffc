package aquoman

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aquoman/internal/col"
	"aquoman/internal/distrib"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// The central attribution proof: all 22 TPC-H queries (plus a q6 per
// stream hammering shared pages) run through the scheduler at 16
// in-flight slots, each carrying a Lifecycle, and the aggregate
// attributed time must explain at least 90% of aggregate wall time —
// queue waits, per-stage CPU, device reads, cache hits, and coalesce
// waits included. Results stay cell-exact against the oracle, so the
// telemetry demonstrably does not perturb execution. Run with -race
// this also exercises the recorder's hand-off from submitter to scheduler
// worker and back.
func TestLifecycleAttributionConcurrentOracle(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)
	db.EnableObservability()
	db.EnableCache(64 << 20)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 16, QueueDepth: 64})
	defer db.Close()

	var (
		mu         sync.Mutex
		lifecycles []*Lifecycle
	)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nums := []int{6}
			for _, q := range tpch.Queries() {
				if q.Num%16 == g {
					nums = append(nums, q.Num)
				}
			}
			for _, q := range nums {
				p, err := TPCHQuery(q)
				if err != nil {
					t.Error(err)
					return
				}
				lc := NewLifecycle(fmt.Sprintf("g%d-q%d", g, q))
				ctx := WithLifecycle(context.Background(), lc)
				ticket, err := db.SubmitWaitCtx(ctx, p)
				if err != nil {
					t.Errorf("q%d submit: %v", q, err)
					return
				}
				res, err := ticket.Wait()
				lc.Finish()
				if err != nil {
					t.Errorf("q%d: %v", q, err)
					return
				}
				diffResult(t, fmt.Sprintf("q%d (goroutine %d)", q, g), res, want[q])
				mu.Lock()
				lifecycles = append(lifecycles, lc)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	var wall, attributed time.Duration
	for _, lc := range lifecycles {
		wall += lc.Wall()
		attributed += lc.Attributed()
		if lc.Attributed() > lc.Wall()*3/2 {
			t.Errorf("%s: attributed %v far exceeds wall %v (double counting)",
				lc.ID, lc.Attributed(), lc.Wall())
		}
	}
	if wall == 0 {
		t.Fatal("no wall time recorded")
	}
	coverage := float64(attributed) / float64(wall)
	t.Logf("aggregate: wall %v, attributed %v, coverage %.1f%% over %d queries",
		wall, attributed, 100*coverage, len(lifecycles))
	if coverage < 0.90 {
		// Name the gap: the queries with the most wall time outside every
		// state, and where the rest of their time went.
		slices.SortFunc(lifecycles, func(a, b *Lifecycle) int { return cmp.Compare(b.Unattributed(), a.Unattributed()) })
		for _, lc := range lifecycles[:min(5, len(lifecycles))] {
			t.Logf("%s: wall %v, unattributed %v, states (ns) %v", lc.ID, lc.Wall(), lc.Unattributed(), lc.Breakdown())
		}
		t.Fatalf("attribution coverage %.1f%% < 90%%: lifecycle states lost track of wall time", 100*coverage)
	}

	// The scheduler published its queue telemetry: one wait observation
	// per query, and the depth gauge drained back to zero.
	checkQueueTelemetry(t, db, len(lifecycles))
}

// The exactness side of the ledger, under the most contention the cache
// sees: at 32 in-flight streams hammering the same pages, coalesced fills
// complete while other queries sit in their own regions. Each recorder is
// a timeline with one current state, so every query's Σstates is ≤ wall —
// no slack constant — and, with the unclaimed remainder, equals it.
func TestLifecycleSumOfStatesWithinWallAt32Streams(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	db.EnableObservability()
	db.EnableCache(64 << 20)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 32, QueueDepth: 128})
	defer db.Close()

	var (
		mu         sync.Mutex
		lifecycles []*Lifecycle
	)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range []int{6, 1} {
				p, err := TPCHQuery(q)
				if err != nil {
					t.Error(err)
					return
				}
				lc := NewLifecycle(fmt.Sprintf("s%d-q%d", g, q))
				ticket, err := db.SubmitWaitCtx(WithLifecycle(context.Background(), lc), p)
				if err != nil {
					t.Errorf("q%d submit: %v", q, err)
					return
				}
				if _, err := ticket.Wait(); err != nil {
					t.Errorf("q%d: %v", q, err)
					return
				}
				lc.Finish()
				mu.Lock()
				lifecycles = append(lifecycles, lc)
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	if len(lifecycles) != 64 {
		t.Fatalf("recorded %d lifecycles, want 64", len(lifecycles))
	}
	for _, lc := range lifecycles {
		requireExact(t, lc.ID, lc)
	}
}

// requireExact holds one finished recorder (and its forks) to the
// timeline's promise: every region was ended, Σstates ≤ wall, and Σstates
// plus the time nobody claimed is the wall clock to the nanosecond.
func requireExact(t *testing.T, label string, lc *Lifecycle) {
	t.Helper()
	if n := lc.Open(); n != 0 {
		t.Errorf("%s: %d regions begun and never ended", label, n)
	}
	var sum time.Duration
	for _, ns := range lc.Breakdown() {
		sum += time.Duration(ns)
	}
	wall := lc.Wall()
	if sum > wall {
		t.Errorf("%s: Σstates %v > wall %v (attribution overcounts)", label, sum, wall)
	}
	if sum+lc.Unattributed() != wall {
		t.Errorf("%s: Σstates %v + unattributed %v != wall %v", label, sum, lc.Unattributed(), wall)
	}
	for _, f := range lc.Forks() {
		requireExact(t, label+"/"+f.Name, f)
	}
}

// Attribution is exact, and says so: all 22 TPC-H queries on every
// execution path — fused, staged, host-only, scattered over two local
// shards — plus one query failed by a permanent read fault and one
// cancelled mid-scan leave a recorder whose states and unclaimed remainder
// add up to its wall clock exactly, with every region ended (error returns
// included). A scattered query's shard time sits under its forks and never
// in the coordinator's states.
func TestAttributionExactOnEveryPath(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 42); err != nil {
		t.Fatal(err)
	}
	db.HeapScale = 1000 / 0.005
	run := func(label string, req Request, wantErr bool) *Lifecycle {
		t.Helper()
		lc := NewLifecycle(label)
		_, err := db.Do(WithLifecycle(context.Background(), lc), req)
		lc.Finish()
		if (err != nil) != wantErr {
			t.Fatalf("%s: err = %v, want error %v", label, err, wantErr)
		}
		requireExact(t, label, lc)
		return lc
	}
	for _, q := range tpch.Queries() {
		for _, mode := range []string{"fused", "staged", "host"} {
			db.DisableFusion = mode == "staged"
			lc := run(fmt.Sprintf("q%d/%s", q.Num, mode), Request{TPCH: q.Num, HostOnly: mode == "host"}, false)
			if lc.Attributed() <= 0 {
				t.Errorf("q%d/%s: nothing attributed", q.Num, mode)
			}
		}
	}
	db.DisableFusion = false

	// A TOPK unit's finalize gathers its winners' rows by RowID as the host:
	// a device read under the query's recorder like any other. The host's
	// page reads are made slow (the scan's are the accelerator's), so the
	// gather's share of device_read can be told from the scan's.
	const gatherDelay = 2 * time.Millisecond
	var gathered atomic.Int64
	slowHost := faults.New(faults.Config{})
	slowHost.Hook = func(_ string, _ int64, who flash.Requester, _ int) (faults.Kind, bool) {
		if who == flash.Host {
			gathered.Add(1)
			time.Sleep(gatherDelay)
		}
		return 0, false
	}
	db.WithFaults(slowHost)
	lcTop := NewLifecycle("topk")
	res, err := db.Do(WithLifecycle(context.Background(), lcTop), Request{
		SQL: "select l_orderkey, l_extendedprice from lineitem where l_quantity < 5 order by l_extendedprice desc limit 7"})
	lcTop.Finish()
	db.WithFaults(nil)
	if err != nil || len(res.Report.Units) != 1 || !strings.Contains(res.Report.Units[0], "topk") {
		t.Fatalf("topk: err = %v, report %+v", err, res.Report)
	}
	requireExact(t, "topk", lcTop)
	if n, got := gathered.Load(), time.Duration(lcTop.Breakdown()["device_read"]); n == 0 || got < time.Duration(n)*gatherDelay {
		t.Fatalf("topk: device_read = %v for a finalize gather of %d pages at %v each (host = %v): the gather is not under the query's recorder",
			got, n, gatherDelay, time.Duration(lcTop.Breakdown()["host"]))
	}

	// A permanent fault on every lineitem read fails the offload unit and
	// then the host resume; each stage's region is still ended.
	for _, staged := range []bool{false, true} {
		db.DisableFusion = staged
		inj := faults.New(faults.Config{})
		inj.Hook = func(file string, _ int64, _ flash.Requester, _ int) (faults.Kind, bool) {
			return faults.Permanent, strings.HasPrefix(file, "lineitem/")
		}
		db.WithFaults(inj)
		run(fmt.Sprintf("q6/faulted/staged=%v", staged), Request{TPCH: 6}, true)

		// Cancelled mid-scan, on the 20th in-storage page read.
		ctx, cancel := context.WithCancel(context.Background())
		var reads atomic.Int64
		inj = faults.New(faults.Config{})
		inj.Hook = func(_ string, _ int64, who flash.Requester, attempt int) (faults.Kind, bool) {
			if who == flash.Aquoman && attempt == 0 && reads.Add(1) == 20 {
				cancel()
			}
			return 0, false
		}
		db.WithFaults(inj)
		lc := NewLifecycle("q1/cancelled")
		if _, err := db.Do(WithLifecycle(ctx, lc), Request{TPCH: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("q1 cancelled mid-scan (staged=%v): err = %v", staged, err)
		}
		lc.Finish()
		requireExact(t, fmt.Sprintf("q1/cancelled/staged=%v", staged), lc)
		db.WithFaults(nil)
	}

	// Scattered: the coordinator waits and merges; the shards' work is in
	// the forks, one per shard attempt.
	c := distrib.NewCluster(2)
	c.HeapScale = db.HeapScale
	if err := c.Partition(db.Store); err != nil {
		t.Fatal(err)
	}
	scattered := 0
	for _, q := range tpch.Queries() {
		label := fmt.Sprintf("q%d/scattered", q.Num)
		lc := NewLifecycle(label)
		_, _, err := c.RunQueryCtx(WithLifecycle(context.Background(), lc), q.Build)
		lc.Finish()
		requireExact(t, label, lc)
		if errors.Is(err, distrib.ErrNotDistributable) {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		scattered++
		states := lc.Breakdown()
		if states["scatter_wait"] <= 0 || len(lc.Forks()) == 0 {
			t.Errorf("%s: scatter_wait %d ns, %d forks", label, states["scatter_wait"], len(lc.Forks()))
		}
		// The coordinator's merge reads its own device only to sort on a Text
		// key (q21's s_name heap); any other device_read is a shard's.
		mergeReadsHeap := false
		root := q.Build()
		if err := plan.Bind(root, db.Store); err != nil {
			t.Fatal(err)
		}
		chain, _ := distrib.Peel(root)
		for _, n := range chain {
			if ob, ok := n.(*plan.OrderBy); ok {
				for _, k := range ob.Keys {
					if f, err := ob.Schema().Field(k.Name); err == nil && f.Typ == col.Text {
						mergeReadsHeap = true
					}
				}
			}
		}
		for _, shardOnly := range []string{"compile", "rowsel", "read", "systolic", "swissknife", "sorter", "device_read"} {
			if shardOnly == "device_read" && mergeReadsHeap {
				continue
			}
			if states[shardOnly] != 0 {
				t.Errorf("%s: coordinator %s = %d ns: a shard's time is in the parent's states", label, shardOnly, states[shardOnly])
			}
		}
		var forked time.Duration
		for _, f := range lc.Forks() {
			forked += f.Attributed()
		}
		if forked <= 0 {
			t.Errorf("%s: the forks attributed nothing", label)
		}
	}
	if scattered < 10 {
		t.Fatalf("only %d of 22 queries scattered", scattered)
	}

	// A write rides the same recorder: an INSERT (compile, commit), an
	// UPDATE whose victim scan is an ordinary host-only run, and a DELETE
	// that loses its optimistic race on every attempt — each device read of
	// its victim scan waits for another INSERT to commit.
	exec := func(label, stmt string) (*Lifecycle, error) {
		t.Helper()
		lc := NewLifecycle(label)
		_, err := db.Exec(WithLifecycle(context.Background(), lc), stmt)
		lc.Finish()
		requireExact(t, label, lc)
		if states := lc.Breakdown(); states["compile"] <= 0 || states["host"] <= 0 {
			t.Errorf("%s: compile %d ns, host %d ns: the write recorded nothing", label, states["compile"], states["host"])
		}
		return lc, err
	}
	const insert = "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (9, 'ASIA', 'attributed')"
	if _, err := exec("insert", insert); err != nil {
		t.Fatal(err)
	}
	lc, err := exec("update", "UPDATE region SET r_comment = 'patched' WHERE r_regionkey = 9")
	if err != nil || lc.Breakdown()["device_read"] <= 0 {
		t.Fatalf("update: err = %v, device_read %d ns: the victim scan is not under the statement's recorder", err, lc.Breakdown()["device_read"])
	}
	parked, resume := make(chan struct{}), make(chan struct{})
	inj := faults.New(faults.Config{})
	inj.Hook = func(string, int64, flash.Requester, int) (faults.Kind, bool) {
		parked <- struct{}{}
		<-resume
		return 0, false
	}
	db.WithFaults(inj)
	defer db.WithFaults(nil)
	done := make(chan error)
	go func() {
		_, err := exec("delete/conflicted", "DELETE FROM region WHERE r_regionkey = 9")
		done <- err
	}()
	for running := true; running; {
		select {
		case <-parked:
			if _, ierr := db.Exec(context.Background(), insert); ierr != nil {
				t.Error(ierr)
			}
			resume <- struct{}{}
		case err = <-done:
			running = false
		}
	}
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("delete racing an insert on every attempt: err = %v, want ErrConflict", err)
	}
}

func checkQueueTelemetry(t *testing.T, db *DB, queries int) {
	t.Helper()
	s := db.Obs.Reg.Snapshot()
	if p, ok := s.Get("sched_queue_wait_ns"); !ok || p.Count != int64(queries) {
		t.Fatalf("sched_queue_wait_ns count = %d (ok=%v), want %d", p.Count, ok, queries)
	}
	if p, ok := s.Get("sched_queue_depth"); !ok || p.Value != 0 {
		t.Fatalf("sched_queue_depth = %d (ok=%v), want 0 after drain", p.Value, ok)
	}
	if p, ok := s.Get("sched_queue_capacity"); !ok || p.Value != 64 {
		t.Fatalf("sched_queue_capacity = %d (ok=%v), want 64", p.Value, ok)
	}
}
