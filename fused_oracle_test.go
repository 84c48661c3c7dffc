package aquoman

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/tpch"
)

// The fused-path differential oracle: all 22 TPC-H queries through the
// scheduler at 16 in-flight streams on the default (fused) executor must
// be cell-exact against both the naive reference executor and a
// sequential staged-path (DisableFusion) run over identical data — and
// the fused path must read exactly the same number of device pages as
// the staged path it replaces. Run with -race this is the fused loop's
// concurrency proof.
func TestFusedOracleDifferential16Streams(t *testing.T) {
	// Staged reference: same deterministic load, fusion off, sequential.
	staged := Open()
	staged.DisableFusion = true
	if err := staged.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, staged)
	// Delta from here: the oracle above read through the same device as
	// the host requester, and that traffic is not part of the staged run.
	stagedBefore := staged.Store.Dev.Stats()
	stagedRes := make(map[int]*Result)
	for _, q := range tpch.Queries() {
		p, err := TPCHQuery(q.Num)
		if err != nil {
			t.Fatal(err)
		}
		res, err := staged.Run(p)
		if err != nil {
			t.Fatalf("staged q%d: %v", q.Num, err)
		}
		diffResult(t, fmt.Sprintf("staged q%d vs oracle", q.Num), res, want[q.Num])
		stagedRes[q.Num] = res
	}
	stagedPages := staged.Store.Dev.Stats().Sub(stagedBefore)

	fused := Open()
	if err := fused.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}

	// Page parity, measured sequentially where execution is deterministic:
	// fusing the pipeline must not change what gets read. (The 16-stream
	// run below can legitimately diverge — concurrent units share device
	// DRAM, and a capacity suspension re-reads its subtree on the host.)
	fusedBefore := fused.Store.Dev.Stats()
	for _, q := range tpch.Queries() {
		p, err := TPCHQuery(q.Num)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fused.Run(p); err != nil {
			t.Fatalf("fused q%d: %v", q.Num, err)
		}
	}
	fusedPages := fused.Store.Dev.Stats().Sub(fusedBefore)
	for _, who := range []flash.Requester{flash.Aquoman, flash.Host} {
		if f, s := fusedPages.PagesRead[who], stagedPages.PagesRead[who]; f != s {
			t.Errorf("%s pages read: fused %d, staged %d", who, f, s)
		}
	}

	fused.ConfigureScheduler(SchedulerConfig{MaxInFlight: 16, QueueDepth: 64})
	defer fused.Close()

	var (
		mu       sync.Mutex
		fusedRes = make(map[int]*Result)
	)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range tpch.Queries() {
				if q.Num%16 != g {
					continue
				}
				ticket, err := fused.Submit(nil, Request{TPCH: q.Num, Admit: &Admission{Wait: true}})
				if err != nil {
					t.Errorf("q%d submit: %v", q.Num, err)
					return
				}
				res, err := ticket.Wait()
				if err != nil {
					t.Errorf("q%d: %v", q.Num, err)
					return
				}
				mu.Lock()
				fusedRes[q.Num] = res
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	for _, q := range tpch.Queries() {
		res := fusedRes[q.Num]
		diffResult(t, fmt.Sprintf("fused q%d vs oracle", q.Num), res, want[q.Num])
		sr := stagedRes[q.Num]
		if res == nil || sr == nil {
			continue
		}
		for c := range sr.Batch.Cols {
			for r := range sr.Batch.Cols[c] {
				if res.Batch.Cols[c][r] != sr.Batch.Cols[c][r] {
					t.Errorf("q%d row %d col %d: fused %d, staged %d",
						q.Num, r, c, res.Batch.Cols[c][r], sr.Batch.Cols[c][r])
				}
			}
		}
	}

}

// Fault composition: a seeded random transient schedule is absorbed by
// the page-read retry layer under the fused path, and a deterministic
// AQUOMAN-only fault forces the suspend/host-resume fallback — in both
// regimes every query stays cell-exact.
func TestFusedPathComposesWithFaultsAndHostResume(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 42); err != nil {
		t.Fatal(err)
	}
	want := concOracle(t, db)

	// Seeded schedule: transient faults on ~0.2% of page-read attempts,
	// each clearing after one failure, inside the default retry budget.
	inj := faults.New(faults.Config{Seed: 7, PTransient: 0.002, TransientRepeat: 1})
	db.WithFaults(inj)
	for _, q := range tpch.Queries() {
		p, err := TPCHQuery(q.Num)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Run(p)
		if err != nil {
			t.Fatalf("q%d under transient faults: %v", q.Num, err)
		}
		diffResult(t, fmt.Sprintf("q%d under transient faults", q.Num), res, want[q.Num])
		if res.Report.Suspended {
			t.Errorf("q%d suspended: retryable transients must not reach the executor", q.Num)
		}
	}
	if inj.Counts().Total(faults.Transient) == 0 {
		t.Fatal("seeded schedule injected no transient faults")
	}

	// Host-resume: every in-storage lineitem read fails, so the fused
	// offload unit suspends and the host re-runs the subtree (its own
	// reads pass). q6 is fully fused when offloaded — exactly the path
	// that must still resume cleanly.
	resume := faults.New(faults.Config{})
	resume.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if who == flash.Aquoman && strings.HasPrefix(file, "lineitem/") {
			return faults.Transient, true
		}
		return 0, false
	}
	db.WithFaults(resume)
	p, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Run(p)
	if err != nil {
		t.Fatalf("q6 under device fault: %v", err)
	}
	diffResult(t, "q6 after host resume", res, want[6])
	if !res.Report.Suspended {
		t.Fatal("q6 did not suspend: the fault schedule never reached the fused unit")
	}
	if resume.Counts().TotalInjected() == 0 {
		t.Fatal("resume schedule injected no faults")
	}
}

// A single-column predicate the PE ISA cannot express (a constant
// dividend) fails the Row Selector's setup, and the offload unit suspends
// to the host exactly as an unmappable transform does: the answer is the
// host-only one, on the fused and the staged path alike.
func TestUnmappablePredicateSuspendsToHost(t *testing.T) {
	const stmt = "select count(l_quantity) as n from lineitem where 100 / l_quantity > 3"
	for _, staged := range []bool{false, true} {
		db := Open()
		db.DisableFusion = staged
		if err := db.LoadTPCH(0.005, 42); err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryHostOnly(stmt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(stmt)
		if err != nil {
			t.Fatalf("staged=%v: %v", staged, err)
		}
		if !reflect.DeepEqual(got.Batch.Cols, want.Batch.Cols) || got.Batch.Cols[0][0] == 0 {
			t.Fatalf("staged=%v: got %v, host-only %v", staged, got.Batch.Cols, want.Batch.Cols)
		}
		if !got.Report.Suspended || !strings.Contains(got.Report.SuspendReason, "not mappable") {
			t.Fatalf("staged=%v: suspended=%v reason %q, want a \"not mappable\" suspension",
				staged, got.Report.Suspended, got.Report.SuspendReason)
		}
	}
}

// A fault on one page in the middle of a read window — its retry budget
// exhausted, or bad for good — reaches the fused scan as an error naming
// that page, the offload unit suspends, and the host resume still answers
// cell-exact. The pages fetched beside it are not lost: behind the page
// cache the host's pass finds them resident, so no page of the column is
// read from the device twice.
func TestFusedWindowFaultMidBatchHostResume(t *testing.T) {
	const file, bad = "lineitem/l_extendedprice.dat", 5
	for _, kind := range []faults.Kind{faults.Transient, faults.Permanent} {
		t.Run(kind.String(), func(t *testing.T) {
			db := Open()
			if err := db.LoadTPCH(0.01, 42); err != nil {
				t.Fatal(err)
			}
			want := concOracle(t, db)
			db.EnableCache(64 << 20)
			inj := faults.New(faults.Config{})
			inj.Hook = func(f string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
				return kind, who == flash.Aquoman && f == file && page == bad
			}
			db.WithFaults(inj)
			db.ResetFlashStats()
			p, err := TPCHQuery(6)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Run(p)
			if err != nil {
				t.Fatalf("q6 with a bad page mid-window: %v", err)
			}
			diffResult(t, "q6 after host resume", res, want[6])
			if !res.Report.Suspended {
				t.Fatal("q6 did not suspend: the fault never reached the fused unit")
			}
			if !strings.Contains(res.Report.SuspendReason, fmt.Sprintf("%s page %d ", file, bad)) {
				t.Fatalf("suspend reason does not name the bad page: %q", res.Report.SuspendReason)
			}
			f, err := db.Flash.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			fs := db.Flash.FileStats(file)
			if fs.ReadsFailed[flash.Aquoman] != 1 {
				t.Fatalf("%d failed reads on the column, want 1", fs.ReadsFailed[flash.Aquoman])
			}
			if fs.PagesRead[flash.Aquoman] == 0 {
				t.Fatal("the failed window delivered no neighbour pages")
			}
			if total := fs.PagesRead[flash.Aquoman] + fs.PagesRead[flash.Host]; total > f.NumPages() {
				t.Fatalf("%d device reads of a %d-page column: pages fetched beside the bad one were read again",
					total, f.NumPages())
			}
		})
	}
}
