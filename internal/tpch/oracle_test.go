package tpch

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/core"
	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/plan"
)

var (
	oraOnce sync.Once
	oraErr  error
	oraRes  map[int]*OraBatch
)

// oracleResults snapshots the shared store and evaluates all 22 queries
// through the naive reference executor exactly once. The snapshot is
// taken while the device is fault-free, so later fault schedules cannot
// perturb the expected values.
func oracleResults(t *testing.T) map[int]*OraBatch {
	t.Helper()
	s := sharedStore(t)
	oraOnce.Do(func() {
		ora, err := NewOracle(s)
		if err != nil {
			oraErr = err
			return
		}
		oraRes = make(map[int]*OraBatch)
		for _, q := range Queries() {
			n := q.Build()
			if err := plan.Bind(n, s); err != nil {
				oraErr = fmt.Errorf("q%d bind: %w", q.Num, err)
				return
			}
			b, err := ora.Run(n)
			if err != nil {
				oraErr = fmt.Errorf("q%d oracle: %w", q.Num, err)
				return
			}
			oraRes[q.Num] = b
		}
	})
	if oraErr != nil {
		t.Fatalf("oracle: %v", oraErr)
	}
	return oraRes
}

// pipelineRun executes query q through the full offload pipeline
// (compiler -> Table Tasks -> host residual plan).
func pipelineRun(t *testing.T, q int) (*engine.Batch, *core.Report) {
	t.Helper()
	s := sharedStore(t)
	def, err := Get(q)
	if err != nil {
		t.Fatal(err)
	}
	n := def.Build()
	if err := plan.Bind(n, s); err != nil {
		t.Fatalf("q%d bind: %v", q, err)
	}
	dev := core.New(s, core.Config{DRAMBytes: mem.DefaultCapacity, Compiler: compiler.Config{HeapScale: 1}})
	b, rep, err := dev.RunQuery(n)
	if err != nil {
		t.Fatalf("q%d pipeline: %v", q, err)
	}
	return b, rep
}

// diffBatches is the shared cell-exact assertion, kept as a local alias
// for the many existing call sites.
func diffBatches(t *testing.T, label string, got *engine.Batch, want *OraBatch) {
	t.Helper()
	AssertEqual(t, label, got, want)
}

// Every TPC-H query through the full offload pipeline must agree exactly
// with the naive reference executor.
func TestDifferentialAllQueries(t *testing.T) {
	want := oracleResults(t)
	for _, q := range Queries() {
		b, _ := pipelineRun(t, q.Num)
		diffBatches(t, fmt.Sprintf("q%d", q.Num), b, want[q.Num])
	}
}

// The host-only engine must agree with the oracle too: it shares only the
// plan algebra with the reference executor.
func TestDifferentialHostEngine(t *testing.T) {
	want := oracleResults(t)
	for _, q := range Queries() {
		b := runQuery(t, q.Num)
		diffBatches(t, fmt.Sprintf("q%d host", q.Num), b, want[q.Num])
	}
}

// Under each seeded fault schedule every query's result must stay
// byte-identical to the fault-free oracle: transients are absorbed by
// page-read retries and slow reads only cost simulated time.
func TestDifferentialUnderFaultSchedules(t *testing.T) {
	want := oracleResults(t)
	s := sharedStore(t)
	schedules := []struct {
		name string
		inj  func() *faults.Injector
		// wantRetries asserts the schedule visibly exercised the retry
		// machinery (slow reads never trigger retries).
		wantRetries bool
	}{
		{"seeded-transient", func() *faults.Injector {
			return faults.New(faults.Config{Seed: 11, PTransient: 0.001, TransientRepeat: 2})
		}, true},
		{"scripted-hook", func() *faults.Injector {
			inj := faults.New(faults.Config{})
			inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
				if attempt == 0 && page%13 == 0 {
					return faults.Transient, true
				}
				return 0, false
			}
			return inj
		}, true},
		{"slow-reads", func() *faults.Injector {
			return faults.New(faults.Config{Seed: 13, PSlow: 0.02, Stall: 200 * time.Microsecond})
		}, false},
	}
	for _, sched := range schedules {
		t.Run(sched.name, func(t *testing.T) {
			inj := sched.inj()
			s.Dev.SetFaults(inj)
			defer s.Dev.SetFaults(nil)
			before := s.Dev.Stats()
			for _, q := range Queries() {
				b, _ := pipelineRun(t, q.Num)
				diffBatches(t, fmt.Sprintf("q%d %s", q.Num, sched.name), b, want[q.Num])
			}
			if inj.Counts().TotalInjected() == 0 {
				t.Fatal("schedule injected no faults")
			}
			delta := s.Dev.Stats().Sub(before)
			if sched.wantRetries && delta.TotalReadRetries() == 0 {
				t.Fatal("no retries recorded despite injected faults")
			}
			if !sched.wantRetries && delta.SlowReads[flash.Host]+delta.SlowReads[flash.Aquoman] == 0 {
				t.Fatal("no slow reads recorded")
			}
			if n := delta.ReadsFailed[flash.Host] + delta.ReadsFailed[flash.Aquoman]; n != 0 {
				// All three schedules are absorbable; a failed read means a
				// transient outlived the retry budget.
				t.Fatalf("%d reads failed outright", n)
			}
		})
	}
}

// NewOracle snapshots the store with one read of every column and every
// Text heap, so the host pages it adds are exactly theirs: 1,367 on this
// store. Resolving the Text strings one at a time, two whole-page reads a
// string, reads 218,908.
func TestOracleSnapshotReadsEachPageOnce(t *testing.T) {
	s := sharedStore(t)
	var want int64
	for _, name := range s.Tables() {
		tab := s.MustTable(name)
		for _, cn := range tab.ColumnNames() {
			ci := tab.MustColumn(cn)
			want += ci.File.NumPages()
			if ci.Def.Typ == col.Text {
				want += ci.Heap.NumPages()
			}
		}
	}
	before := s.Dev.Stats().PagesRead[flash.Host]
	if _, err := NewOracle(s); err != nil {
		t.Fatal(err)
	}
	if got := s.Dev.Stats().PagesRead[flash.Host] - before; got != want {
		t.Fatalf("NewOracle read %d host pages, want %d: the column pages plus the Text heap pages, once each", got, want)
	}
}
