package tabletask

import (
	"fmt"
	"runtime"
)

// AllocsPerScan builds the fused scan for t, runs one warmup pass (pool
// checkouts, group-table inserts, scratch growth all land here), then
// measures steady-state heap allocations per full re-scan of the table.
// It is the reporting twin of the testing.AllocsPerRun gate in
// fused_test.go, which holds the number at zero: the benchmark ladder
// records it as the tabletask.fused_allocs_per_scan rung.
func (e *Executor) AllocsPerScan(t *Task, passes int) (float64, error) {
	if passes <= 0 {
		return 0, fmt.Errorf("allocs per scan: passes must be positive, got %d", passes)
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	if !e.fusedEligible(t) {
		return 0, fmt.Errorf("task %q is not fused-eligible", t.Name)
	}
	tab, err := e.Store.Table(t.Table)
	if err != nil {
		return 0, err
	}
	fs := &fusedScan{e: e, t: t, tab: tab, tt: &TaskTrace{Name: t.Name}}
	if err := fs.setup(); err != nil {
		return 0, err
	}
	defer fs.close()
	// Same dispatch as runFused: page-kernel-eligible tasks fold whole
	// encoded pages, everything else takes the per-vector loop.
	scan := fs.scan
	if fs.pageKernelOK() {
		scan = fs.scanPages
	}
	if err := scan(); err != nil { // warmup
		return 0, err
	}

	// Same discipline as testing.AllocsPerRun: pin to one P so a
	// background goroutine's allocations can't be misattributed, and
	// settle the heap before counting.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		if err := scan(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(passes), nil
}
