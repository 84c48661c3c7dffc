package perf

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/tpch"
)

var (
	evOnce sync.Once
	shared *Evaluator
)

func evaluator(t *testing.T) *Evaluator {
	t.Helper()
	evOnce.Do(func() {
		s := col.NewStore(flash.NewDevice())
		if err := tpch.Gen(s, tpch.Config{SF: 0.01, Seed: 42}); err != nil {
			t.Fatalf("Gen: %v", err)
		}
		h := col.NewStore(flash.NewDevice())
		if err := tpch.Gen(h, tpch.Config{SF: 0.005, Seed: 43}); err != nil {
			t.Fatalf("Gen half: %v", err)
		}
		shared = &Evaluator{Store: s, HalfStore: h, TargetSF: 1000, Rates: DefaultRates()}
	})
	return shared
}

func TestActualSF(t *testing.T) {
	ev := evaluator(t)
	if sf := actualSF(ev.Store); sf < 0.009 || sf > 0.011 {
		t.Fatalf("actualSF = %f", sf)
	}
}

func TestEvalQ6Shape(t *testing.T) {
	ev := evaluator(t)
	e, err := ev.EvalQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	// q6 is I/O bound: the paper notes it fully offloads but shows little
	// speedup. Expect L-AQUOMAN within 2x of L, and all runtimes positive.
	for _, sys := range []string{"S", "L", "S-AQUOMAN", "L-AQUOMAN", "S-AQUOMAN16"} {
		if e.RunSeconds[sys] <= 0 {
			t.Fatalf("%s runtime = %f", sys, e.RunSeconds[sys])
		}
	}
	if !e.FullyOffloaded {
		t.Fatal("q6 not fully offloaded")
	}
	ratio := e.RunSeconds["L"] / e.RunSeconds["L-AQUOMAN"]
	if ratio < 0.5 || ratio > 4 {
		t.Fatalf("q6 L/L-AQ ratio = %.2f, expected near 1 (I/O bound)", ratio)
	}
	// CPU cycles saved should be large for a fully offloaded query.
	if e.HostCPUSeconds["L-AQUOMAN"] > 0.3*e.HostCPUSeconds["L"] {
		t.Fatalf("q6 cpu: off %.1f vs base %.1f", e.HostCPUSeconds["L-AQUOMAN"], e.HostCPUSeconds["L"])
	}
}

func TestGroupGrowthSeparatesQ1FromQ15(t *testing.T) {
	ev := evaluator(t)
	e1, err := ev.EvalQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	// q1 has 4 groups at any scale: the two-store growth measurement must
	// keep its modeled spill at zero.
	if e1.SpilledRows != 0 {
		t.Fatalf("q1 measured spills = %d", e1.SpilledRows)
	}
	e15, err := ev.EvalQuery(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(e15.Units) == 0 {
		t.Fatal("q15 produced no units")
	}
}

func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 22-query evaluation")
	}
	ev := evaluator(t)
	evals, err := ev.EvalAll()
	if err != nil {
		t.Fatal(err)
	}
	var cpuBase, cpuAq, totS16, totL float64
	var memBase, memAq float64
	for _, e := range evals {
		cpuBase += e.HostCPUSeconds["L"]
		cpuAq += e.HostCPUSeconds["L-AQUOMAN"]
		totS16 += e.RunSeconds["S-AQUOMAN16"]
		totL += e.RunSeconds["L"]
		memBase += float64(e.AvgHostMem["L"])
		memAq += float64(e.AvgHostMem["L-AQUOMAN"])
	}
	cpuSaving := 1 - cpuAq/cpuBase
	if cpuSaving < 0.4 {
		t.Errorf("CPU saving = %.0f%%, paper shape is ~70%%", cpuSaving*100)
	}
	memSaving := 1 - memAq/memBase
	if memSaving < 0.3 {
		t.Errorf("avg DRAM saving = %.0f%%, paper shape is ~60%%", memSaving*100)
	}
	// Headline comparison: small machine with AQUOMAN16 vs large machine.
	ratio := totL / totS16
	if ratio < 0.4 || ratio > 4 {
		t.Errorf("L/S-AQUOMAN16 = %.2f, paper shape is ~1", ratio)
	}
	t.Logf("cpu saving %.0f%%, mem saving %.0f%%, L/S-AQ16 %.2f",
		cpuSaving*100, memSaving*100, ratio)

	for _, render := range []string{Fig16a(evals), Fig16b(evals), Fig16c(evals),
		OffloadReport(evals), ResourceReport(evals)} {
		if len(render) < 100 {
			t.Errorf("report too short:\n%s", render)
		}
	}
	t.Logf("\n%s", Fig16a(evals))
	t.Logf("\n%s", Fig16c(evals))
}

func TestTableVRuns(t *testing.T) {
	rows := TableV([]int{1 << 12, 1 << 14})
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MBps <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
	}
	out := FormatTableV(rows)
	if !strings.Contains(out, "random") || !strings.Contains(out, "sorted") {
		t.Fatalf("format:\n%s", out)
	}
}

func TestFig17Runs(t *testing.T) {
	ev := evaluator(t)
	out, err := Fig17(ev)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"q01", "q06", "q03", "q10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig17 missing %s:\n%s", want, out)
		}
	}
}

func TestRatesSanity(t *testing.T) {
	r := DefaultRates()
	if r.FlashSeqBW != 2.4e9 {
		t.Fatal("flash BW drifted from the paper's 2.4 GB/s")
	}
	cpu := r.HostCPUSeconds(map[string]int64{"scan": 400_000_000})
	if cpu < 0.9 || cpu > 1.1 {
		t.Fatalf("scan rate calibration: %f s", cpu)
	}
	if r.HostCPUSeconds(map[string]int64{"unknown": 100_000_000}) <= 0 {
		t.Fatal("unknown work kind priced at zero")
	}
}

// HostCPUSeconds is a pure function of its map: over many kinds whose
// terms differ by orders of magnitude, where the order of the additions
// shows in the last bit, repeated calls agree bit for bit.
func TestHostCPUSecondsDeterministic(t *testing.T) {
	r := DefaultRates()
	work := map[string]int64{}
	for i := 0; i < 48; i++ {
		work[fmt.Sprintf("kind%02d", i)] = int64(1)<<(i%40) + int64(i)*7919
	}
	for kind := range r.HostRate {
		work[kind] = 123_456_789
	}
	first := math.Float64bits(r.HostCPUSeconds(work))
	for i := 0; i < 200; i++ {
		if got := math.Float64bits(r.HostCPUSeconds(work)); got != first {
			t.Fatalf("call %d returned %x, the first %x", i, got, first)
		}
	}
}
