package pipesim

import (
	"math"
	"testing"
	"testing/quick"

	"aquoman/internal/flash"
)

func load(pages int64) TaskLoad {
	return TaskLoad{Pages: pages, VecsPerPage: 64, TransformDepth: 4}
}

// busBound is the pure flash-bus lower bound in seconds on streaming
// pages pages: each page's transfer back to back at the bus width.
func busBound(p Params, pages int64) float64 {
	return float64(pages) * float64(flash.PageSize) / p.FlashBusBytesPerCycle / p.ClockHz
}

func TestInvalidParams(t *testing.T) {
	if _, err := Simulate(Params{}, []TaskLoad{load(1)}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestEmptyLoad(t *testing.T) {
	res, err := Simulate(Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 0 {
		t.Fatalf("cycles = %d", res.Cycles)
	}
}

// The makespan can never beat the flash-bus bandwidth bound, and for a
// long bandwidth-limited stream it should approach it.
func TestApproachesBandwidthBound(t *testing.T) {
	p := Default()
	loads := []TaskLoad{load(20000)}
	res, err := Simulate(p, loads)
	if err != nil {
		t.Fatal(err)
	}
	bound := busBound(p, 20000)
	if res.Seconds < bound {
		t.Fatalf("simulated %.6fs beats the bandwidth bound %.6fs", res.Seconds, bound)
	}
	if res.Seconds > bound*1.2 {
		t.Fatalf("simulated %.6fs is %.1fx the bandwidth bound; pipeline not overlapping",
			res.Seconds, res.Seconds/bound)
	}
	if res.Bound != "flash-bus" {
		t.Fatalf("bound = %q, want flash-bus", res.Bound)
	}
}

// A queue depth of 1 makes the stream latency-bound: throughput is one
// page per (latency + transfer).
func TestShallowQueueIsLatencyBound(t *testing.T) {
	p := Default()
	p.QueueDepth = 1
	const pages = 1000
	res, err := Simulate(p, []TaskLoad{load(pages)})
	if err != nil {
		t.Fatal(err)
	}
	perPage := p.FlashPageLatencyCycles + int64(float64(8192)/p.FlashBusBytesPerCycle)
	min := perPage * (pages - 1)
	if res.Cycles < min {
		t.Fatalf("cycles = %d, want >= %d (latency-bound)", res.Cycles, min)
	}
	// And it must be far slower than the deep-queue run.
	deep, _ := Simulate(Default(), []TaskLoad{load(pages)})
	if res.Cycles < 5*deep.Cycles {
		t.Fatalf("shallow queue (%d) not clearly slower than deep (%d)", res.Cycles, deep.Cycles)
	}
}

// A slow Swissknife becomes the bottleneck and backpressures the stream.
func TestSlowOperatorDominates(t *testing.T) {
	p := Default()
	p.SwissknifeVecsPerCycle = 0.05 // 20 cycles per vector
	res, err := Simulate(p, []TaskLoad{load(2000)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != "swissknife" {
		t.Fatalf("bound = %q", res.Bound)
	}
	fast, _ := Simulate(Default(), []TaskLoad{load(2000)})
	if res.Cycles < 5*fast.Cycles/2 {
		t.Fatalf("slow swissknife not dominating: %d vs %d", res.Cycles, fast.Cycles)
	}
}

// The mask buffer limits in-flight pages: shrinking it to one page
// serializes latency like a depth-1 queue.
func TestMaskBufferBackpressure(t *testing.T) {
	p := Default()
	p.MaskSlots = 64 // one page worth of vectors
	res, err := Simulate(p, []TaskLoad{load(500)})
	if err != nil {
		t.Fatal(err)
	}
	free, _ := Simulate(Default(), []TaskLoad{load(500)})
	if res.Cycles < 3*free.Cycles {
		t.Fatalf("mask backpressure missing: %d vs %d", res.Cycles, free.Cycles)
	}
}

// Sequential tasks accumulate.
func TestSequentialTasks(t *testing.T) {
	p := Default()
	one, _ := Simulate(p, []TaskLoad{load(3000)})
	two, _ := Simulate(p, []TaskLoad{load(3000), load(3000)})
	if two.Cycles < 2*one.Cycles-one.Cycles/10 {
		t.Fatalf("two tasks = %d, one = %d", two.Cycles, one.Cycles)
	}
}

// Sorter DRAM traffic extends the makespan.
func TestSorterTrafficCounted(t *testing.T) {
	p := Default()
	with, _ := Simulate(p, []TaskLoad{{Pages: 100, VecsPerPage: 64, SorterDRAMBytes: 1 << 30}})
	without, _ := Simulate(p, []TaskLoad{{Pages: 100, VecsPerPage: 64}})
	if with.Cycles <= without.Cycles {
		t.Fatal("sorter traffic ignored")
	}
}

// Property: makespan is monotone in pages and never below either the
// bandwidth bound or any single stage's busy time.
func TestQuickMonotoneAndBounded(t *testing.T) {
	f := func(p8 uint8, extra uint8) bool {
		pages := int64(p8)%500 + 1
		p := Default()
		a, err := Simulate(p, []TaskLoad{load(pages)})
		if err != nil {
			return false
		}
		b, err := Simulate(p, []TaskLoad{load(pages + int64(extra)%100 + 1)})
		if err != nil {
			return false
		}
		if b.Cycles < a.Cycles {
			return false
		}
		for _, c := range a.StageBusy {
			if a.Cycles < c {
				return false
			}
		}
		return a.Seconds >= busBound(p, pages)*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// With the stages at infinite rate and the mask buffer out of the way, what
// is left of a task is its flash term — and that is the served device's
// queue model (flash.Queue), not a copy of it: the makespan equals the
// completion of the same pages submitted to a queue of the same depth,
// latency and transfer time, slot-bound (depths 1, 8) and bus-bound (128).
func TestPipesimFlashTermIsTheDeviceQueue(t *testing.T) {
	const pages = 1000
	for _, depth := range []int{1, 8, 128} {
		p := Default()
		p.QueueDepth = depth
		p.MaskSlots = pages * 64 // every page fits: no backpressure
		p.SelectorVecsPerCycle = math.Inf(1)
		p.TransformerVecsPerCycle = math.Inf(1)
		p.SwissknifeVecsPerCycle = math.Inf(1)
		res, err := Simulate(p, []TaskLoad{{Pages: pages, VecsPerPage: 64}})
		if err != nil {
			t.Fatal(err)
		}
		transfer := int64(float64(flash.PageSize)/p.FlashBusBytesPerCycle + 0.5)
		q := flash.NewQueue(depth)
		var want int64
		for i := 0; i < pages; i++ {
			want = q.Submit(0, p.FlashPageLatencyCycles, transfer)
		}
		if res.Cycles != want {
			t.Errorf("depth %d: pipesim makespan %d cycles, the device queue completes at %d", depth, res.Cycles, want)
		}
	}
}
