// Package pipesim is a cycle-approximate discrete-event model of the
// AQUOMAN pipeline — the stand-in for the paper's FPGA prototype in the
// Fig. 17 validation. Where internal/perf prices a query analytically
// (bytes over bandwidths), pipesim replays a Table Task's page stream
// through the actual pipeline structure: the flash command queue (depth
// 128, per-page latency, shared transfer bus), the Row Selector, the Row
// Transformer (PE-chain fill latency), and the SQL Swissknife, with the
// Row-Mask Vector circular buffer applying backpressure to page issue
// (Sec. VI: a page may only be in flight while its mask slots are
// reserved).
//
// The model is a chain of pipeline recurrences, one term per hardware
// resource, evaluated per page in order — equivalent to an event-driven
// simulation of this queueing network but O(pages) and deterministic.
package pipesim

import (
	"fmt"

	"aquoman/internal/bitvec"
	"aquoman/internal/flash"
)

// Params describes the hardware instance (defaults per Sec. VII).
type Params struct {
	// ClockHz is the accelerator clock (125 MHz prototype).
	ClockHz float64
	// FlashPageLatencyCycles is the NAND read latency per page.
	FlashPageLatencyCycles int64
	// FlashBusBytesPerCycle is the flash transfer bus width (32 B/beat
	// at 125 MHz = 4 GB/s; the controller sustains 2.4 GB/s end to end,
	// so the default models the effective rate).
	FlashBusBytesPerCycle float64
	// QueueDepth is the flash command queue depth.
	QueueDepth int
	// MaskSlots is the Row-Mask Vector circular buffer capacity in
	// 32-row vectors.
	MaskSlots int
	// SelectorVecsPerCycle is the Row Selector's service rate.
	SelectorVecsPerCycle float64
	// TransformerVecsPerCycle is the systolic array's steady-state rate.
	TransformerVecsPerCycle float64
	// SwissknifeVecsPerCycle is the operator accelerators' rate.
	SwissknifeVecsPerCycle float64
}

// Default returns the prototype parameters: 125 MHz, ~60 µs page reads,
// effective 2.4 GB/s flash, 128-deep queue, 32 K mask slots.
func Default() Params {
	return Params{
		ClockHz:                 125e6,
		FlashPageLatencyCycles:  7500, // 60 µs at 125 MHz
		FlashBusBytesPerCycle:   19.2, // 2.4 GB/s at 125 MHz
		QueueDepth:              flash.QueueDepth,
		MaskSlots:               flash.QueueDepth * flash.PageSize / bitvec.VecSize,
		SelectorVecsPerCycle:    1,
		TransformerVecsPerCycle: 1,
		SwissknifeVecsPerCycle:  1,
	}
}

// TaskLoad is one Table Task's demand, extracted from its trace.
type TaskLoad struct {
	// Pages is the number of flash pages streamed (selector + reader).
	Pages int64
	// VecsPerPage is the Row Vectors one page yields.
	VecsPerPage int64
	// TransformDepth is the PE-chain length (pipeline fill latency).
	TransformDepth int64
	// SorterDRAMBytes adds post-pipeline DRAM merge passes.
	SorterDRAMBytes int64
}

// Result reports the simulated execution.
type Result struct {
	Cycles  int64
	Seconds float64
	// Bound names the limiting resource ("flash-bus", "flash-latency",
	// "selector", "transformer", "swissknife").
	Bound string
	// StageBusy is each stage's total service demand in cycles.
	StageBusy map[string]int64
}

// Simulate replays the loads through the pipeline sequentially (Table
// Tasks execute one at a time, Sec. V).
func Simulate(p Params, loads []TaskLoad) (Result, error) {
	if p.ClockHz <= 0 || p.QueueDepth <= 0 || p.MaskSlots <= 0 {
		return Result{}, fmt.Errorf("pipesim: invalid params %+v", p)
	}
	var clock int64
	busy := map[string]int64{}
	for _, ld := range loads {
		end, b := simulateTask(p, ld, clock, busy)
		clock = end
		_ = b
	}
	res := Result{
		Cycles:    clock,
		Seconds:   float64(clock) / p.ClockHz,
		StageBusy: busy,
	}
	// The bound is the busiest resource.
	var maxBusy int64 = -1
	for name, c := range busy {
		if c > maxBusy {
			maxBusy = c
			res.Bound = name
		}
	}
	return res, nil
}

func simulateTask(p Params, ld TaskLoad, start int64, busy map[string]int64) (int64, string) {
	if ld.Pages == 0 {
		return start, ""
	}
	vecsPerPage := ld.VecsPerPage
	if vecsPerPage <= 0 {
		vecsPerPage = int64(flash.PageSize / 4 / bitvec.VecSize)
	}
	// Per-page service times in cycles.
	transfer := int64(float64(flash.PageSize)/p.FlashBusBytesPerCycle + 0.5)
	selSvc := int64(float64(vecsPerPage)/p.SelectorVecsPerCycle + 0.5)
	trSvc := int64(float64(vecsPerPage)/p.TransformerVecsPerCycle + 0.5)
	skSvc := int64(float64(vecsPerPage)/p.SwissknifeVecsPerCycle + 0.5)
	maskPages := int64(p.MaskSlots) / vecsPerPage
	if maskPages < 1 {
		maskPages = 1
	}
	// The flash command queue and its transfer bus are the served device's
	// model, counted in cycles; the Swissknife completions are a ring the
	// Row-Mask buffer looks back into.
	queue := flash.NewQueue(p.QueueDepth)
	doneSK := make([]int64, maskPages)
	selFree, trFree, skFree := start, start, start

	var n int64
	for n = 0; n < ld.Pages; n++ {
		t := start
		// Row-Mask buffer backpressure: the page MaskSlots back must have
		// drained through the Swissknife before this page may issue.
		if n >= maskPages {
			t = max(t, doneSK[n%maskPages])
		}
		// At most QueueDepth commands in flight; NAND latency, then the
		// shared transfer bus serializes pages.
		ready := queue.Submit(t, p.FlashPageLatencyCycles, transfer)
		busy["flash-bus"] += transfer
		// Selector.
		if selFree > ready {
			ready = selFree
		}
		ready += selSvc
		selFree = ready
		busy["selector"] += selSvc
		// Transformer: chain-fill latency on the first page only (the
		// pipeline stays full afterwards).
		if n == 0 {
			ready += ld.TransformDepth
		}
		if trFree > ready {
			ready = trFree
		}
		ready += trSvc
		trFree = ready
		busy["transformer"] += trSvc
		// Swissknife.
		if skFree > ready {
			ready = skFree
		}
		ready += skSvc
		skFree = ready
		busy["swissknife"] += skSvc
		doneSK[n%maskPages] = ready
	}
	end := skFree
	// Sorter DRAM merge passes extend the task (line-rate DDR4 at 36 GB/s
	// vs the 125 MHz clock = 288 B/cycle).
	if ld.SorterDRAMBytes > 0 {
		end += int64(float64(ld.SorterDRAMBytes) / 288)
		busy["sorter-dram"] += int64(float64(ld.SorterDRAMBytes) / 288)
	}
	busy["flash-latency"] += p.FlashPageLatencyCycles // fill once per task
	return end, ""
}
