// Package perf is the timing and memory model: it converts the functional
// execution traces (flash traffic, per-operator host work, Table-Task
// stats, DRAM footprints) into simulated run times and resident-set sizes
// for the machine configurations of Table VI, extrapolated to the paper's
// SF-1000 deployment. This mirrors the paper's own methodology — a
// trace-based simulator whose flash and sorter parameters match the FPGA
// prototype and whose host side is modeled from MonetDB behaviour.
package perf

import (
	"sort"

	"aquoman/internal/flash"
	"aquoman/internal/mem"
)

// HostConfig is one x86 machine (Table VI).
type HostConfig struct {
	Name      string
	Threads   int
	DRAMBytes int64
}

// AquomanConfig is one in-storage accelerator configuration.
type AquomanConfig struct {
	Name      string
	Enabled   bool
	DRAMBytes int64
}

// System pairs a host with (optionally) AQUOMAN disks.
type System struct {
	Name    string
	Host    HostConfig
	Aquoman AquomanConfig
}

// The evaluation's machine matrix (Table VI and Sec. VIII-B).
var (
	HostS = HostConfig{Name: "S", Threads: 4, DRAMBytes: 16 << 30}
	HostL = HostConfig{Name: "L", Threads: 32, DRAMBytes: 128 << 30}

	AqNone = AquomanConfig{Name: "none"}
	Aq40   = AquomanConfig{Name: "AQUOMAN", Enabled: true, DRAMBytes: mem.DefaultCapacity}
	Aq16   = AquomanConfig{Name: "AQUOMAN16", Enabled: true, DRAMBytes: mem.SmallCapacity}

	SystemS     = System{Name: "S", Host: HostS, Aquoman: AqNone}
	SystemL     = System{Name: "L", Host: HostL, Aquoman: AqNone}
	SystemSAq   = System{Name: "S-AQUOMAN", Host: HostS, Aquoman: Aq40}
	SystemLAq   = System{Name: "L-AQUOMAN", Host: HostL, Aquoman: Aq40}
	SystemSAq16 = System{Name: "S-AQUOMAN16", Host: HostS, Aquoman: Aq16}
)

// Rates calibrate the model. Flash and accelerator numbers come from the
// paper (Sec. VII); host per-thread rates are calibrated so the baseline
// matches MonetDB's published behaviour in shape (vectorized scans fast,
// joins and string handling slow).
type Rates struct {
	// FlashSeqBW is sequential flash read bandwidth, bytes/s.
	FlashSeqBW float64
	// FlashRandomBW is the effective bandwidth of page-granular random
	// reads (RowID gathers) with a deep command queue.
	FlashRandomBW float64
	// FlashWriteBW is flash write bandwidth.
	FlashWriteBW float64
	// AquomanStreamBW is the accelerator's processing line rate.
	AquomanStreamBW float64
	// AquomanDRAMBW is the accelerator DRAM bandwidth (VCU108 DDR4).
	AquomanDRAMBW float64
	// HostDiskSwapBW models MonetDB's disk-swap path when an
	// intermediate exceeds host DRAM (fast sequential SSD writes).
	HostDiskSwapBW float64
	// Host per-thread work rates, items/second, keyed like engine work
	// counters.
	HostRate map[string]float64
	// SpillRate is the host's memory lookup-and-accumulate rate for
	// Aggregate Group-By spill-over rows (Sec. VI-E cites ~200M/s).
	SpillRate float64
}

// DefaultRates returns the calibrated model.
func DefaultRates() Rates {
	return Rates{
		FlashSeqBW:      flash.ReadBandwidth,  // 2.4 GB/s
		FlashRandomBW:   1.2e9,                // half rate under 8KB random reads
		FlashWriteBW:    flash.WriteBandwidth, // 0.8 GB/s
		AquomanStreamBW: 4.0e9,                // Sec. VII: 4 GB/s processing rate
		AquomanDRAMBW:   36e9,                 // VCU108 DDR4
		HostDiskSwapBW:  1.0e9,
		HostRate: map[string]float64{
			"scan":       400e6, // values/s/thread, vectorized column scan
			"filter":     400e6,
			"project":    150e6,
			"join_build": 40e6,
			"join_probe": 40e6,
			"agg":        80e6,
			"sort":       60e6, // n·log n units
			"text":       25e6, // string-heap matches
			"output":     500e6,
		},
		SpillRate: 200e6,
	}
}

// HostCPUSeconds converts engine work counters into CPU seconds (single
// thread). The terms are summed in kind order: float addition is not
// associative, so summing in map order could differ in the last bit from
// call to call.
func (r Rates) HostCPUSeconds(work map[string]int64) float64 {
	kinds := make([]string, 0, len(work))
	for kind := range work {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	var t float64
	for _, kind := range kinds {
		rate, ok := r.HostRate[kind]
		if !ok {
			rate = 100e6
		}
		t += float64(work[kind]) / rate
	}
	return t
}
