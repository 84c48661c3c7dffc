package perf

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"aquoman/internal/pipesim"
	"aquoman/internal/rowsel"
	"aquoman/internal/sorter"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
)

// gb formats bytes as GB with one decimal.
func gb(b int64) string { return fmt.Sprintf("%.1f", float64(b)/float64(1<<30)) }

// Fig16a renders the per-query run times for the five systems (Fig. 16a).
func Fig16a(evals []*QueryEval) string {
	var sb strings.Builder
	sb.WriteString("Fig 16(a) — TPC-H run time (seconds, modeled at target SF)\n")
	fmt.Fprintf(&sb, "%-5s %12s %12s %12s %12s %12s\n",
		"query", "S", "L", "S-AQUOMAN", "L-AQUOMAN", "S-AQUOMAN16")
	totals := map[string]float64{}
	for _, e := range evals {
		fmt.Fprintf(&sb, "q%02d   %12.1f %12.1f %12.1f %12.1f %12.1f\n", e.Query,
			e.RunSeconds["S"], e.RunSeconds["L"], e.RunSeconds["S-AQUOMAN"],
			e.RunSeconds["L-AQUOMAN"], e.RunSeconds["S-AQUOMAN16"])
		for k, v := range e.RunSeconds {
			totals[k] += v
		}
	}
	fmt.Fprintf(&sb, "%-5s %12.1f %12.1f %12.1f %12.1f %12.1f\n", "total",
		totals["S"], totals["L"], totals["S-AQUOMAN"], totals["L-AQUOMAN"], totals["S-AQUOMAN16"])
	if totals["S-AQUOMAN16"] > 0 {
		fmt.Fprintf(&sb, "\nheadline: S-AQUOMAN16 / L speed ratio = %.2f (paper: ~1.0 — the 4-core+AQUOMAN16 box matches the 32-core box)\n",
			totals["L"]/totals["S-AQUOMAN16"])
	}
	return sb.String()
}

// Fig16b renders the memory footprints (Fig. 16b): max/avg x86 RSS for L
// and L-AQUOMAN plus the AQUOMAN DRAM footprint.
func Fig16b(evals []*QueryEval) string {
	var sb strings.Builder
	sb.WriteString("Fig 16(b) — memory footprint (GB, modeled at target SF)\n")
	fmt.Fprintf(&sb, "%-5s %10s %10s %12s %12s %12s\n",
		"query", "L max", "L avg", "L-AQ x86max", "L-AQ x86avg", "L-AQ aqmem")
	var sumBase, sumAq float64
	for _, e := range evals {
		fmt.Fprintf(&sb, "q%02d   %10s %10s %12s %12s %12s\n", e.Query,
			gb(e.MaxHostMem["L"]), gb(e.AvgHostMem["L"]),
			gb(e.MaxHostMem["L-AQUOMAN"]), gb(e.AvgHostMem["L-AQUOMAN"]),
			gb(e.AqMem["L-AQUOMAN"]))
		sumBase += float64(e.AvgHostMem["L"])
		sumAq += float64(e.AvgHostMem["L-AQUOMAN"])
	}
	if sumBase > 0 {
		fmt.Fprintf(&sb, "\nheadline: average x86 DRAM reduced by %.0f%% (paper: ~60%%)\n",
			(1-sumAq/sumBase)*100)
	}
	return sb.String()
}

// Fig16c renders the CPU-cycle savings and offload fractions (Fig. 16c).
func Fig16c(evals []*QueryEval) string {
	var sb strings.Builder
	sb.WriteString("Fig 16(c) — L-AQUOMAN: runtime share on AQUOMAN and x86 CPU-cycle saving\n")
	fmt.Fprintf(&sb, "%-5s %14s %16s\n", "query", "aq-runtime %", "cpu saving %")
	var sumBase, sumAq float64
	for _, e := range evals {
		aqShare := 0.0
		if rt := e.RunSeconds["L-AQUOMAN"]; rt > 0 {
			aqShare = e.AqSeconds["L-AQUOMAN"] / rt * 100
		}
		saving := 0.0
		if base := e.HostCPUSeconds["L"]; base > 0 {
			saving = (1 - e.HostCPUSeconds["L-AQUOMAN"]/base) * 100
		}
		fmt.Fprintf(&sb, "q%02d   %14.0f %16.0f\n", e.Query, aqShare, saving)
		sumBase += e.HostCPUSeconds["L"]
		sumAq += e.HostCPUSeconds["L-AQUOMAN"]
	}
	if sumBase > 0 {
		fmt.Fprintf(&sb, "\nheadline: average x86 CPU cycles saved = %.0f%% (paper: ~70%%)\n",
			(1-sumAq/sumBase)*100)
	}
	return sb.String()
}

// OffloadReport summarizes per-query offload classification (Sec. VIII-B).
func OffloadReport(evals []*QueryEval) string {
	var sb strings.Builder
	sb.WriteString("Offload classification (Sec. VIII-B)\n")
	fmt.Fprintf(&sb, "%-5s %6s %8s %10s %10s  %s\n",
		"query", "units", "offload%", "fully", "suspended", "notes")
	fully := 0
	for _, e := range evals {
		if e.FullyOffloaded {
			fully++
		}
		note := ""
		if len(e.Notes) > 0 {
			note = e.Notes[0]
			if len(note) > 70 {
				note = note[:70] + "..."
			}
		}
		fmt.Fprintf(&sb, "q%02d   %6d %8.0f %10v %10v  %s\n", e.Query,
			len(e.Units), e.OffloadFraction*100, e.FullyOffloaded, e.Suspended, note)
	}
	fmt.Fprintf(&sb, "\n%d of 22 queries fully offloaded (paper: 14)\n", fully)
	return sb.String()
}

// SorterRow is one Table V measurement.
type SorterRow struct {
	Elems      int
	Sortedness string
	MBps       float64
}

// TableV times the streaming sorter's kernel (the radix sort that
// stands in for the merger cascade, whose counters are derived) on
// sorted/reverse-sorted/random inputs across input lengths, the software
// analogue of Table V (absolute numbers are Go-on-CPU, the shape —
// throughput roughly flat in input length — is the claim under test).
func TableV(sizes []int) []SorterRow {
	var rows []SorterRow
	for _, n := range sizes {
		for _, kind := range []string{"sorted", "reverse", "random"} {
			data := make([]sorter.KV, n)
			rng := rand.New(rand.NewSource(7))
			for i := range data {
				switch kind {
				case "sorted":
					data[i] = sorter.KV{Key: int64(i), Val: int64(i)}
				case "reverse":
					data[i] = sorter.KV{Key: int64(n - i), Val: int64(i)}
				default:
					data[i] = sorter.KV{Key: rng.Int63(), Val: int64(i)}
				}
			}
			s := sorter.NewStreaming(sorter.Config{VecElems: 8, FanIn: 64, Layers: 3, ElemBytes: 8})
			start := time.Now()
			s.Sort(data)
			el := time.Since(start).Seconds()
			rows = append(rows, SorterRow{Elems: n, Sortedness: kind,
				MBps: float64(n*8) / el / 1e6})
		}
	}
	return rows
}

// FormatTableV renders Table V.
func FormatTableV(rows []SorterRow) string {
	var sb strings.Builder
	sb.WriteString("Table V — streaming sorter throughput (software reproduction, MB/s)\n")
	fmt.Fprintf(&sb, "%12s %10s %10s %10s\n", "elements", "sorted", "reverse", "random")
	byN := map[int]map[string]float64{}
	var ns []int
	for _, r := range rows {
		if byN[r.Elems] == nil {
			byN[r.Elems] = map[string]float64{}
			ns = append(ns, r.Elems)
		}
		byN[r.Elems][r.Sortedness] = r.MBps
	}
	sort.Ints(ns)
	for _, n := range ns {
		fmt.Fprintf(&sb, "%12d %10.1f %10.1f %10.1f\n", n,
			byN[n]["sorted"], byN[n]["reverse"], byN[n]["random"])
	}
	return sb.String()
}

// Fig17 compares, for q1/q6/q3/q10, the analytic trace model against the
// cycle-approximate pipeline simulation (internal/pipesim) driven by the
// same traces — the reproduction of the paper's simulator-vs-FPGA
// validation, where the claim under test is that the cheap analytic model
// tracks the detailed pipeline model.
func Fig17(ev *Evaluator) (string, error) {
	var sb strings.Builder
	sb.WriteString("Fig 17 — analytic trace model vs cycle-approximate pipeline (L-AQUOMAN)\n")
	fmt.Fprintf(&sb, "%-5s %12s %14s %10s %12s %14s\n",
		"query", "analytic (s)", "pipeline (s)", "ratio", "aq mem (GB)", "bound")
	scale := ev.TargetSF / actualSF(ev.Store)
	for _, q := range []int{1, 6, 3, 10} {
		e, err := ev.EvalQuery(q)
		if err != nil {
			return "", err
		}
		analytic := e.AqSeconds["L-AQUOMAN"]
		// Replay the same task trace through the pipeline simulator.
		rep, err := ev.traceFor(q)
		if err != nil {
			return "", err
		}
		var loads []pipesim.TaskLoad
		for _, tt := range rep.AquomanTrace.Tasks {
			loads = append(loads, pipesim.TaskLoad{
				Pages:           int64(float64(tt.PagesRead) * scale),
				VecsPerPage:     64,
				TransformDepth:  int64(tt.TransformerPEs),
				SorterDRAMBytes: int64(float64(tt.SorterDRAMBytes) * scale),
			})
		}
		sim, err := pipesim.Simulate(pipesim.Default(), loads)
		if err != nil {
			return "", err
		}
		ratio := 1.0
		if sim.Seconds > 0 {
			ratio = analytic / sim.Seconds
		}
		fmt.Fprintf(&sb, "q%02d   %12.1f %14.1f %10.2f %12s %14s\n",
			q, analytic, sim.Seconds, ratio, gb(e.AqMem["L-AQUOMAN"]), sim.Bound)
	}
	return sb.String(), nil
}

// ResourceReport is the substitution for Tables III/IV: since Go code has
// no LUT/FF area, it reports the hardware configuration each component of
// the reproduction models, plus per-query usage highlights.
func ResourceReport(evals []*QueryEval) string {
	var sb strings.Builder
	sb.WriteString("Component inventory (substitution for Tables III/IV — see DESIGN.md)\n\n")
	fmt.Fprintf(&sb, "Row Selector      : %d column predicate evaluators (prototype), as-needed in simulator\n", rowsel.PrototypeEvaluators)
	fmt.Fprintf(&sb, "Row-mask buffer   : %d rows (flash queue depth x page)\n", rowsel.MaskBufferRows)
	fmt.Fprintf(&sb, "Row Transformer   : %d PEs x %d instructions, %d registers (prototype)\n",
		systolic.DefaultPEs, systolic.DefaultIMem, systolic.NumRegs)
	fmt.Fprintf(&sb, "Aggregate GroupBy : %d buckets, %d B group identifiers, %d agg slots\n",
		swissknife.GroupBuckets, swissknife.GroupIDBytes, swissknife.MaxAggSlots)
	cfg := sorter.DefaultConfig()
	fmt.Fprintf(&sb, "Streaming sorter  : %d-elem vectors, %d layers of %d-to-1 mergers, %d-elem runs\n",
		cfg.VecElems, cfg.Layers, cfg.FanIn, cfg.RunElems())
	sb.WriteString("\nPer-query pipeline usage (L-AQUOMAN traces):\n")
	fmt.Fprintf(&sb, "%-5s %6s %8s %8s %10s %10s %9s\n",
		"query", "tasks", "maxCPs", "maxPEs", "groups", "spilled", "wideRegs")
	for _, e := range evals {
		fmt.Fprintf(&sb, "q%02d   %6d %8d %8d %10d %10d %9v\n",
			e.Query, e.Tasks, e.MaxCPs, e.MaxPEs, e.Groups, e.SpilledRows, e.WidenedRegs)
	}
	return sb.String()
}
