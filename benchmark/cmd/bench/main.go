// Command bench is the repository's one benchmark. It builds
// cmd/aquoman-serve, drives four workloads against the real binary over
// loopback HTTP, checks every answer against an oracle computed in a
// separate process, and prints every metric by name with its unit. It
// imports no aquoman package: CLI flags, HTTP and the JSON the helper
// processes print are the whole contract, so the end-to-end numbers
// survive any internal refactoring.
//
//	go run ./benchmark/cmd/bench -seed 42          # everything, ~7 min
//	go run ./benchmark/cmd/bench -seed 42 -roofline
//	go run ./benchmark/cmd/bench -selfcheck
//	bash benchmark/run.sh --workload cold_scan --seed 7 --seconds 20 --trace 0
//
// See benchmark/README.md for the workloads, the metric glossary and the
// layer-to-end-to-end map. The benchmark claims no gain; it only measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports, in the shape the
// benchmark contract fixes for the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes annotate metrics in the human report: sample counts, tails.
	notes    map[string]string
	failures []string
	// lat holds the window's OK latencies by op kind, for the human report
	// and the roofline table; they are not end-to-end metrics.
	lat map[string][]float64
}

func (r *result) count(outs []outcome) {
	for _, o := range outs {
		r.Attempted++
		if !o.ok() {
			r.Failed++
			if len(r.failures) < 5 {
				r.failures = append(r.failures, o.err.Error())
			}
		}
	}
}

type options struct {
	seconds float64
	quick   bool
	rungMS  int
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Int64("seed", 42, "seed for the data, the statement parameters and the arrival times")
		seconds      = flag.Float64("seconds", 30, "length of the measured window; BENCHMARK.json's run_seconds under the PR driver")
		trace        = flag.String("trace", "", "0: end-to-end metrics only; 1: per-layer metrics only; default both")
		quick        = flag.Bool("quick", false, "smoke mode: SF 0.01, 1 s runs, one iteration per ladder rung")
		selfcheck    = flag.Bool("selfcheck", false, "run every workload as two sets on the same binary and compare them against the bounds in BENCHMARK.json")
		roofline     = flag.Bool("roofline", false, "print the roofline table (markdown) after a full run")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllServers()
		os.Exit(1)
	}()

	e := &env{sf: 0.1, seed: *seed, conns: runtime.NumCPU()}
	if e.conns > 4 {
		e.conns = 4
	}
	runtime.GOMAXPROCS(e.conns)
	opt := options{seconds: *seconds, quick: *quick, rungMS: 1000}
	if *quick {
		e.sf, opt.seconds, opt.rungMS = 0.01, 1, 0
	}

	selected := workloads
	if *workloadName != "" {
		w := workloadByName(*workloadName)
		if w == nil {
			fatal("no workload %q; BENCHMARK.json lists them", *workloadName)
		}
		selected = []*workload{w}
	}

	var err error
	if e.bins, err = buildBinaries(); err != nil {
		fatal("%v", err)
	}

	begin, stolen := time.Now(), stolenSeconds()
	var exit int
	switch {
	case *selfcheck:
		exit = runSelfcheck(e, selected, opt)
	case *workloadName != "" && *trace != "":
		exit = runContract(e, selected[0], opt, *trace)
	default:
		exit = runEverything(e, selected, opt, *trace, *roofline)
	}
	if share := (stolenSeconds() - stolen) / (time.Since(begin).Seconds() * float64(runtime.NumCPU())); share > 0.01 {
		fmt.Fprintf(os.Stderr, "bench: warning: the hypervisor stole %.1f %% of this machine's CPU time during the run; its timings are a neighbour's as much as the program's\n", 100*share)
	}
	killAllServers()
	os.Exit(exit)
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	killAllServers()
	os.Exit(1)
}

// runContract is the driver protocol: one workload, one mode, one JSON
// object as the last line of standard output.
func runContract(e *env, w *workload, opt options, trace string) int {
	// Under the contract's time cap the ladder's rungs get a quarter of a
	// second each instead of the full second of a reference run.
	if !opt.quick {
		opt.rungMS = 250
	}
	var res *result
	var err error
	switch trace {
	case "0":
		res, err = runE2E(e, w, opt)
	case "1":
		res, err = runTraced(e, w, opt, nil, nil)
	default:
		fatal("-trace must be 0 or 1, not %q", trace)
	}
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	printResult(w, res, trace == "1")
	line, err := json.Marshal(res)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runEverything is the reference run: every selected workload end to end
// and traced, the ladder once, every metric printed by name.
func runEverything(e *env, selected []*workload, opt options, trace string, roofline bool) int {
	type entry struct {
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Correct   bool              `json:"correct"`
		EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
	}
	summary := map[string]*entry{}
	lat := map[string]map[string][]float64{}
	exit := 0
	var lad *ladderResult
	var sw *sweepResult
	if trace != "0" {
		var err error
		if lad, err = runLadder(e, opt); err != nil {
			fmt.Fprintf(os.Stderr, "bench: ladder: %v\n", err)
			exit = 1
		}
		if sw, err = runSweep(e, opt); err != nil {
			fatal("rate sweep: %v", err)
		}
		fmt.Printf("== rate sweep of dashboard_mix: %d attempted, %d failed\n", sw.attempted, sw.failed)
		if sw.failed > 0 {
			exit = 1
		}
	}
	for _, w := range selected {
		ent := &entry{Correct: true}
		summary[w.name] = ent
		if trace != "1" {
			res, err := runE2E(e, w, opt)
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			printResult(w, res, false)
			lat[w.name] = res.lat
			ent.Attempted, ent.Failed, ent.EndToEnd = res.Attempted, res.Failed, res.Metrics
			ent.Correct = ent.Correct && res.Correct
		}
		if trace != "0" {
			res, err := runTraced(e, w, opt, lad, sw)
			if err != nil {
				fatal("%s (traced): %v", w.name, err)
			}
			printResult(w, res, true)
			ent.Attempted += res.Attempted
			ent.Failed += res.Failed
			ent.PerLayer = res.Metrics
			ent.Correct = ent.Correct && res.Correct
		}
		if !ent.Correct {
			exit = 1
		}
	}
	if roofline {
		printRoofline(e, lad, lat)
	}
	out, _ := json.Marshal(struct {
		Seed      int64             `json:"seed"`
		SF        float64           `json:"sf"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]*entry `json:"workloads"`
		Claim     *string           `json:"claim"`
	}{e.seed, e.sf, opt.seconds, summary, nil})
	fmt.Println(string(out))
	return exit
}

// setups is how many times a run sets a server up. Only the last one is
// measured on; setup_s is the median of all of them. (Three would make
// it a proper median, and would put the PR driver's 92 runs within a few
// seconds a run of its time cap.)
const setups = 2

// runE2E measures the end-to-end metrics of one workload on a server
// started without the slow-query log and never scraped: one window of
// opt.seconds, after setups-1 servers that were only set up and stopped.
func runE2E(e *env, w *workload, opt options) (*result, error) {
	if err := e.generator(); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}}
	var setupS []float64
	var rss float64
	for i := 1; i < setups; i++ {
		r, err := startRound(w, e, false)
		if err != nil {
			return nil, err
		}
		if err := r.stop(); err != nil {
			return nil, err
		}
		setupS, rss = append(setupS, r.setupS), math.Max(rss, r.rssMB)
		res.count(r.other)
	}
	r, err := runRound(w, e, time.Duration(opt.seconds*float64(time.Second)), false)
	if err != nil {
		return nil, err
	}
	res.count(r.main)
	res.count(r.other)
	res.Metrics["setup_s"] = metric{median(append(setupS, r.setupS)), "s"}
	res.Metrics["peak_rss_mb"] = metric{math.Max(rss, r.rssMB), "MB"}
	res.Metrics["qps"] = metric{r.qps, "1/s"}
	res.lat = latencies(r)
	if xs := res.lat[w.q6]; len(xs) > 0 {
		res.Metrics["q6_p50_ms"] = metric{median(xs), "ms"}
		res.notes["q6_p50_ms"] = "the workload's " + w.q6 + " operations"
	} else {
		res.failures = append(res.failures, "no successful "+w.q6+" operation: q6_p50_ms is missing")
		res.Failed++
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// printResult is the human report of one run.
func printResult(w *workload, res *result, traced bool) {
	mode := "end to end"
	if traced {
		mode = "traced, per layer"
	}
	fmt.Printf("== %s (%s): %d attempted, %d failed\n", w.name, mode, res.Attempted, res.Failed)
	for _, f := range res.failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("   %-40s %14.4f %-8s %s\n", n, m.Value, m.Unit, res.notes[n])
	}
	for _, k := range opKinds {
		if xs := res.lat[k]; len(xs) > 0 {
			label, v := tail(xs)
			fmt.Printf("   %-40s %14.4f %-8s n=%d %s=%.3f ms\n", k+" p50", median(xs), "ms", len(xs), label, v)
		}
	}
}

// printRoofline puts the ladder's per-layer rates beside the end-to-end
// q1/q6 rates and the paper's device figures (PAPER.md Sec. VIII-D).
func printRoofline(e *env, lad *ladderResult, lat map[string]map[string][]float64) {
	fmt.Println("\n| layer / path | metric | measured | paper |")
	fmt.Println("|---|---|---|---|")
	if lad != nil {
		var names []string
		for n, m := range lad.Metrics {
			if strings.HasSuffix(m.Unit, "rows/s") || strings.HasSuffix(m.Unit, "MB/s") || strings.HasSuffix(m.Unit, "keys/s") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			m := lad.Metrics[n]
			paper := ""
			switch n {
			case "flash.read_seq_mb_per_s":
				paper = "2400 MB/s flash"
			case "core.q6_mrows_per_s", "tabletask.fused_q6_mrows_per_s":
				paper = "100 Mrows/s (q6)"
			case "core.q1_mrows_per_s", "tabletask.fused_q1_mrows_per_s":
				paper = "69 Mrows/s (q1)"
			}
			fmt.Printf("| %s | %s (1 core) | %.1f %s | %s |\n", n[:strings.IndexByte(n, '.')], n, m.Value, m.Unit, paper)
		}
	}
	if e.g != nil {
		rows := float64(e.g.ora.LineitemRows)
		for _, wn := range []string{"warm_scan", "cold_scan"} {
			for _, q := range []struct{ name, paper string }{{"q1", "69 Mrows/s"}, {"q6", "100 Mrows/s"}} {
				if xs := lat[wn][q.name]; len(xs) > 0 {
					fmt.Printf("| end to end, %s | %s rows/s at p50 over HTTP, %d clients | %.2f Mrows/s | %s |\n",
						wn, q.name, e.conns, rows/median(xs)/1000, q.paper)
				}
			}
		}
	}
	fmt.Println()
}
