// Command aquoman-bench regenerates the paper's evaluation artifacts:
//
//	aquoman-bench -report fig16a     # Fig 16(a): run time per query/system
//	aquoman-bench -report fig16b     # Fig 16(b): memory footprints
//	aquoman-bench -report fig16c     # Fig 16(c): CPU-cycle savings
//	aquoman-bench -report tablev     # Table V: streaming sorter throughput
//	aquoman-bench -report fig17      # Fig 17: trace-model validation
//	aquoman-bench -report offload    # Sec VIII-B offload census
//	aquoman-bench -report resources  # Tables III/IV substitution
//	aquoman-bench -report all
//
// Data is generated at -sf (default 0.01) and traces are extrapolated to
// -target (default 1000, the paper's 1 TB deployment).
//
// Runtime profiles of the bench itself are available on every report:
// -cpuprofile/-memprofile/-mutexprofile write pprof files on exit.
//
// Serving numbers (throughput, latency, per-layer rates) are not here:
// they come from the benchmark driver, go run ./benchmark/cmd/bench.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/perf"
	"aquoman/internal/tpch"
)

// reports are the values -report accepts besides "all".
var reports = []string{"fig16a", "fig16b", "fig16c", "tablev", "fig17", "offload", "resources"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquoman-bench: ")
	var (
		report = flag.String("report", "all", strings.Join(reports, "|")+"|all")
		sf     = flag.Float64("sf", 0.01, "TPC-H scale factor to generate")
		target = flag.Float64("target", 1000, "modeled deployment scale factor")
		seed   = flag.Int64("seed", 42, "generator seed")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	)
	flag.Parse()
	if *report != "all" && !slices.Contains(reports, *report) {
		fmt.Fprintf(os.Stderr, "aquoman-bench: unknown -report %q\n", *report)
		flag.Usage()
		os.Exit(2)
	}
	defer startProfiles(*cpuprofile, *memprofile, *mutexprofile)()

	need := func(r string) bool { return *report == r || *report == "all" }

	if need("tablev") {
		fmt.Println(perf.FormatTableV(perf.TableV([]int{1 << 14, 1 << 16, 1 << 18, 1 << 20})))
	}
	if !need("fig16a") && !need("fig16b") && !need("fig16c") &&
		!need("fig17") && !need("offload") && !need("resources") {
		return
	}

	log.Printf("generating TPC-H SF %g (plus half-scale calibration set)...", *sf)
	store := col.NewStore(flash.NewDevice())
	if err := tpch.Gen(store, tpch.Config{SF: *sf, Seed: *seed}); err != nil {
		log.Fatal(err)
	}
	half := col.NewStore(flash.NewDevice())
	if err := tpch.Gen(half, tpch.Config{SF: *sf / 2, Seed: *seed + 1}); err != nil {
		log.Fatal(err)
	}
	ev := &perf.Evaluator{Store: store, HalfStore: half, TargetSF: *target,
		Rates: perf.DefaultRates()}

	if need("fig17") {
		out, err := perf.Fig17(ev)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}
	if need("fig16a") || need("fig16b") || need("fig16c") || need("offload") || need("resources") {
		log.Printf("evaluating all 22 queries on 5 systems...")
		evals, err := ev.EvalAll()
		if err != nil {
			log.Fatal(err)
		}
		if need("fig16a") {
			fmt.Println(perf.Fig16a(evals))
		}
		if need("fig16b") {
			fmt.Println(perf.Fig16b(evals))
		}
		if need("fig16c") {
			fmt.Println(perf.Fig16c(evals))
		}
		if need("offload") {
			fmt.Println(perf.OffloadReport(evals))
		}
		if need("resources") {
			fmt.Println(perf.ResourceReport(evals))
		}
	}
}

// startProfiles wires the runtime profilers requested on the command
// line and returns the function that stops them and writes the files
// (run it on exit; log.Fatal paths skip it, losing the profiles).
func startProfiles(cpu, mem, mutex string) func() {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(5)
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
			log.Printf("wrote CPU profile to %s", cpu)
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote heap profile to %s", mem)
		}
		if mutex != "" {
			f, err := os.Create(mutex)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				log.Fatal(err)
			}
			log.Printf("wrote mutex profile to %s", mutex)
		}
	}
}
