// Command aquoman-bench regenerates the paper's evaluation artifacts:
//
//	aquoman-bench -report fig16a     # Fig 16(a): run time per query/system
//	aquoman-bench -report fig16b     # Fig 16(b): memory footprints
//	aquoman-bench -report fig16c     # Fig 16(c): CPU-cycle savings
//	aquoman-bench -report tablev     # Table V: streaming sorter throughput
//	aquoman-bench -report fig17      # Fig 17: trace-model validation
//	aquoman-bench -report offload    # Sec VIII-B offload census
//	aquoman-bench -report resources  # Tables III/IV substitution
//	aquoman-bench -report obsbench   # observability overhead (q1/q6, JSON)
//	aquoman-bench -report concbench  # concurrent-stream throughput (q1/q6, JSON)
//	aquoman-bench -report encbench   # column-encoding flash savings (q1/q6, JSON)
//	aquoman-bench -report profbench  # query-lifecycle state attribution (q1/q6, JSON)
//	aquoman-bench -report scalebench # fused-path scaling past 16 streams (q1/q6, JSON)
//	aquoman-bench -report tenantbench # mixed-tenant tail latency + result cache (JSON)
//	aquoman-bench -report ingestbench # DML ingest + HTAP coherence (JSON)
//	aquoman-bench -report all
//
// Data is generated at -sf (default 0.01) and traces are extrapolated to
// -target (default 1000, the paper's 1 TB deployment).
//
// Runtime profiles of the bench itself are available on every report:
// -cpuprofile/-memprofile/-mutexprofile write pprof files on exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aquoman"
	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/perf"
	"aquoman/internal/rowsel"
	sqlpkg "aquoman/internal/sql"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
	"aquoman/internal/tabletask"
	"aquoman/internal/tpch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("aquoman-bench: ")
	var (
		report  = flag.String("report", "all", "fig16a|fig16b|fig16c|tablev|fig17|offload|resources|obsbench|concbench|encbench|profbench|scalebench|tenantbench|ingestbench|all")
		sf      = flag.Float64("sf", 0.01, "TPC-H scale factor to generate")
		target  = flag.Float64("target", 1000, "modeled deployment scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("out", "", "obsbench/concbench/encbench/profbench: write the JSON report to this file instead of stdout")
		cacheMB = flag.Int("cache", 64, "concbench/profbench: shared page cache size in MiB")
		pageLat = flag.Duration("pagelat", 400*time.Microsecond, "concbench/profbench/scalebench/tenantbench: simulated NAND read latency tR per device command")

		cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		mutexprofile = flag.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	)
	flag.Parse()
	defer startProfiles(*cpuprofile, *memprofile, *mutexprofile)()

	need := func(r string) bool { return *report == r || *report == "all" }

	if *report == "obsbench" {
		runObsBench(*sf, *seed, *out)
		return
	}
	if *report == "concbench" {
		runConcBench(*sf, *seed, *out, int64(*cacheMB)<<20, *pageLat)
		return
	}
	if *report == "encbench" {
		runEncBench(*sf, *seed, *out)
		return
	}
	if *report == "profbench" {
		runProfBench(*sf, *seed, *out, int64(*cacheMB)<<20, *pageLat)
		return
	}
	if *report == "scalebench" {
		runScaleBench(*sf, *seed, *out, int64(*cacheMB)<<20, *pageLat)
		return
	}
	if *report == "tenantbench" {
		runTenantBench(*sf, *seed, *out, int64(*cacheMB)<<20, *pageLat)
		return
	}
	if *report == "ingestbench" {
		runIngestBench(*sf, *seed, *out)
		return
	}

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

// runConcBench measures query throughput at 1/4/16 concurrent streams on
// a q1/q6 mix, with the shared page cache and the wall-clock device model
// (NAND read latency tR per command, one 128-deep queue, one bus) on the
// flash device. Each stream issues its queries serially, like a client
// session, and every rep starts from a cold cache. A fused scan overlaps
// its own page reads — a window of pages per trip to the device — so one
// stream is CPU-bound rather than latency-bound, and extra streams scale
// with the cores while sharing hot pages through the cache (single-flight
// turns S concurrent scans of one file into one device pass).
func runConcBench(sf float64, seed int64, out string, cacheBytes int64, pageLat time.Duration) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}
	// Latency is enabled only after load so generation stays fast.
	db.Flash.SetReadLatency(pageLat)
	defer db.Close()

	mix := []int{1, 6}
	const reps = 3
	type entry struct {
		Streams      int     `json:"streams"`
		Queries      int     `json:"queries"`
		WallNs       int64   `json:"wall_ns"`
		QPS          float64 `json:"queries_per_sec"`
		CacheHitRate float64 `json:"cache_hit_rate"`
		CacheHits    int64   `json:"cache_hits"`
		CacheMisses  int64   `json:"cache_misses"`
		DevicePages  int64   `json:"device_pages_read"`
	}
	doc := struct {
		SF          float64 `json:"sf"`
		PageLatNs   int64   `json:"page_latency_ns"`
		CacheBytes  int64   `json:"cache_bytes"`
		Mix         []int   `json:"mix"`
		Reps        int     `json:"reps"`
		Entries     []entry `json:"streams"`
		Speedup4vs1 float64 `json:"speedup_4_vs_1"`
	}{SF: sf, PageLatNs: pageLat.Nanoseconds(), CacheBytes: cacheBytes, Mix: mix, Reps: reps}

	for _, streams := range []int{1, 4, 16} {
		db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: streams, QueueDepth: 2 * streams * len(mix)})
		best := entry{Streams: streams, Queries: streams * len(mix)}
		for rep := 0; rep < reps; rep++ {
			// A fresh cache per rep: every configuration starts cold, so
			// single-stream runs don't inherit residency from earlier reps.
			cache := db.EnableCache(cacheBytes)
			db.ResetFlashStats()
			var wg sync.WaitGroup
			errs := make(chan error, streams)
			start := time.Now()
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, q := range mix {
						p, err := aquoman.TPCHQuery(q)
						if err != nil {
							errs <- err
							return
						}
						ticket, err := db.SubmitWait(p)
						if err != nil {
							errs <- err
							return
						}
						if _, err := ticket.Wait(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			close(errs)
			for err := range errs {
				log.Fatal(err)
			}
			st := cache.Stats()
			qps := float64(streams*len(mix)) / wall.Seconds()
			if best.WallNs == 0 || qps > best.QPS {
				best.WallNs = wall.Nanoseconds()
				best.QPS = qps
				best.CacheHitRate = st.HitRate()
				best.CacheHits = st.Hits
				best.CacheMisses = st.Misses
				best.DevicePages = db.FlashStats().TotalPagesRead()
			}
		}
		log.Printf("%2d streams: %6.2f q/s, %4.1f%% cache hits, %d device pages",
			streams, best.QPS, 100*best.CacheHitRate, best.DevicePages)
		doc.Entries = append(doc.Entries, best)
	}
	doc.Speedup4vs1 = doc.Entries[1].QPS / doc.Entries[0].QPS
	log.Printf("speedup at 4 streams vs 1: %.2fx", doc.Speedup4vs1)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// preFusionPlateauQPS is the 16-stream throughput the staged pipeline
// plateaued at before operator fusion (BENCH_conc.json as committed by
// the telemetry PR, streams=16). scalebench records it in the report so
// benchcheck -mode scale can gate the 32-stream fused result against a
// fixed pre-fusion reference instead of a drifting baseline.
const preFusionPlateauQPS = 16.47

// scaleStore builds the lineitem-shaped allocation fixture under one
// column encoding: a long-runs group key (RLE-friendly), a narrow-range
// quantity (FOR-friendly), and price/discount value columns — the same
// fixture the fused_test.go allocation gates scan.
func scaleStore(sel enc.Selection, n int) *col.Store {
	s := col.NewStore(flash.NewDevice())
	s.DefaultEncoding = sel
	b := s.NewTable(col.Schema{Name: "lineitem", Cols: []col.ColDef{
		{Name: "flag", Typ: col.Int32},
		{Name: "qty", Typ: col.Int32},
		{Name: "price", Typ: col.Decimal},
		{Name: "disc", Typ: col.Decimal},
	}})
	run := n/4 + 1
	for i := 0; i < n; i++ {
		b.Append(i/run, 1+i%50, int64(100+(i*7)%900), int64(i%11))
	}
	if _, err := b.Finalize(); err != nil {
		log.Fatal(err)
	}
	return s
}

// runScaleBench measures whether the fused zero-allocation scan path
// breaks the 16-stream plateau: the concbench q1/q6 mix at 16 and 32
// concurrent streams under the same shared page cache and simulated NAND
// read latency, plus the steady-state heap allocations per fused table
// re-scan for the q6, q1 and page-kernel pipeline shapes (worst codec of
// each). benchcheck -mode scale gates the report: the 32-stream q/s must
// clear -min-scale x the recorded pre-fusion plateau, stay within a band
// of the same run's 16-stream number, and every alloc figure must be
// zero.
func runScaleBench(sf float64, seed int64, out string, cacheBytes int64, pageLat time.Duration) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}
	db.Flash.SetReadLatency(pageLat)
	defer db.Close()

	mix := []int{1, 6}
	const reps = 3
	type entry struct {
		Streams      int     `json:"streams"`
		Queries      int     `json:"queries"`
		WallNs       int64   `json:"wall_ns"`
		QPS          float64 `json:"queries_per_sec"`
		CacheHitRate float64 `json:"cache_hit_rate"`
		DevicePages  int64   `json:"device_pages_read"`
	}
	doc := struct {
		SF            float64            `json:"sf"`
		PageLatNs     int64              `json:"page_latency_ns"`
		CacheBytes    int64              `json:"cache_bytes"`
		Mix           []int              `json:"mix"`
		Reps          int                `json:"reps"`
		PlateauQPS    float64            `json:"pre_fusion_plateau_qps"`
		Entries       []entry            `json:"streams"`
		Speedup32Vs16 float64            `json:"speedup_32_vs_16"`
		FusedAllocs   map[string]float64 `json:"fused_allocs_per_scan"`
	}{SF: sf, PageLatNs: pageLat.Nanoseconds(), CacheBytes: cacheBytes,
		Mix: mix, Reps: reps, PlateauQPS: preFusionPlateauQPS,
		FusedAllocs: make(map[string]float64)}

	for _, streams := range []int{16, 32} {
		db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: streams, QueueDepth: 2 * streams * len(mix)})
		best := entry{Streams: streams, Queries: streams * len(mix)}
		for rep := 0; rep < reps; rep++ {
			// A fresh cache per rep, exactly like concbench: every
			// configuration starts cold.
			cache := db.EnableCache(cacheBytes)
			db.ResetFlashStats()
			var wg sync.WaitGroup
			errs := make(chan error, streams)
			start := time.Now()
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, q := range mix {
						p, err := aquoman.TPCHQuery(q)
						if err != nil {
							errs <- err
							return
						}
						ticket, err := db.SubmitWait(p)
						if err != nil {
							errs <- err
							return
						}
						if _, err := ticket.Wait(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			wall := time.Since(start)
			close(errs)
			for err := range errs {
				log.Fatal(err)
			}
			qps := float64(streams*len(mix)) / wall.Seconds()
			if best.WallNs == 0 || qps > best.QPS {
				best.WallNs = wall.Nanoseconds()
				best.QPS = qps
				best.CacheHitRate = cache.Stats().HitRate()
				best.DevicePages = db.FlashStats().TotalPagesRead()
			}
		}
		log.Printf("%2d streams: %6.2f q/s, %4.1f%% cache hits, %d device pages",
			streams, best.QPS, 100*best.CacheHitRate, best.DevicePages)
		doc.Entries = append(doc.Entries, best)
	}
	doc.Speedup32Vs16 = doc.Entries[1].QPS / doc.Entries[0].QPS
	log.Printf("speedup at 32 streams vs 16: %.2fx (pre-fusion plateau %.2f q/s)",
		doc.Speedup32Vs16, doc.PlateauQPS)

	// Steady-state allocations per fused re-scan, worst codec per shape.
	// Nonzero here means the pool/scratch discipline regressed and the
	// stream counts above are paying GC for it.
	allCodecs := []enc.Selection{enc.SelRaw, enc.SelDict, enc.SelRLE, enc.SelFOR}
	shapes := []struct {
		name   string
		codecs []enc.Selection
		task   func() *tabletask.Task
	}{
		{"q6", allCodecs, scaleQ6Task},
		{"q1", allCodecs, scaleQ1Task},
		{"page_kernel", []enc.Selection{enc.SelRLE, enc.SelFOR}, scaleKernelTask},
	}
	for _, sh := range shapes {
		worst := 0.0
		for _, sel := range sh.codecs {
			e := tabletask.NewExecutor(scaleStore(sel, 4096), mem.New(1<<30))
			a, err := e.AllocsPerScan(sh.task(), 5)
			if err != nil {
				log.Fatal(err)
			}
			if a > worst {
				worst = a
			}
		}
		doc.FusedAllocs[sh.name] = worst
		log.Printf("fused allocs/scan %-11s: %.1f (worst codec)", sh.name, worst)
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// scaleQ6Task is the TPC-H q6 pipeline shape: two predicates, two
// streamed columns, a multiply transform, and a scalar SUM.
func scaleQ6Task() *tabletask.Task {
	return &tabletask.Task{
		Name:  "scale-q6",
		Table: "lineitem",
		RowSel: &tabletask.Program{Preds: []rowsel.ColPred{
			{Column: "qty", Expr: systolic.GT(systolic.In(0), systolic.C(25)), CPs: 1},
			{Column: "disc", Expr: systolic.GT(systolic.In(0), systolic.C(5)), CPs: 1},
		}},
		Stream:    []string{"price", "disc"},
		Transform: []systolic.Expr{systolic.Mul(systolic.In(0), systolic.In(1))},
		FilterOut: tabletask.NoFilter,
		Op:        tabletask.OpSpec{Kind: tabletask.OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       tabletask.Output{Kind: tabletask.ToHost},
	}
}

// scaleQ1Task is the TPC-H q1 pipeline shape: an unfiltered group-by with
// per-group SUMs over two value columns.
func scaleQ1Task() *tabletask.Task {
	return &tabletask.Task{
		Name:      "scale-q1",
		Table:     "lineitem",
		Stream:    []string{"flag", "qty", "price"},
		FilterOut: tabletask.NoFilter,
		Op: tabletask.OpSpec{Kind: tabletask.OpGroupBy, Keys: 1,
			Aggs: []swissknife.AggKind{swissknife.AggSum, swissknife.AggSum}},
		Out: tabletask.Output{Kind: tabletask.ToHost},
	}
}

// scaleKernelTask is the whole-page aggregation-kernel shape: one
// streamed encoded column, no predicates, no transform.
func scaleKernelTask() *tabletask.Task {
	return &tabletask.Task{
		Name:      "scale-kernel",
		Table:     "lineitem",
		Stream:    []string{"qty"},
		FilterOut: tabletask.NoFilter,
		Op:        tabletask.OpSpec{Kind: tabletask.OpAggregate, Aggs: []swissknife.AggKind{swissknife.AggSum}},
		Out:       tabletask.Output{Kind: tabletask.ToHost},
	}
}

// median returns the middle value (mean of the middle pair for even
// counts) without mutating its input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// runProfBench measures query-lifecycle state attribution on the
// concbench mix (q1/q6) at 1/4/16/32 concurrent streams: each profiled
// query carries an obs.Lifecycle, and the report records where its wall
// time went (queue wait, per-stage CPU, device reads, cache hits,
// coalesce waits) plus the coverage (attributed / wall) of that
// breakdown. Telemetry overhead is measured in-run — every rep executes
// the mix once without lifecycles and once with, interleaved so machine
// drift hits both configurations — because cross-run wall-clock
// comparisons are too noisy to gate in CI.
func runProfBench(sf float64, seed int64, out string, cacheBytes int64, pageLat time.Duration) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}
	db.Flash.SetReadLatency(pageLat)
	defer db.Close()

	mix := []int{1, 6}
	// A rep is tens of milliseconds behind the queued device, so one
	// scheduler hiccup moves a base/profiled ratio by several percent: nine
	// reps a stream count (36 ratios) hold the median overhead to about
	// ±1 point on two cores, where five left it ±2.
	const reps = 9
	type entry struct {
		Streams      int              `json:"streams"`
		Queries      int              `json:"queries"`
		BaseWallNs   int64            `json:"base_wall_ns"`
		WallNs       int64            `json:"wall_ns"`
		BaseQPS      float64          `json:"base_queries_per_sec"`
		QPS          float64          `json:"queries_per_sec"`
		OverheadPct  float64          `json:"overhead_pct"`
		QueryWallNs  int64            `json:"query_wall_ns"`
		AttributedNs int64            `json:"attributed_ns"`
		Coverage     float64          `json:"coverage"`
		States       map[string]int64 `json:"states_ns"`
	}
	doc := struct {
		SF          float64 `json:"sf"`
		PageLatNs   int64   `json:"page_latency_ns"`
		CacheBytes  int64   `json:"cache_bytes"`
		Mix         []int   `json:"mix"`
		Reps        int     `json:"reps"`
		Entries     []entry `json:"streams"`
		OverheadPct float64 `json:"overhead_pct"`
	}{SF: sf, PageLatNs: pageLat.Nanoseconds(), CacheBytes: cacheBytes, Mix: mix, Reps: reps}

	// runMix executes the mix once at `streams` concurrency on a cold
	// cache; with profiled=true every query carries a lifecycle. Both
	// configurations submit under a cancellable context — like every
	// server query — so the measured overhead is the telemetry itself,
	// not the (pre-existing) cost of the cancellation checkpoints.
	runMix := func(streams int, profiled bool) (time.Duration, []*aquoman.Lifecycle) {
		db.EnableCache(cacheBytes)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		var lcs []*aquoman.Lifecycle
		var wg sync.WaitGroup
		errs := make(chan error, streams)
		start := time.Now()
		for s := 0; s < streams; s++ {
			s := s
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range mix {
					p, err := aquoman.TPCHQuery(q)
					if err != nil {
						errs <- err
						return
					}
					var lc *aquoman.Lifecycle
					var ticket *aquoman.Ticket
					if profiled {
						lc = aquoman.NewLifecycle(fmt.Sprintf("s%d-q%d", s, q))
						ticket, err = db.SubmitWaitCtx(aquoman.WithLifecycle(ctx, lc), p)
					} else {
						ticket, err = db.SubmitWaitCtx(ctx, p)
					}
					if err != nil {
						errs <- err
						return
					}
					if _, err := ticket.Wait(); err != nil {
						errs <- err
						return
					}
					if lc != nil {
						lc.Finish()
						mu.Lock()
						lcs = append(lcs, lc)
						mu.Unlock()
					}
				}
			}()
		}
		wg.Wait()
		wall := time.Since(start)
		close(errs)
		for err := range errs {
			log.Fatal(err)
		}
		return wall, lcs
	}

	// Overhead estimation: each rep runs base and profiled back to back,
	// so their ratio cancels slow machine drift; the median across reps
	// (per entry) and across every stream × rep sample (doc level)
	// suppresses the scheduler-noise outliers a best-of comparison would
	// keep. Throughput (QPS) still reports best-of-reps like concbench.
	var allRatios []float64
	for _, streams := range []int{1, 4, 16, 32} {
		db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: streams, QueueDepth: 2 * streams * len(mix)})
		e := entry{Streams: streams, Queries: streams * len(mix), States: make(map[string]int64)}
		var bestBase, bestProf time.Duration
		var bestLcs []*aquoman.Lifecycle
		var ratios []float64
		for rep := 0; rep < reps; rep++ {
			bw, _ := runMix(streams, false)
			if bestBase == 0 || bw < bestBase {
				bestBase = bw
			}
			pw, lcs := runMix(streams, true)
			if bestProf == 0 || pw < bestProf {
				bestProf = pw
				bestLcs = lcs
			}
			ratios = append(ratios, 100*(float64(pw)/float64(bw)-1))
		}
		allRatios = append(allRatios, ratios...)
		e.BaseWallNs = bestBase.Nanoseconds()
		e.WallNs = bestProf.Nanoseconds()
		e.BaseQPS = float64(e.Queries) / bestBase.Seconds()
		e.QPS = float64(e.Queries) / bestProf.Seconds()
		e.OverheadPct = median(ratios)
		for _, name := range obs.StateNames() {
			e.States[name] = 0
		}
		for _, lc := range bestLcs {
			e.QueryWallNs += int64(lc.Wall())
			e.AttributedNs += int64(lc.Attributed())
			for name, ns := range lc.Breakdown() {
				e.States[name] += ns
			}
		}
		if e.QueryWallNs > 0 {
			e.Coverage = float64(e.AttributedNs) / float64(e.QueryWallNs)
		}
		log.Printf("%2d streams: %6.2f q/s (base %6.2f, overhead %+.2f%%), coverage %.1f%%",
			streams, e.QPS, e.BaseQPS, e.OverheadPct, 100*e.Coverage)
		doc.Entries = append(doc.Entries, e)
	}
	doc.OverheadPct = median(allRatios)
	log.Printf("median telemetry overhead across %d samples: %+.2f%%", len(allRatios), doc.OverheadPct)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// runEncBench measures what auto-selected column encodings plus zone-map
// pruning save on flash traffic for TPC-H q1 and q6: the same generated
// instance is run raw and encoded, device page reads are compared, and
// the results must be cell-identical (the saving is worthless otherwise).
func runEncBench(sf float64, seed int64, out string) {
	storeBytes := func(db *aquoman.DB) int64 {
		var total int64
		for _, name := range db.Store.Tables() {
			tab, err := db.Store.Table(name)
			if err != nil {
				log.Fatal(err)
			}
			for _, cn := range tab.ColumnNames() {
				total += tab.MustColumn(cn).File.Size()
			}
		}
		return total
	}
	build := func(enc aquoman.Encoding) *aquoman.DB {
		db := aquoman.Open()
		db.HeapScale = 1000 / sf
		db.SetDefaultEncoding(enc)
		if err := db.LoadTPCH(sf, seed); err != nil {
			log.Fatal(err)
		}
		return db
	}
	run := func(db *aquoman.DB, q int) (string, int64) {
		db.ResetFlashStats()
		res, err := db.RunTPCH(q)
		if err != nil {
			log.Fatal(err)
		}
		return res.Render(res.NumRows() + 1), db.FlashStats().TotalPagesRead()
	}

	log.Printf("generating TPC-H SF %g raw and encoded...", sf)
	rawDB := build(aquoman.EncRaw)
	encDB := build(aquoman.EncAuto)

	type entry struct {
		Query     string  `json:"query"`
		RawPages  int64   `json:"raw_pages"`
		EncPages  int64   `json:"enc_pages"`
		SavingPct float64 `json:"saving_pct"`
		Identical bool    `json:"identical"`
	}
	doc := struct {
		SF       float64 `json:"sf"`
		RawBytes int64   `json:"raw_bytes"`
		EncBytes int64   `json:"enc_bytes"`
		Queries  []entry `json:"queries"`
	}{SF: sf, RawBytes: storeBytes(rawDB), EncBytes: storeBytes(encDB)}

	for _, q := range []int{1, 6} {
		rawOut, rawPages := run(rawDB, q)
		encOut, encPages := run(encDB, q)
		e := entry{
			Query:     fmt.Sprintf("q%d", q),
			RawPages:  rawPages,
			EncPages:  encPages,
			SavingPct: 100 * (1 - float64(encPages)/float64(rawPages)),
			Identical: rawOut == encOut,
		}
		doc.Queries = append(doc.Queries, e)
		log.Printf("q%d: %d raw pages -> %d encoded (%.1f%% saved), identical=%v",
			q, e.RawPages, e.EncPages, e.SavingPct, e.Identical)
	}
	log.Printf("store size: %.2f MB raw -> %.2f MB encoded",
		float64(doc.RawBytes)/1e6, float64(doc.EncBytes)/1e6)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// runObsBench measures the wall-clock cost of full observability (metrics
// registry + tracer) on TPC-H q1 and q6, taking the best of several reps
// per configuration to suppress scheduler noise.
func runObsBench(sf float64, seed int64, out string) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}

	const reps = 9
	best := func(q int) time.Duration {
		min := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err := db.RunTPCH(q); err != nil {
				log.Fatal(err)
			}
			if d := time.Since(t0); d < min {
				min = d
			}
		}
		return min
	}

	type entry struct {
		Query       string  `json:"query"`
		BaseNs      int64   `json:"base_ns"`
		ObsNs       int64   `json:"obs_ns"`
		OverheadPct float64 `json:"overhead_pct"`
	}
	doc := struct {
		SF      float64 `json:"sf"`
		Reps    int     `json:"reps"`
		Queries []entry `json:"queries"`
	}{SF: sf, Reps: reps}

	for _, q := range []int{1, 6} {
		if _, err := db.RunTPCH(q); err != nil { // warm-up
			log.Fatal(err)
		}
		base := best(q)
		db.EnableObservability()
		withObs := best(q)
		db.DisableObservability()
		doc.Queries = append(doc.Queries, entry{
			Query:       fmt.Sprintf("q%d", q),
			BaseNs:      base.Nanoseconds(),
			ObsNs:       withObs.Nanoseconds(),
			OverheadPct: 100 * (float64(withObs)/float64(base) - 1),
		})
		log.Printf("q%d: base %v, with obs %v (%.2f%%)", q, base, withObs,
			100*(float64(withObs)/float64(base)-1))
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// dashQueries are each dashboard tenant's distinct point-query set:
// small-table lookups whose results the tenant re-requests constantly,
// which is exactly the shape the result cache is for. Constants differ
// per tenant so the cache keys (and per-tenant quotas) stay disjoint.
var dashQueries = map[string][]string{
	"dash-a": {
		"select count(*) as n from region",
		"select count(*) as n from nation where n_regionkey = 1",
		"select count(*) as n from supplier where s_suppkey < 40",
		"select count(*) as n from customer where c_custkey < 100",
	},
	"dash-b": {
		"select count(*) as n from nation",
		"select count(*) as n from nation where n_regionkey = 2",
		"select count(*) as n from supplier where s_suppkey < 60",
		"select count(*) as n from customer where c_custkey < 200",
	},
	"dash-c": {
		"select count(*) as n from region where r_regionkey < 3",
		"select count(*) as n from nation where n_regionkey = 3",
		"select count(*) as n from supplier where s_suppkey < 80",
		"select count(*) as n from customer where c_custkey < 300",
	},
}

// pctile reads the q-th percentile (0..1) from an unsorted sample set.
func pctile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1))]
}

// runTenantBench is the mixed-tenant tail-latency harness: one heavy-scan
// tenant (weight 1, batch lane) saturates the 32-slot scheduler with
// TPC-H q1 table scans while three dashboard tenants (weight 4,
// interactive lane) hammer point queries through the result cache. The
// report carries per-tenant client-side p50/p99, per-tenant result-cache
// hit rates, grant counts from the weighted-fair scheduler, and a
// 22-query oracle differential proving cached results are byte-identical
// to uncached execution (benchcheck -mode tenant gates all of it).
func runTenantBench(sf float64, seed int64, out string, cacheBytes int64, pageLat time.Duration) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const streams = 32
	const scanClients = 8
	const scanQueriesEach = 8
	tenants := map[string]aquoman.TenantConfig{
		"scan":   {Weight: 1, MaxInFlight: streams - scanClients},
		"dash-a": {Weight: 4},
		"dash-b": {Weight: 4},
		"dash-c": {Weight: 4},
	}
	db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{
		MaxInFlight: streams,
		QueueDepth:  4 * streams,
		Tenants:     tenants,
	})
	db.EnableCache(cacheBytes)
	db.EnableResultCache(64<<20, 16<<20)

	// Oracle differential first, on the quiet pre-latency store: for all
	// 22 TPC-H queries, direct execution, a result-cache miss, and a
	// result-cache hit must render byte-identically.
	oracleIdentical := true
	const oracleQueries = 22
	log.Printf("oracle: 22-query cached-vs-direct differential...")
	for q := 1; q <= oracleQueries; q++ {
		render := func(r *aquoman.Result) string { return r.Render(1 << 20) }
		pBase, err := aquoman.TPCHQuery(q)
		if err != nil {
			log.Fatal(err)
		}
		base, err := db.Run(pBase)
		if err != nil {
			log.Fatal(err)
		}
		key := fmt.Sprintf("oracle:q%d", q)
		pMiss, _ := aquoman.TPCHQuery(q)
		miss, h1, err := db.RunCachedCtx(context.Background(), "oracle", aquoman.LaneBatch, key, pMiss)
		if err != nil {
			log.Fatal(err)
		}
		pHit, _ := aquoman.TPCHQuery(q)
		hit, h2, err := db.RunCachedCtx(context.Background(), "oracle", aquoman.LaneBatch, key, pHit)
		if err != nil {
			log.Fatal(err)
		}
		if h1 || !h2 {
			log.Printf("oracle q%d: cache behavior wrong (first hit=%v, second hit=%v)", q, h1, h2)
			oracleIdentical = false
		}
		if render(base) != render(miss) || render(base) != render(hit) {
			log.Printf("oracle q%d: cached result differs from direct execution", q)
			oracleIdentical = false
		}
	}

	// Latency goes on only for the mixed workload, like concbench.
	db.Flash.SetReadLatency(pageLat)

	// Warm each dashboard's cache once before measuring, the steady state
	// a real dashboard lives in: the measured window then gates the tail
	// of hits-under-saturation rather than one-off cold misses.
	for name, queries := range dashQueries {
		for _, src := range queries {
			p, err := sqlpkg.Plan(src, db.Store)
			if err != nil {
				log.Fatal(err)
			}
			if _, _, err := db.RunCachedCtx(context.Background(), name, aquoman.LaneInteractive, aquoman.CanonicalSQL(src), p); err != nil {
				log.Fatal(err)
			}
		}
	}

	type sample struct {
		mu      sync.Mutex
		lat     []float64 // ms
		hits    int64
		queries int64
	}
	samples := map[string]*sample{}
	for name := range tenants {
		samples[name] = &sample{}
	}

	scanDone := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, streams)

	// Scan tenant: 8 clients each run 4 whole q1 scans on the batch lane,
	// deliberately uncached (SubmitTenantWaitCtx) so every run saturates
	// the device and the scheduler the way an SF-scale scan would.
	var scansLeft sync.WaitGroup
	for c := 0; c < scanClients; c++ {
		wg.Add(1)
		scansLeft.Add(1)
		go func() {
			defer wg.Done()
			defer scansLeft.Done()
			for i := 0; i < scanQueriesEach; i++ {
				p, err := aquoman.TPCHQuery(1)
				if err != nil {
					errs <- err
					return
				}
				begin := time.Now()
				tk, err := db.SubmitTenantWaitCtx(context.Background(), "scan", aquoman.LaneBatch, p)
				if err != nil {
					errs <- err
					return
				}
				if _, err := tk.Wait(); err != nil {
					errs <- err
					return
				}
				s := samples["scan"]
				s.mu.Lock()
				s.lat = append(s.lat, float64(time.Since(begin).Microseconds())/1000)
				s.queries++
				s.mu.Unlock()
			}
		}()
	}
	go func() {
		scansLeft.Wait()
		close(scanDone)
	}()

	// Dashboard tenants: 8 clients per tenant loop their point-query set
	// through the result cache on the interactive lane until the scans
	// finish, so every dashboard sample is taken under scan saturation.
	for name, queries := range dashQueries {
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(tenant string, qs []string, client int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-scanDone:
						return
					default:
					}
					src := qs[(client+i)%len(qs)]
					p, err := sqlpkg.Plan(src, db.Store)
					if err != nil {
						errs <- err
						return
					}
					begin := time.Now()
					_, hit, err := db.RunCachedCtx(context.Background(), tenant, aquoman.LaneInteractive, aquoman.CanonicalSQL(src), p)
					if err != nil {
						errs <- err
						return
					}
					s := samples[tenant]
					s.mu.Lock()
					if len(s.lat) < 100000 {
						s.lat = append(s.lat, float64(time.Since(begin).Microseconds())/1000)
					}
					s.queries++
					if hit {
						s.hits++
					}
					s.mu.Unlock()
					time.Sleep(time.Millisecond) // dashboards poll, not spin
				}
			}(name, queries, c)
		}
	}

	wallStart := time.Now()
	wg.Wait()
	wall := time.Since(wallStart)
	close(errs)
	for err := range errs {
		log.Fatal(err)
	}

	grants := db.TenantGrants()
	type entry struct {
		Tenant  string  `json:"tenant"`
		Weight  int     `json:"weight"`
		Lane    string  `json:"lane"`
		Queries int64   `json:"queries"`
		HitRate float64 `json:"hit_rate"`
		P50Ms   float64 `json:"p50_ms"`
		P99Ms   float64 `json:"p99_ms"`
		Grants  int64   `json:"grants"`
	}
	doc := struct {
		SF              float64 `json:"sf"`
		PageLatNs       int64   `json:"page_latency_ns"`
		CacheBytes      int64   `json:"cache_bytes"`
		Streams         int     `json:"streams"`
		WallNs          int64   `json:"wall_ns"`
		ScanP50Ms       float64 `json:"scan_p50_ms"`
		OracleQueries   int     `json:"oracle_queries"`
		OracleIdentical bool    `json:"oracle_identical"`
		RCacheHits      int64   `json:"result_cache_hits"`
		RCacheMisses    int64   `json:"result_cache_misses"`
		Tenants         []entry `json:"tenants"`
	}{
		SF: sf, PageLatNs: pageLat.Nanoseconds(), CacheBytes: cacheBytes,
		Streams: streams, WallNs: wall.Nanoseconds(),
		OracleQueries: oracleQueries, OracleIdentical: oracleIdentical,
	}
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := samples[name]
		lane := "interactive"
		if name == "scan" {
			lane = "batch"
		}
		e := entry{
			Tenant: name, Weight: tenants[name].Weight, Lane: lane,
			Queries: s.queries,
			P50Ms:   pctile(s.lat, 0.50), P99Ms: pctile(s.lat, 0.99),
			Grants: grants[name],
		}
		if s.queries > 0 && lane == "interactive" {
			e.HitRate = float64(s.hits) / float64(s.queries)
		}
		if name == "scan" {
			doc.ScanP50Ms = e.P50Ms
		}
		log.Printf("%-7s (weight %d, %-11s): %5d queries, p50 %8.2f ms, p99 %8.2f ms, hit rate %.3f, %d grants",
			name, e.Weight, lane, e.Queries, e.P50Ms, e.P99Ms, e.HitRate, e.Grants)
		doc.Tenants = append(doc.Tenants, e)
	}
	st := db.ResultCacheStats()
	doc.RCacheHits, doc.RCacheMisses = st.Hits, st.Misses
	log.Printf("oracle identical: %v; result cache %d hits / %d misses", oracleIdentical, st.Hits, st.Misses)

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}

// sqlLiteral renders one stored cell as the DML literal that re-ingests
// the same value: dates as DATE '...', decimals with two fractional
// digits, dictionary codes and heap offsets resolved back to their
// (quote-escaped) strings.
func sqlLiteral(typ col.Type, ci *col.ColumnInfo, v int64) (string, error) {
	switch typ {
	case col.Date:
		return "DATE '" + col.DateString(v) + "'", nil
	case col.Decimal:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		return fmt.Sprintf("%s%d.%02d", neg, v/col.DecimalScale, v%col.DecimalScale), nil
	case col.Dict, col.Text:
		s, err := ci.Str(v, flash.Host)
		if err != nil {
			return "", err
		}
		return "'" + strings.ReplaceAll(s, "'", "''") + "'", nil
	default:
		return strconv.FormatInt(v, 10), nil
	}
}

// runIngestBench measures the write path end to end: INSERT throughput
// through parse→catalog→delta-tail+WAL, analytic-query latency with the
// un-merged overlay folded in (HTAP reads), UPDATE/DELETE round trips,
// the merge itself, and post-merge query latency. Inserted rows clone
// existing lineitem rows, so every FK and the composite partsupp join
// index stay valid across the merge. benchcheck -mode ingest gates the
// report: the pre-merge and post-merge q6 answers must be cell-exact
// equal (coherence), the row accounting must balance, and insert
// throughput must clear a floor.
func runIngestBench(sf float64, seed int64, out string) {
	db := aquoman.Open()
	db.HeapScale = 1000 / sf
	log.Printf("generating TPC-H SF %g...", sf)
	if err := db.LoadTPCH(sf, seed); err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	const (
		insertRows = 2000
		batchRows  = 100
		reps       = 3
	)

	q6 := func() (int64, int64) { // best-of-reps wall, revenue cell
		var bestNs, revenue int64
		for i := 0; i < reps; i++ {
			start := time.Now()
			res, err := db.RunTPCH(6)
			if err != nil {
				log.Fatal(err)
			}
			ns := time.Since(start).Nanoseconds()
			if bestNs == 0 || ns < bestNs {
				bestNs = ns
			}
			revenue = res.Batch.Cols[0][0]
		}
		return bestNs, revenue
	}

	tab := db.Store.MustTable("lineitem")
	baseRows := tab.NumRows
	type colSrc struct {
		name string
		typ  col.Type
		ci   *col.ColumnInfo
		vals []int64
	}
	var srcs []colSrc
	var names []string
	for _, def := range tab.Cols {
		if def.Typ == col.RowID {
			continue
		}
		ci := tab.MustColumn(def.Name)
		srcs = append(srcs, colSrc{def.Name, def.Typ, ci, ci.MustReadAll(flash.Host)})
		names = append(names, def.Name)
	}

	cleanNs, _ := q6()
	log.Printf("clean q6: %.2f ms", float64(cleanNs)/1e6)

	// INSERT: clone base rows in batched multi-row statements. Cloned
	// rows reuse live key columns, so FK validation at merge holds.
	ctx := context.Background()
	insertStart := time.Now()
	for off := 0; off < insertRows; off += batchRows {
		var sb strings.Builder
		sb.WriteString("INSERT INTO lineitem (")
		sb.WriteString(strings.Join(names, ", "))
		sb.WriteString(") VALUES ")
		for i := 0; i < batchRows; i++ {
			r := (off + i) % baseRows
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for ci, s := range srcs {
				if ci > 0 {
					sb.WriteString(", ")
				}
				lit, err := sqlLiteral(s.typ, s.ci, s.vals[r])
				if err != nil {
					log.Fatal(err)
				}
				sb.WriteString(lit)
			}
			sb.WriteByte(')')
		}
		if _, err := db.Exec(ctx, sb.String()); err != nil {
			log.Fatal(err)
		}
	}
	insertNs := time.Since(insertStart).Nanoseconds()
	log.Printf("ingest: %d rows in %.2f ms (%.0f rows/sec)", insertRows,
		float64(insertNs)/1e6, float64(insertRows)/(float64(insertNs)/1e9))

	// UPDATE and DELETE one order's line items each (victim selection
	// runs a real WHERE scan at a snapshot, commit is a CAS).
	okeys := srcs[0].vals // l_orderkey is the first lineitem column
	updStart := time.Now()
	updRes, err := db.Exec(ctx, fmt.Sprintf(
		"UPDATE lineitem SET l_quantity = l_quantity + 1 WHERE l_orderkey = %d", okeys[0]))
	if err != nil {
		log.Fatal(err)
	}
	updNs := time.Since(updStart).Nanoseconds()
	delStart := time.Now()
	delRes, err := db.Exec(ctx, fmt.Sprintf(
		"DELETE FROM lineitem WHERE l_orderkey = %d", okeys[baseRows/2]))
	if err != nil {
		log.Fatal(err)
	}
	delNs := time.Since(delStart).Nanoseconds()
	log.Printf("update: %d rows in %.2f ms; delete: %d rows in %.2f ms",
		updRes.Rows, float64(updNs)/1e6, delRes.Rows, float64(delNs)/1e6)

	overlayNs, overlayRev := q6()
	log.Printf("overlay q6 (HTAP read over %d tail rows): %.2f ms", insertRows,
		float64(overlayNs)/1e6)

	mergeStart := time.Now()
	if err := db.Merge(); err != nil {
		log.Fatal(err)
	}
	mergeNs := time.Since(mergeStart).Nanoseconds()
	mergedNs, mergedRev := q6()
	log.Printf("merge: %.2f ms; merged q6: %.2f ms", float64(mergeNs)/1e6,
		float64(mergedNs)/1e6)

	// Row accounting: deleted victims may include cloned tail rows, so
	// recompute directly instead of assuming they all hit the base.
	gotRows := db.Store.MustTable("lineitem").NumRows
	wantRows := baseRows + insertRows - delRes.Rows

	doc := struct {
		SF                   float64 `json:"sf"`
		RowsInserted         int     `json:"rows_inserted"`
		InsertWallNs         int64   `json:"insert_wall_ns"`
		InsertsPerSec        float64 `json:"inserts_per_sec"`
		UpdateRows           int     `json:"update_rows"`
		UpdateWallNs         int64   `json:"update_wall_ns"`
		DeleteRows           int     `json:"delete_rows"`
		DeleteWallNs         int64   `json:"delete_wall_ns"`
		Q6CleanNs            int64   `json:"q6_clean_ns"`
		Q6OverlayNs          int64   `json:"q6_overlay_ns"`
		OverlaySlowdown      float64 `json:"overlay_slowdown"`
		MergeNs              int64   `json:"merge_ns"`
		Q6MergedNs           int64   `json:"q6_merged_ns"`
		MergedMatchesOverlay bool    `json:"merged_matches_overlay"`
		RowsOK               bool    `json:"rows_ok"`
	}{
		SF: sf, RowsInserted: insertRows, InsertWallNs: insertNs,
		InsertsPerSec: float64(insertRows) / (float64(insertNs) / 1e9),
		UpdateRows:    updRes.Rows, UpdateWallNs: updNs,
		DeleteRows: delRes.Rows, DeleteWallNs: delNs,
		Q6CleanNs: cleanNs, Q6OverlayNs: overlayNs,
		OverlaySlowdown: float64(overlayNs) / float64(cleanNs),
		MergeNs:         mergeNs, Q6MergedNs: mergedNs,
		MergedMatchesOverlay: mergedRev == overlayRev,
		RowsOK:               gotRows == wantRows,
	}
	if !doc.MergedMatchesOverlay {
		log.Printf("WARNING: merged q6 revenue %d != overlay %d", mergedRev, overlayRev)
	}
	if !doc.RowsOK {
		log.Printf("WARNING: lineitem rows %d after merge, want %d", gotRows, wantRows)
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	b = append(b, '\n')
	if out == "" {
		os.Stdout.Write(b)
		return
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", out)
}
