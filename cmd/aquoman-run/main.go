// Command aquoman-run executes one TPC-H query end to end on the
// AQUOMAN-augmented system and prints the result plus the offload report:
//
//	aquoman-run -q 6 -sf 0.01
//	aquoman-run -q 3 -sf 0.01 -host     # baseline (no offload)
//	aquoman-run -q 6 -trace trace.json  # Chrome trace_event of the pipeline
//	aquoman-run -q 6 -metrics           # Prometheus-text metrics dump
//	aquoman-run -q 6 -listen :8080      # serve /metrics and /debug/vars
//	aquoman-run -q 6 -faults seed=7,transient=0.001,repeat=2
//	aquoman-run -q 6 -jobs 8 -cache 64   # 8 concurrent streams, 64 MiB page cache
//	aquoman-run -q 6 -enc auto           # compressed columns + zone-map pruning
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"aquoman"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
)

func main() {
	log.SetFlags(0)
	var (
		q       = flag.Int("q", 6, "TPC-H query number (1..22)")
		sf      = flag.Float64("sf", 0.01, "scale factor")
		seed    = flag.Int64("seed", 42, "generator seed")
		host    = flag.Bool("host", false, "run on the host baseline instead of AQUOMAN")
		rows    = flag.Int("rows", 20, "result rows to print")
		data    = flag.String("data", "", "load a persisted store instead of generating")
		exec    = flag.String("exec", "", "run this DML statement (INSERT/UPDATE/DELETE/CREATE TABLE) before the query; repeatable via ';' separators")
		merge   = flag.Bool("merge", false, "after -exec statements, merge the delta store into base pages")
		encSel  = flag.String("enc", "raw", "column encoding: auto|raw|dict|rle|for")
		explain = flag.Bool("explain", false, "print the compiled Table-Task program and exit")

		faultSpec = flag.String("faults", "", "fault-injection spec, e.g. seed=7,transient=0.001,repeat=2,permanent=0.0001,slow=0.001,stall=2ms")
		retries   = flag.Int("retry", -1, "page-read retry budget (-1 = default policy)")

		jobs    = flag.Int("jobs", 1, "concurrent streams: run the query this many times through the scheduler")
		cacheMB = flag.Int("cache", 0, "shared page cache size in MiB (0 = no cache)")

		traceOut = flag.String("trace", "", "write a Chrome trace_event JSON of the pipeline stages to this file")
		tree     = flag.Bool("tree", false, "print the span tree of the traced query")
		metrics  = flag.Bool("metrics", false, "print the query's metrics in Prometheus text format")
		listen   = flag.String("listen", "", "after the query, serve /metrics and /debug/vars on this address (e.g. :8080)")
	)
	flag.Parse()

	encoding, encErr := aquoman.ParseEncoding(*encSel)
	if encErr != nil {
		log.Fatal(encErr)
	}

	var db *aquoman.DB
	if *data != "" {
		log.Printf("loading store from %s...", *data)
		var err error
		db, err = aquoman.OpenDir(*data)
		if err != nil {
			log.Fatal(err)
		}
		db.HeapScale = 1000 / *sf
		if encoding != aquoman.EncRaw {
			log.Printf("re-encoding store under -enc %s...", *encSel)
			db.SetDefaultEncoding(encoding)
			if err := db.ReEncodeStore(encoding); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		db = aquoman.Open()
		db.HeapScale = 1000 / *sf // offload decisions modeled at SF-1000
		db.SetDefaultEncoding(encoding)
		log.Printf("generating TPC-H SF %g (enc %s)...", *sf, *encSel)
		if err := db.LoadTPCH(*sf, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *exec != "" {
		for _, stmt := range strings.Split(*exec, ";") {
			if stmt = strings.TrimSpace(stmt); stmt == "" {
				continue
			}
			res, err := db.Exec(context.Background(), stmt)
			if err != nil {
				log.Fatalf("exec %q: %v", stmt, err)
			}
			fmt.Printf("exec %-6s %-10s %6d rows  (epoch %d)\n", res.Op, res.Table, res.Rows, res.Epoch)
		}
	}
	if *merge {
		if err := db.Merge(); err != nil {
			log.Fatalf("merge: %v", err)
		}
		fmt.Printf("delta store merged (epoch %d)\n", db.Catalog().Epoch())
	}
	db.ResetFlashStats()

	if *explain {
		p, err := aquoman.TPCHQuery(*q)
		if err != nil {
			log.Fatal(err)
		}
		out, err := db.Explain(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== TPC-H q%d compiled Table-Task program ===\n%s", *q, out)
		return
	}

	// -trace and -tree read the query's own recorder (Request.Trace); only
	// -metrics and -listen need the process-wide registry.
	trace := *traceOut != "" || *tree
	var obsv *aquoman.Observer
	if *metrics || *listen != "" {
		obsv = db.EnableObservability()
	}

	var inj *aquoman.FaultInjector
	if *faultSpec != "" {
		cfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			log.Fatal(err)
		}
		inj = db.WithFaults(faults.New(cfg))
	}
	if *retries >= 0 {
		p := flash.DefaultRetryPolicy()
		p.Budget = *retries
		db.SetRetryPolicy(p)
	}
	if *cacheMB > 0 {
		db.EnableCache(int64(*cacheMB) << 20)
	}

	var res *aquoman.Result
	var err error
	switch {
	case *jobs > 1:
		if *host {
			log.Fatal("-jobs and -host are mutually exclusive")
		}
		db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: *jobs, QueueDepth: 2 * *jobs})
		defer db.Close()
		tickets := make([]*aquoman.Ticket, *jobs)
		start := time.Now()
		for i := range tickets {
			tickets[i], err = db.Submit(nil, aquoman.Request{TPCH: *q, Trace: trace && i == 0,
				Admit: &aquoman.Admission{Wait: true}})
			if err != nil {
				log.Fatal(err)
			}
		}
		for i, t := range tickets {
			r, err := t.Wait()
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				res = r
			}
		}
		wall := time.Since(start)
		fmt.Printf("=== %d concurrent streams of q%d: %.2f queries/sec (wall %v) ===\n",
			*jobs, *q, float64(*jobs)/wall.Seconds(), wall.Round(time.Millisecond))
		if *cacheMB > 0 {
			st := db.CacheStats()
			fmt.Printf("cache: %.1f%% hit rate (%d hits / %d misses, %d evictions, %.2f MB resident)\n",
				100*st.HitRate(), st.Hits, st.Misses, st.Evictions, float64(st.Bytes)/1e6)
		}
		fmt.Println("note: per-query flash attribution is disabled for concurrent runs; see aggregate FlashStats")
	default:
		res, err = db.Do(nil, aquoman.Request{TPCH: *q, HostOnly: *host, Trace: trace})
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("=== TPC-H q%d (%d rows) ===\n", *q, res.NumRows())
	fmt.Print(res.Render(*rows))
	rep := res.Report
	fmt.Printf("\n=== execution report ===\n")
	fmt.Printf("offloaded units    : %v\n", rep.Units)
	fmt.Printf("fully offloaded    : %v\n", rep.FullyOffloaded)
	fmt.Printf("suspended          : %v %s\n", rep.Suspended, rep.SuspendReason)
	fmt.Printf("flash read (host)  : %.2f MB\n", float64(rep.Flash.BytesRead(flash.Host))/1e6)
	fmt.Printf("flash read (aq)    : %.2f MB (%.0f%% of traffic)\n",
		float64(rep.Flash.BytesRead(flash.Aquoman))/1e6, rep.OffloadFraction*100)
	fmt.Printf("AQUOMAN DRAM peak  : %.2f MB\n", float64(rep.DRAMPeak)/1e6)
	for _, note := range rep.Notes {
		fmt.Printf("note: %s\n", note)
	}
	if inj != nil {
		c := inj.Counts()
		fmt.Printf("faults injected    : %d (transient %d, permanent %d, slow %d, stuck %d)\n",
			c.TotalInjected(), c.Total(faults.Transient), c.Total(faults.Permanent),
			c.Total(faults.SlowRead), c.Total(faults.DeviceStuck))
		fmt.Printf("read retries       : %d (failed %d, stall %.2f ms)\n",
			rep.Flash.TotalReadRetries(), rep.Flash.ReadsFailed[flash.Host]+rep.Flash.ReadsFailed[flash.Aquoman],
			float64(rep.Flash.StallNanos[flash.Host]+rep.Flash.StallNanos[flash.Aquoman])/1e6)
	}
	var pruned, saved int64
	for _, tt := range rep.AquomanTrace.Tasks {
		fmt.Printf("task %-40s %-12s rows %8d -> %8d, pages %d (+%d skipped, %d pruned)\n",
			tt.Name, tt.Op, tt.RowsIn, tt.RowsToSwissknife, tt.PagesRead, tt.PagesSkipped, tt.PagesPruned)
		pruned += tt.PagesPruned
		saved += tt.EncBytesSaved
	}
	if pruned != 0 || saved != 0 {
		fmt.Printf("encoding: %d pages pruned by zone maps, %.2f MB flash traffic saved by compression\n",
			pruned, float64(saved)/1e6)
	}

	if *traceOut != "" {
		if err := os.WriteFile(*traceOut, res.Trace.ChromeTrace(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote Chrome trace (%d spans) to %s — open in chrome://tracing or https://ui.perfetto.dev\n",
			len(res.Trace.Spans()), *traceOut)
	}
	if *tree {
		fmt.Printf("\n=== span tree ===\n%s", res.Trace.Tree())
	}
	if *metrics {
		fmt.Printf("\n=== metrics (Prometheus text) ===\n%s", rep.Metrics.Prometheus())
	}
	if *listen != "" {
		log.Printf("serving /metrics and /debug/vars on %s", *listen)
		log.Fatal(http.ListenAndServe(*listen, obsv.Reg.Handler()))
	}
}
