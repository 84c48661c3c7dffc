// Command aquoman-serve runs the AQUOMAN network query service: an
// HTTP/JSON front end over a TPC-H (or persisted) store, with the
// concurrent scheduler admitting queries and request contexts threaded
// end to end — a disconnecting client or an expired deadline cancels the
// query at its next page-read/operator checkpoint.
//
//	aquoman-serve -listen :8080 -sf 0.01
//	aquoman-serve -listen :8080 -store /data/tpch-sf1
//	curl 'localhost:8080/query?q=select+count(*)+from+lineitem'
//	curl 'localhost:8080/tpch?q=6'
//	curl localhost:8080/healthz
//	curl localhost:8080/metrics
//	go tool pprof localhost:8080/debug/pprof/profile?seconds=10
//
// SIGTERM/SIGINT drains gracefully: new queries are rejected with 503,
// in-flight queries run to completion (bounded by -drain-timeout), then
// the listener and the scheduler shut down.
//
// Cluster mode. A scatter/gather cluster is N workers plus one
// coordinator, all running this binary over the same generator
// parameters:
//
//	aquoman-serve -listen :8081 -sf 0.01 -partition 0/2   # worker 0
//	aquoman-serve -listen :8082 -sf 0.01 -partition 1/2   # worker 1
//	aquoman-serve -listen :8080 -sf 0.01 \
//	    -coordinator -workers http://localhost:8081,http://localhost:8082
//	curl 'localhost:8080/tpch?q=1'
//
// A worker generates the full data set, keeps its -partition i/n shard
// (co-partitioned orders/lineitem, replicated dimensions), and serves
// raw partials at /tpch?q=N&partial=1. The coordinator keeps the full
// replica, scatters per-shard partial plans, merges, and falls back —
// retry, then -worker-mirrors URL, then a local shard copy — when a
// worker dies mid-query. The cluster is read-only: it does not distribute
// writes, so POST /dml on the coordinator or on a worker answers 403.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aquoman"
	"aquoman/internal/server"
)

// parseTenants builds the scheduler's tenant table from the -tenants
// and -tenant-weights flags. -tenants is a comma-separated list of
// name[:maxqueued][/maxinflight] entries (0 = unlimited); -tenant-weights
// is name=weight pairs; a weight for an unlisted tenant declares it
// implicitly. The flags only set weights and quotas: every server grants
// per tenant and lane, and a tenant named by neither flag (the table may
// be empty) runs at weight 1 with no quota.
func parseTenants(tenants, weights string) (map[string]aquoman.TenantConfig, error) {
	out := map[string]aquoman.TenantConfig{}
	for _, ent := range splitList(tenants) {
		if ent == "" {
			continue
		}
		name := ent
		var tc aquoman.TenantConfig
		if i := strings.IndexByte(name, '/'); i >= 0 {
			n, err := strconv.Atoi(name[i+1:])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("invalid -tenants entry %q: bad maxinflight", ent)
			}
			tc.MaxInFlight = n
			name = name[:i]
		}
		if i := strings.IndexByte(name, ':'); i >= 0 {
			n, err := strconv.Atoi(name[i+1:])
			if err != nil || n < 0 {
				return nil, fmt.Errorf("invalid -tenants entry %q: bad maxqueued", ent)
			}
			tc.MaxQueued = n
			name = name[:i]
		}
		if name == "" {
			return nil, fmt.Errorf("invalid -tenants entry %q: empty name", ent)
		}
		tc.Weight = 1
		out[name] = tc
	}
	for _, ent := range splitList(weights) {
		if ent == "" {
			continue
		}
		name, w, ok := strings.Cut(ent, "=")
		if !ok {
			return nil, fmt.Errorf("invalid -tenant-weights entry %q (want name=weight)", ent)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid -tenant-weights entry %q: weight must be >= 1", ent)
		}
		tc := out[name]
		tc.Weight = n
		out[name] = tc
	}
	return out, nil
}

// splitList parses a comma-separated flag value, keeping empty slots so
// -worker-mirrors can skip a worker with ",".
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func main() {
	log.SetFlags(0)
	var (
		listen = flag.String("listen", ":8080", "HTTP listen address")
		store  = flag.String("store", "", "load a persisted store (see tpch-gen) instead of generating")
		sf     = flag.Float64("sf", 0.01, "TPC-H scale factor when generating")
		seed   = flag.Int64("seed", 42, "generator seed")
		encSel = flag.String("enc", "raw", "column encoding: auto|raw|dict|rle|for")

		jobs    = flag.Int("jobs", 4, "max in-flight queries (scheduler slots)")
		queue   = flag.Int("queue", 16, "pending-queue depth behind the in-flight slots")
		cacheMB = flag.Int("cache", 0, "shared page cache size in MiB (0 = no cache)")
		pagelat = flag.Duration("pagelat", 0, "simulated NAND read latency tR per device command (e.g. 100us); reads queue 128 deep on one 2.4 GB/s bus and a batch of pages overlaps its tR")

		tenants = flag.String("tenants", "", "tenant quotas as name[:maxqueued][/maxinflight],... (tenants not listed get weight 1 and no quota)")
		tweight = flag.String("tenant-weights", "", "tenant grant-share weights as name=weight,...")
		rcMB    = flag.Int("result-cache", 0, "query result cache size in MiB (0 = off; per-tenant quota is a quarter of the total)")

		defTimeout   = flag.Duration("timeout", 0, "default per-query deadline (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "cap on per-query deadlines (0 = no cap)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight queries on shutdown")
		slowQuery    = flag.Duration("slow-query", 0, "log a JSON lifecycle breakdown for queries slower than this (0 = off)")
		slowLog      = flag.String("slow-query-log", "", "append slow-query lines to this file instead of stderr")

		coord     = flag.Bool("coordinator", false, "coordinate a cluster: /tpch scatters across -workers")
		workers   = flag.String("workers", "", "comma-separated worker base URLs (coordinator mode)")
		mirrors   = flag.String("worker-mirrors", "", "comma-separated mirror URLs, one per worker ('' to skip a slot)")
		partition = flag.String("partition", "", "serve shard i of an n-way partitioning, as i/n (worker mode)")
	)
	flag.Parse()

	encoding, encErr := aquoman.ParseEncoding(*encSel)
	if encErr != nil {
		log.Fatal(encErr)
	}

	var db *aquoman.DB
	if *store != "" {
		log.Printf("loading store from %s...", *store)
		var err error
		db, err = aquoman.OpenDir(*store)
		if err != nil {
			log.Fatal(err)
		}
		if encoding != aquoman.EncRaw {
			log.Printf("re-encoding store under -enc %s...", *encSel)
			db.SetDefaultEncoding(encoding)
			if err := db.ReEncodeStore(encoding); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		db = aquoman.Open()
		db.SetDefaultEncoding(encoding)
		log.Printf("generating TPC-H SF %g (seed %d, enc %s)...", *sf, *seed, *encSel)
		if err := db.LoadTPCH(*sf, *seed); err != nil {
			log.Fatal(err)
		}
	}
	if *partition != "" {
		var d, n int
		if _, err := fmt.Sscanf(*partition, "%d/%d", &d, &n); err != nil || d < 0 || n < 1 || d >= n {
			log.Fatalf("invalid -partition %q (want i/n with 0 <= i < n)", *partition)
		}
		log.Printf("extracting partition %d/%d...", d, n)
		shard := aquoman.Open()
		shard.SetDefaultEncoding(encoding)
		if err := shard.ExtractPartition(db, d, n); err != nil {
			log.Fatal(err)
		}
		db = shard
	}
	db.EnableObservability()
	tenantCfg, err := parseTenants(*tenants, *tweight)
	if err != nil {
		log.Fatal(err)
	}
	db.ConfigureScheduler(aquoman.SchedulerConfig{
		MaxInFlight: *jobs,
		QueueDepth:  *queue,
		Tenants:     tenantCfg,
	})
	if len(tenantCfg) > 0 {
		log.Printf("weights and quotas set for %d tenants", len(tenantCfg))
	}
	if *cacheMB > 0 {
		db.EnableCache(int64(*cacheMB) << 20)
	}
	if *rcMB > 0 {
		total := int64(*rcMB) << 20
		db.EnableResultCache(total, total/4)
		log.Printf("result cache: %d MiB (per-tenant quota %d MiB)", *rcMB, *rcMB/4)
	}
	if *pagelat > 0 {
		db.Flash.SetReadLatency(*pagelat)
	}

	var slowW io.Writer
	if *slowLog != "" {
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		slowW = f
	}
	var coordinator *aquoman.Coordinator
	if *coord {
		urls := splitList(*workers)
		if len(urls) == 0 {
			log.Fatal("-coordinator requires -workers")
		}
		mirrorURLs := splitList(*mirrors)
		if len(mirrorURLs) != 0 && len(mirrorURLs) != len(urls) {
			log.Fatalf("-worker-mirrors has %d entries for %d workers", len(mirrorURLs), len(urls))
		}
		nodes := make([]aquoman.ClusterNode, len(urls))
		for i, u := range urls {
			nodes[i] = aquoman.ClusterNode{URL: u}
			if i < len(mirrorURLs) {
				nodes[i].Mirror = mirrorURLs[i]
			}
		}
		log.Printf("coordinating %d workers (building local fallback shards)...", len(nodes))
		var err error
		coordinator, err = db.NewCoordinator(nodes)
		if err != nil {
			log.Fatal(err)
		}
	}

	srv := server.New(server.Config{
		DB:                 db,
		DefaultTimeout:     *defTimeout,
		MaxTimeout:         *maxTimeout,
		SlowQueryThreshold: *slowQuery,
		SlowQueryLog:       slowW,
		Coordinator:        coordinator,
	})
	httpSrv := &http.Server{Addr: *listen, Handler: srv}

	go func() {
		log.Printf("aquoman-serve listening on %s (%d slots, queue %d)", *listen, *jobs, *queue)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, draining (up to %v)...", s, *drainTimeout)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	db.Close()
	log.Print("aquoman-serve stopped")
}
