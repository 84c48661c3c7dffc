package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// env is what every round of a run shares.
type env struct {
	bins  binaries
	sf    float64
	seed  int64
	conns int // N = min(nproc, 4): server slots, driver connections, GOMAXPROCS
	g     *gen
}

// generator returns the statement generator for the run's seed, running
// the oracle process the first time a seed is used.
func (e *env) generator() error {
	if e.g != nil && e.g.seed == e.seed {
		return nil
	}
	g, err := newGen(e.bins, e.sf, e.seed)
	if err != nil {
		return err
	}
	e.g = g
	return nil
}

// workload is one traffic mix against one server configuration.
type workload struct {
	name string
	// flags are the server flags beyond -sf, -seed and -jobs.
	flags []string
	// q6 is the op kind whose median is q6_p50_ms on this workload:
	// /tpch?q=6 itself, or on dashboard_mix the report type, which is q6
	// with random substitution parameters sent as SQL.
	q6     string
	warmup func(r *round)
	// window runs the load for dur and returns its outcomes and the rate
	// of OK queries per second.
	window func(r *round, dur time.Duration) ([]outcome, float64)
	// final runs after the row-count check, for checks that need the
	// whole history of the round.
	final func(r *round)
}

// round is one server lifetime: spawn, warm up, measured window, final
// checks, SIGTERM.
type round struct {
	w     *workload
	env   *env
	srv   *server
	c     *client
	epoch time.Time // zero point of every outcome offset in this round
	slow  string    // slow-query log path when traced

	setupS float64
	rssMB  float64
	qps    float64
	cpuMS  float64   // server CPU milliseconds per OK operation of the main window
	main   []outcome // the measured window
	other  []outcome // warm-up and final checks: counted, not timed
	// mainFrom/mainTo bound the window in wall-clock time, for joining the
	// slow-query log.
	mainFrom, mainTo time.Time
	before, after    promSnapshot
}

// latencies pools the OK latencies of the rounds' windows by kind.
func latencies(rs ...*round) map[string][]float64 {
	lat := map[string][]float64{}
	for _, r := range rs {
		for _, o := range r.main {
			if o.ok() {
				lat[o.op.kind] = append(lat[o.op.kind], o.latencyMS())
			}
		}
	}
	return lat
}

// serverFlags are the workload's flags after the ones every server gets.
func serverFlags(e *env, w *workload) []string {
	return append([]string{"-sf", fmt.Sprint(e.sf), "-seed", fmt.Sprint(e.seed), "-jobs", fmt.Sprint(e.conns)}, w.flags...)
}

// send runs one op outside any window and files it under "other".
func (r *round) send(o *op) outcome {
	out := r.c.do(o, len(r.other), r.epoch, time.Since(r.epoch))
	r.other = append(r.other, out)
	return out
}

var workloads = []*workload{
	{
		// closed loop of q1/q6 over a store that fits the 256 MiB page cache:
		// the fused scan kernels do the work and flash only the hit path
		name:  "warm_scan",
		flags: []string{"-enc", "raw", "-cache", "256", "-queue", "16"},
		q6:    "q6",
		warmup: func(r *round) {
			for i := 0; i < 2; i++ {
				r.send(r.env.g.next("q1"))
				r.send(r.env.g.next("q6"))
			}
		},
		window: scanLoop,
	},
	{
		// the same closed loop with a 4 MiB cache and 100us pages: one query's
		// footprint is 2.4-4.2x the cache, so every scan waits on the modelled
		// device and its single-flight fills
		name:  "cold_scan",
		flags: []string{"-enc", "raw", "-cache", "4", "-pagelat", "100us", "-queue", "16"},
		q6:    "q6",
		// Nothing can be warmed that the first scan does not evict; one
		// cheap statement pays for the first connection and first plan. (A
		// full q1/q6 cycle was tried as warm-up: it doubles set-up and the
		// convoy still settles into either of its two regimes.)
		warmup: func(r *round) { r.send(r.env.g.next("point")) },
		window: scanLoop,
	},
	{
		// open loop at 80 req/s of point, range, tile, report and export
		// statements from two tenants over an auto-encoded store with a result
		// cache: server, sql, compiler, fair sched and NDJSON emit dominate
		name: "dashboard_mix",
		flags: []string{"-enc", "auto", "-cache", "256", "-result-cache", "16",
			"-tenant-weights", "dash=4,report=1", "-queue", "64"},
		q6: "report",
		warmup: func(r *round) {
			for _, stmt := range r.env.g.tiles {
				r.send(tenantOp(&op{kind: "tile", path: queryPath(stmt), want: r.env.g.want(stmt), wantRows: -1}))
			}
		},
		window: dashboardLoop,
	},
	{
		// one writer at 10 statements/s (200-row INSERTs, every 10th an UPDATE
		// or DELETE) beside one closed-loop q6 reader: an un-merged delta
		// forces scans onto the host engine with overlays while writes go
		// catalog, delta, flash append
		name:  "htap_mix",
		flags: []string{"-enc", "raw", "-cache", "256", "-queue", "16"},
		q6:    "q6",
		warmup: func(r *round) {
			for i := 0; i < 2; i++ {
				r.send(r.env.g.next("q6"))
			}
		},
		window: htapLoop,
		final:  htapFinal,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scanLoop is the closed loop of warm_scan and cold_scan: N clients,
// client i cycling q1, q6 from offset i.
func scanLoop(r *round, dur time.Duration) ([]outcome, float64) {
	cycle := []string{"q1", "q6"}
	return closedLoop(r.c, r.env.conns, func(i, n int) *op {
		return r.env.g.next(cycle[(i+n)%len(cycle)])
	}, r.epoch, dur)
}

// dashboardRate is the fixed arrival rate of dashboard_mix, in requests
// per second. The rate sweep of the traced run scales it.
const dashboardRate = 80

// dashboardShares are the type shares of dashboard_mix, in percent.
var dashboardShares = []struct {
	kind  string
	share int
}{{"point", 40}, {"range", 25}, {"tile", 25}, {"report", 5}, {"export", 5}}

// tenantOp stamps the tenant a dashboard statement comes from: the
// interactive dashboard for the three cheap types, the batch reporter for
// report and export.
func tenantOp(o *op) *op {
	switch o.kind {
	case "report", "export":
		o.tenant = "report"
		o.path += "&lane=batch"
	default:
		o.tenant = "dash"
	}
	return o
}

// dashboardPlan draws an open-loop schedule: exactly rate*dur arrivals at
// independent uniform instants (a Poisson process conditioned on its
// count, so that two seeds offer the same volume) and exactly the type
// shares above in random order.
func dashboardPlan(g *gen, rate float64, dur time.Duration) []arrival {
	n := int(rate * dur.Seconds())
	plan := make([]arrival, n)
	for i := range plan {
		plan[i].due = time.Duration(g.rng.Int63n(int64(dur)))
	}
	sort.Slice(plan, func(i, j int) bool { return plan[i].due < plan[j].due })
	kinds := make([]string, 0, n)
	for _, s := range dashboardShares {
		for i := 0; i < n*s.share/100; i++ {
			kinds = append(kinds, s.kind)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, "point")
	}
	g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for i := range plan {
		plan[i].op = tenantOp(g.next(kinds[i]))
	}
	return plan
}

func dashboardLoop(r *round, dur time.Duration) ([]outcome, float64) {
	plan := dashboardPlan(r.env.g, dashboardRate, dur)
	outs := openLoop(r.c, r.env.conns, plan, r.epoch)
	return outs, okRate(outs)
}

// okRate is OK operations per second between the first due time and the
// last completion.
func okRate(outs []outcome) float64 {
	if len(outs) == 0 {
		return 0
	}
	ok, first, last := 0, outs[0].due, time.Duration(0)
	for _, o := range outs {
		if o.ok() {
			ok++
		}
		if o.due < first {
			first = o.due
		}
		if o.done > last {
			last = o.done
		}
	}
	return float64(ok) / (last - first).Seconds()
}

// htapWriteRate is the writer's fixed schedule, in statements per second.
const htapWriteRate = 10

// htapLoop runs the writer's fixed schedule on one connection and the q6
// reader on another. The server never merges, so the delta grows on the
// schedule and is the same size at time t in every run.
func htapLoop(r *round, dur time.Duration) ([]outcome, float64) {
	g := r.env.g
	n := int(htapWriteRate * dur.Seconds())
	plan := make([]arrival, n)
	for i := range plan {
		plan[i].due = time.Duration(i) * time.Second / htapWriteRate
		switch {
		case i%20 == 9:
			plan[i].op = g.update()
		case i%20 == 19:
			plan[i].op = g.delete()
		default:
			plan[i].op = g.insert()
		}
	}
	writes := make(chan []outcome, 1)
	go func() { writes <- openLoop(r.c, 1, plan, r.epoch) }()
	reads, rate := closedLoop(r.c, 1, func(_, _ int) *op { return g.next("q6") }, r.epoch, dur)
	return append(reads, <-writes...), rate
}

// checkCount checks the round's whole write history: lineitem holds the
// base rows plus what the server acknowledged inserting minus what it
// acknowledged deleting.
func checkCount(r *round) {
	want := r.env.g.ora.LineitemRows
	for _, o := range r.main {
		switch {
		case !o.ok():
		case o.op.kind == "dml":
			want += o.rows
		case o.op.kind == "delete":
			want -= o.rows
		}
	}
	r.send(&op{kind: "check", path: queryPath(countSQL), wantRows: 1, firstCell: fmt.Sprint(want)})
}

// htapFinal checks that the Table-Task q6 agrees with the same query
// compiled from SQL over the same un-merged delta.
func htapFinal(r *round) {
	viaTask := r.send(&op{kind: "check", path: "/tpch?q=6", wantRows: 1})
	viaSQL := r.send(&op{kind: "check", path: queryPath(q6SQL), wantRows: 1})
	if viaTask.ok() && viaSQL.ok() && viaTask.first != viaSQL.first {
		r.other[len(r.other)-1].err = fmt.Errorf("check: /tpch?q=6 answered %s but the same query over /query answered %s",
			viaTask.first, viaSQL.first)
	}
}

// slowQueryFlag makes a traced server log every query's lifecycle line.
const slowQueryFlag = "1ns"

// startRound spawns a server for the workload and warms it up: the part
// of a round setup_s times. traced turns the server's slow-query log on.
func startRound(w *workload, e *env, traced bool) (*round, error) {
	r := &round{w: w, env: e}
	e.g.newRound()
	flags := serverFlags(e, w)
	if traced {
		r.slow = filepath.Join(outDir, "slow-"+w.name+".log")
		flags = append(flags, "-slow-query", slowQueryFlag, "-slow-query-log", r.slow)
	}
	srv, err := startServer(e.bins.serve, flags)
	if err != nil {
		return nil, err
	}
	r.srv, r.epoch = srv, srv.spawn
	r.c = newClient(srv.url, e.conns)
	w.warmup(r)
	r.setupS = time.Since(srv.spawn).Seconds()
	return r, nil
}

// measure drives the warmed server for dur and runs the checks that need
// the round's whole history. A traced round scrapes /metrics immediately
// before and after the window, never inside it.
func (r *round) measure(dur time.Duration) error {
	traced := r.slow != ""
	if traced {
		r.before = scrape(r.srv.url)
	}
	cpuBefore, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	r.mainFrom = time.Now()
	r.main, r.qps = r.w.window(r, dur)
	r.mainTo = time.Now()
	cpuAfter, err := r.srv.cpuSeconds()
	if err != nil {
		return err
	}
	ok := 0
	for _, o := range r.main {
		if o.ok() {
			ok++
		}
	}
	r.cpuMS = 1000 * ratio(cpuAfter-cpuBefore, float64(ok))
	if traced {
		r.after = scrape(r.srv.url)
	}
	checkCount(r)
	if r.w.final != nil {
		r.w.final(r)
	}
	return nil
}

// stop reads the server's memory high-water mark and ends the round with
// SIGTERM, which must drain and exit 0.
func (r *round) stop() error {
	r.c.close()
	rss, err := r.srv.peakRSSMB()
	r.rssMB = rss
	if serr := r.srv.stop(); serr != nil {
		return serr
	}
	return err
}

// runRound is one whole server lifetime around a window of dur.
func runRound(w *workload, e *env, dur time.Duration, traced bool) (*round, error) {
	r, err := startRound(w, e, traced)
	if err != nil {
		return nil, err
	}
	if err := r.measure(dur); err != nil {
		_ = r.stop()
		return nil, err
	}
	return r, r.stop()
}
