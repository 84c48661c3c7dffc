package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"time"
)

// ladderResult is what the ladder process prints: its per-layer rungs and
// the spans of its decomposed queries.
type ladderResult struct {
	Metrics map[string]metric `json:"metrics"`
	Spans   json.RawMessage   `json:"spans"`
	Errors  []string          `json:"errors"`
}

// runLadder runs the in-process layer ladder as a separate process. It is
// a separate package so that an API break in a leaf package, which is
// what the ladder pins, cannot take the end-to-end numbers down with it.
func runLadder(e *env, opt options) (*ladderResult, error) {
	if e.bins.ladder == "" {
		return nil, errors.New("the ladder did not build")
	}
	args := []string{"-sf", fmt.Sprint(e.sf), "-seed", fmt.Sprint(e.seed), "-rung-ms", fmt.Sprint(opt.rungMS)}
	cmd := exec.Command(e.bins.ladder, args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("ladder process: %v", err)
	}
	var lad ladderResult
	if err := json.Unmarshal(raw, &lad); err != nil {
		return nil, fmt.Errorf("ladder output: %v", err)
	}
	if len(lad.Errors) > 0 {
		return &lad, fmt.Errorf("ladder rungs failed: %v", lad.Errors)
	}
	return &lad, nil
}

// sweepRates are the fixed arrival rates of the rate sweep, in req/s.
var sweepRates = []int{40, 80, 160}

// sweepLimitMS is the latency limit of the sweep: a rate is sustained
// when the tail of the point statements stays under it, nothing fails
// and no backlog is still growing when the window closes.
const sweepLimitMS = 50

// sweepResult is the rate sweep of dashboard_mix.
type sweepResult struct {
	tailMS    map[int]float64
	tailLabel map[int]string
	okRPS     float64
	firstQ1   float64 // ms: the first q1 a fresh server answers, before any warm-up
	attempted int
	failed    int
}

// runSweep offers the dashboard mix at each fixed rate to one server and
// reports the point-latency tail at each, plus the highest rate that met
// the limit. It is informational: tails did not repeat well enough on the
// sizing box to be gated.
func runSweep(e *env, opt options) (*sweepResult, error) {
	w := workloadByName("dashboard_mix")
	if err := e.generator(); err != nil {
		return nil, err
	}
	e.g.newRound()
	srv, err := startServer(e.bins.serve, serverFlags(e, w))
	if err != nil {
		return nil, err
	}
	r := &round{w: w, env: e, srv: srv, epoch: srv.spawn, c: newClient(srv.url, e.conns)}
	sw := &sweepResult{tailMS: map[int]float64{}, tailLabel: map[int]string{}}
	if out := r.send(e.g.next("q1")); out.ok() {
		sw.firstQ1 = float64(out.done-out.sent) / float64(time.Millisecond)
	}
	w.warmup(r)
	dur := time.Duration(opt.seconds / 4 * float64(time.Second))
	for _, rate := range sweepRates {
		outs := openLoop(r.c, e.conns, dashboardPlan(e.g, float64(rate), dur), r.epoch)
		// A backlog that is still growing shows as ops of the last quarter
		// of the window typically waiting for a connection past the limit.
		var point, lateEnd []float64
		failed := 0
		for i, o := range outs {
			sw.attempted++
			if !o.ok() {
				failed++
				// An op abandoned at a rate the server cannot sustain is the
				// sweep's finding, not a wrong answer.
				if o.err != errBacklog {
					sw.failed++
				}
				continue
			}
			if o.op.kind == "point" {
				point = append(point, o.latencyMS())
			}
			if i >= len(outs)*3/4 {
				lateEnd = append(lateEnd, float64(o.sent-o.due)/float64(time.Millisecond))
			}
		}
		sw.tailLabel[rate], sw.tailMS[rate] = tail(point)
		if failed == 0 && sw.tailMS[rate] <= sweepLimitMS && median(lateEnd) <= sweepLimitMS {
			sw.okRPS = float64(rate)
		}
	}
	for _, o := range r.other {
		sw.attempted++
		if !o.ok() {
			sw.failed++
		}
	}
	return sw, r.stop()
}

// runTraced produces the per-layer metrics of one workload from two
// rounds of half of opt.seconds each. The first is untraced and the
// second runs the same load against a server that logs every query's
// lifecycle line; the driver records its own span per request and scrapes
// /metrics before and after the traced window. lad and sw are shared
// across workloads by a reference run and measured here when nil.
func runTraced(e *env, w *workload, opt options, lad *ladderResult, sw *sweepResult) (*result, error) {
	res := &result{Metrics: map[string]metric{}, notes: map[string]string{}}
	var err error
	if lad == nil {
		if lad, err = runLadder(e, opt); err != nil {
			res.failures = append(res.failures, err.Error())
			res.Failed++
		}
	}
	if sw == nil {
		if sw, err = runSweep(e, opt); err != nil {
			return nil, fmt.Errorf("rate sweep: %v", err)
		}
		res.Attempted += sw.attempted
		res.Failed += sw.failed
	}
	if err := e.generator(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	perRound := time.Duration(opt.seconds / 2 * float64(time.Second))
	plain, err := runRound(w, e, perRound, false)
	if err != nil {
		return nil, err
	}
	traced, err := runRound(w, e, perRound, true)
	if err != nil {
		return nil, err
	}
	for _, r := range []*round{plain, traced} {
		res.count(r.main)
		res.count(r.other)
	}

	if lad != nil {
		for n, m := range lad.Metrics {
			res.Metrics[n] = m
		}
	}

	// The slow-query log: share of summed query wall time per state.
	lines, err := readSlowLog(traced.slow, traced.mainFrom, traced.mainTo)
	if err != nil {
		return nil, fmt.Errorf("slow-query log: %v", err)
	}
	pct, coverage, byLabel := lifecycle(lines)
	for _, s := range lifecycleStates {
		res.Metrics["lifecycle."+s+"_pct"] = metric{pct[s], "%"}
	}
	res.Metrics["obs.lifecycle_coverage"] = metric{coverage, "ratio"}
	res.notes["obs.lifecycle_coverage"] = fmt.Sprintf("%d slow-query lines in the traced window", len(lines))

	// /metrics deltas across the traced window, per query of that window.
	queries := 0.0
	for _, o := range traced.main {
		if o.ok() && o.op.body == nil {
			queries++
		}
	}
	b, a := traced.before, traced.after
	hits, misses := delta(b, a, "sched_cache_hits_total"), delta(b, a, "sched_cache_misses_total")
	rhits, rmisses := delta(b, a, "sched_result_cache_hits_total"), delta(b, a, "sched_result_cache_misses_total")
	res.Metrics["flash.device_pages_per_query"] = metric{ratio(delta(b, a, "flash_pages_read_total"), queries), "pages"}
	res.Metrics["sched.cache_hit_rate"] = metric{ratio(hits, hits+misses), "ratio"}
	res.Metrics["sched.result_cache_hit_rate"] = metric{ratio(rhits, rhits+rmisses), "ratio"}
	res.Metrics["enc.pages_pruned_per_query"] = metric{ratio(delta(b, a, "enc_pages_pruned_total"), queries), "pages"}

	// Medians and tails of both windows by op kind, and how late the
	// generator fired. A kind the workload does not send reads 0.
	lat := latencies(plain, traced)
	var late []float64
	for _, r := range []*round{plain, traced} {
		for _, o := range r.main {
			late = append(late, float64(o.sent-o.due)/float64(time.Microsecond))
		}
	}
	for _, k := range opKinds {
		p50, label, v, note := 0.0, "", 0.0, "not sent by this workload"
		if len(lat[k]) > 0 {
			p50 = median(lat[k])
			label, v = tail(lat[k])
			note = fmt.Sprintf("n=%d %s", len(lat[k]), label)
		}
		res.Metrics["server."+k+"_p50_ms"] = metric{p50, "ms"}
		res.Metrics["server."+k+"_tail_ms"] = metric{v, "ms"}
		res.notes["server."+k+"_tail_ms"] = note
	}
	res.Metrics["server.cpu_ms_per_op"] = metric{plain.cpuMS, "ms"}
	res.Metrics["server.gen_late_p99_us"] = metric{quantile(sorted(late), 0.99), "us"}
	res.Metrics["server.first_q1_ms"] = metric{sw.firstQ1, "ms"}
	for _, rate := range sweepRates {
		name := fmt.Sprintf("server.rate%d_tail_ms", rate)
		res.Metrics[name] = metric{sw.tailMS[rate], "ms"}
		res.notes[name] = "point statements, " + sw.tailLabel[rate]
	}
	res.Metrics["server.rate_ok_rps"] = metric{sw.okRPS, "1/s"}
	res.notes["server.rate_ok_rps"] = fmt.Sprintf("highest swept rate with point tail <= %d ms and no backlog", sweepLimitMS)

	// Tracing overhead: q6_p50_ms of the traced round against the untraced
	// round of the same run.
	q6 := func(r *round) float64 { return median(latencies(r)[w.q6]) }
	res.Metrics["obs.trace_overhead_pct"] = metric{100 * (ratio(q6(traced), q6(plain)) - 1), "%"}

	tf := &traceFile{Workload: w.name, Seed: e.seed, Note: joinNote, ServerByLabel: byLabel}
	tf.ClientSpans = spansOf(w.name, traced.main)
	if lad != nil {
		tf.LadderSpans = lad.Spans
	}
	path, err := writeTrace(tf)
	if err != nil {
		return nil, err
	}
	fmt.Printf("   spans: %s (%s)\n", path, joinNote)
	res.Correct = res.Failed == 0
	return res, nil
}
