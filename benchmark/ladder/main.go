// Command ladder is the in-process half of the benchmark: it times calls
// into each layer's exported functions on fixed inputs — the same SF 0.1
// lineitem columns the server under test generates from the same seed —
// on a single goroutine, and reports one median per rung. The rungs are
// what explain the end-to-end numbers: a gap between core.q6_mrows_per_s
// and the q6 rate over HTTP is server + sched + emit, a gap between
// tabletask.fused_q6 and core.q6 is compile + glue, and so on down.
//
// It is a package of its own, run as a separate process by the driver,
// so that an API break in a leaf package — which is exactly what this
// file pins — cannot take the end-to-end numbers down with it.
//
//	ladder -sf 0.1 -seed 42 -rung-ms 1000 > ladder.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// span is one interval of a decomposed query. Parent is the name of the
// span that caused it; spans of one query share the trace id.
type span struct {
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// rung is one measurement. run returns the value in the rung's unit.
type rung struct {
	name string
	unit string
	run  func(e *env) (float64, error)
}

// timer measures a function the way every rung does: at least minIters
// calls and at least rungTime of wall clock, median seconds per call. A
// rung whose single call takes seconds caps the count with maxIters.
type timer struct {
	rungTime time.Duration
	minIters int
	maxIters int
}

func (t timer) median(fn func() error) (float64, error) {
	return t.medianTimed(func() (time.Duration, error) {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	})
}

// medianTimed is median for rungs whose iteration has set-up the clock
// must not see; fn reports the timed part itself.
func (t timer) medianTimed(fn func() (time.Duration, error)) (float64, error) {
	var xs []float64
	for begin := time.Now(); (len(xs) < t.minIters || time.Since(begin) < t.rungTime) && len(xs) < t.maxIters; {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		xs = append(xs, d.Seconds())
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2], nil
	}
	return (xs[n/2-1] + xs[n/2]) / 2, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ladder: ")
	var (
		sf     = flag.Float64("sf", 0.1, "TPC-H scale factor")
		seed   = flag.Int64("seed", 42, "generator seed")
		rungMS = flag.Int("rung-ms", 1000, "minimum measured time per rung; 0 means one iteration per rung")
	)
	flag.Parse()
	// One goroutine does the measured work; a second P keeps the runtime's
	// own background work (GC, timers) off the measured one.
	runtime.GOMAXPROCS(2)

	e := &env{sf: *sf, seed: *seed, t: timer{time.Duration(*rungMS) * time.Millisecond, 10, 100000}}
	if *rungMS == 0 {
		e.t.minIters = 1
	}
	out := struct {
		Metrics map[string]metric `json:"metrics"`
		Spans   []span            `json:"spans"`
		Errors  []string          `json:"errors"`
	}{Metrics: map[string]metric{}, Errors: []string{}}

	for _, r := range rungs {
		v, err := safely(r, e)
		if err != nil {
			out.Errors = append(out.Errors, fmt.Sprintf("%s: %v", r.name, err))
			continue
		}
		out.Metrics[r.name] = metric{v, r.unit}
	}
	spans, err := decompose(e)
	if err != nil {
		out.Errors = append(out.Errors, fmt.Sprintf("spans: %v", err))
	}
	out.Spans = spans
	if err := json.NewEncoder(os.Stdout).Encode(&out); err != nil {
		log.Fatal(err)
	}
}

// safely turns a panic inside a rung — a leaf package rejecting the
// fixed input after an API change — into that rung's error.
func safely(r rung, e *env) (v float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return r.run(e)
}
