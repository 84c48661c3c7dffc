package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestLifecycleAddAndBreakdown(t *testing.T) {
	lc := NewLifecycle("q1")
	lc.Add(StateQueueWait, 3*time.Millisecond)
	lc.Add(StateDeviceRead, 5*time.Millisecond)
	lc.Add(StateDeviceRead, 2*time.Millisecond)
	lc.Add(StateRowSel, -1) // negative durations are dropped
	lc.Add(State(-1), time.Second)
	lc.Add(NumStates, time.Second)

	if got := lc.State(StateDeviceRead); got != 7*time.Millisecond {
		t.Fatalf("device_read = %v, want 7ms", got)
	}
	if got := lc.Attributed(); got != 10*time.Millisecond {
		t.Fatalf("attributed = %v, want 10ms", got)
	}
	b := lc.Breakdown()
	if len(b) != int(NumStates) {
		t.Fatalf("breakdown has %d keys, want %d (zero states must be present)", len(b), NumStates)
	}
	if b["queue_wait"] != int64(3*time.Millisecond) || b["rowsel"] != 0 {
		t.Fatalf("breakdown = %v", b)
	}
	for _, name := range StateNames() {
		if _, ok := b[name]; !ok {
			t.Fatalf("breakdown missing state %q", name)
		}
	}
}

// An exclusive region must not double-count time already attributed to a
// nested state inside its window: attributing 10ms of device_read inside
// a ~0ms exclusive host window leaves host at ~0. The 10ms exceeds the
// window's real elapsed time (the shape a concurrent cross-goroutine Add
// produces), so the excess is banked as debt and Attributed() tracks the
// real elapsed time, not the inflated state total.
func TestLifecycleExclusiveTimerExcludesNested(t *testing.T) {
	lc := NewLifecycle("q")
	end := lc.ExclusiveTimer(StateHost)
	lc.Add(StateDeviceRead, 10*time.Millisecond)
	end()
	if got := lc.State(StateDeviceRead); got != 10*time.Millisecond {
		t.Fatalf("device_read = %v, want 10ms before settle", got)
	}
	if host := lc.State(StateHost); host > time.Millisecond {
		t.Fatalf("host = %v, want ~0 (nested device_read must be excluded)", host)
	}
	if att := lc.Attributed(); att > time.Millisecond {
		t.Fatalf("attributed = %v, want ~0 (overcount inside the window is debt, not attribution)", att)
	}
}

func TestLifecycleInclusiveTimer(t *testing.T) {
	lc := NewLifecycle("q")
	end := lc.Timer(StateEmit)
	time.Sleep(2 * time.Millisecond)
	end()
	if got := lc.State(StateEmit); got < 2*time.Millisecond {
		t.Fatalf("emit = %v, want >= 2ms", got)
	}
}

func TestCursorMarkExcludesNestedAndSkips(t *testing.T) {
	lc := NewLifecycle("q")
	cu := lc.Cursor()
	lc.Add(StateCacheHit, 8*time.Millisecond)
	cu.Mark(StateRowSel)
	// The rowsel region is (real elapsed - 8ms), which is negative here:
	// rowsel stays 0 and the ~8ms of cache_hit that exceeds the region's
	// real elapsed time becomes debt, so Attributed() stays ~elapsed.
	if rs := lc.State(StateRowSel); rs > time.Millisecond {
		t.Fatalf("rowsel = %v, want ~0", rs)
	}
	if att := lc.Attributed(); att > time.Millisecond {
		t.Fatalf("attributed = %v, want ~0 (overcount inside the region is debt)", att)
	}

	// Mark re-anchors: a second region attributes only its own time.
	time.Sleep(2 * time.Millisecond)
	cu.Mark(StateRead)
	if rd := lc.State(StateRead); rd < 2*time.Millisecond {
		t.Fatalf("read = %v, want >= 2ms", rd)
	}

	// Skip advances without attributing.
	before := lc.Attributed()
	time.Sleep(2 * time.Millisecond)
	cu.Skip()
	if att := lc.Attributed(); att != before {
		t.Fatalf("Skip attributed %v", att-before)
	}
}

// Split charges one measured region to several states by sampled weights:
// the shares add up to the region exactly, follow the weights, and fall to
// the first state when nothing was sampled.
func TestCursorSplitDividesRegionByWeights(t *testing.T) {
	lc := NewLifecycle("q")
	cu := lc.Cursor()
	states := []State{StateRead, StateSystolic, StateSwissknife}
	time.Sleep(4 * time.Millisecond)
	cu.Split(states, []time.Duration{1, 2, 1})
	rd, sy, sk := lc.State(StateRead), lc.State(StateSystolic), lc.State(StateSwissknife)
	if total := rd + sy + sk; total < 4*time.Millisecond || total != lc.Attributed() {
		t.Fatalf("split %v+%v+%v, attributed %v, want the whole >= 4ms region", rd, sy, sk, lc.Attributed())
	}
	if sy < rd+sk-time.Microsecond || sy > rd+sk+time.Microsecond {
		t.Fatalf("systolic = %v, want half of the region (read %v, swissknife %v)", sy, rd, sk)
	}

	time.Sleep(2 * time.Millisecond)
	cu.Split(states, []time.Duration{0, 0, 0})
	if got := lc.State(StateRead) - rd; got < 2*time.Millisecond {
		t.Fatalf("unsampled region gave read %v, want >= 2ms", got)
	}
	if lc.State(StateSystolic) != sy || lc.State(StateSwissknife) != sk {
		t.Fatal("unsampled region leaked into the other states")
	}

	var none *Cursor
	none.Split(states, []time.Duration{1, 1, 1}) // a nil cursor no-ops
}

// A concurrent Add landing inside an exclusive window (a coalesced cache
// fill completing between Mark regions, a cluster worker attributing
// flash time while the coordinator holds a scatter-wait window) claims
// nanoseconds the window's own state would also claim. The window's
// negative remainder banks the overcount as debt instead of silently
// dropping it with nested left inflated, and Finish settles the debt by
// scaling states down — so the per-state breakdown never sums past wall.
func TestLifecycleConcurrentOverlapSettlesToWall(t *testing.T) {
	lc := NewLifecycle("q")
	end := lc.ExclusiveTimer(StateHost)
	time.Sleep(2 * time.Millisecond)
	// Simulate a cross-goroutine attribution far exceeding the window's
	// real elapsed time.
	lc.Add(StateCoalesceWait, 50*time.Millisecond)
	end()
	wall := lc.Finish()

	var sum time.Duration
	for _, ns := range lc.Breakdown() {
		sum += time.Duration(ns)
	}
	if sum > wall {
		t.Fatalf("Σstates = %v > wall %v after settle", sum, wall)
	}
	if cw := lc.State(StateCoalesceWait); cw >= 50*time.Millisecond {
		t.Fatalf("coalesce_wait = %v, want scaled below the raw 50ms", cw)
	}
	if att := lc.Attributed(); time.Duration(sum) > att {
		t.Fatalf("Σstates = %v > attributed %v after settle", sum, att)
	}
	if cov := lc.Coverage(); cov > 1.01 {
		t.Fatalf("coverage = %v, want <= ~1", cov)
	}
}

func TestLifecycleFinishAndCoverage(t *testing.T) {
	lc := NewLifecycle("q")
	time.Sleep(2 * time.Millisecond)
	lc.Add(StateHost, lc.Wall()) // attribute everything so far
	w1 := lc.Finish()
	time.Sleep(2 * time.Millisecond)
	if w2 := lc.Finish(); w2 != w1 {
		t.Fatalf("second Finish = %v, first = %v (wall must freeze)", w2, w1)
	}
	if lc.Wall() != w1 {
		t.Fatalf("Wall after Finish = %v, want %v", lc.Wall(), w1)
	}
	if cov := lc.Coverage(); cov <= 0.5 || cov > 1.1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestLifecycleNilSafety(t *testing.T) {
	var lc *Lifecycle
	lc.Add(StateHost, time.Second)
	lc.Timer(StateEmit)()
	lc.ExclusiveTimer(StateHost)()
	cu := lc.Cursor()
	cu.Mark(StateRowSel)
	cu.Skip()
	if lc.State(StateHost) != 0 || lc.Attributed() != 0 || lc.Finish() != 0 ||
		lc.Wall() != 0 || lc.Coverage() != 0 || lc.Breakdown() != nil {
		t.Fatal("nil lifecycle returned nonzero values")
	}
	lc.ObserveInto(NewRegistry())
}

func TestLifecycleContextRoundTrip(t *testing.T) {
	if LifecycleFrom(nil) != nil || LifecycleFrom(context.Background()) != nil {
		t.Fatal("LifecycleFrom invented a lifecycle")
	}
	lc := NewLifecycle("q")
	ctx := WithLifecycle(nil, lc)
	if LifecycleFrom(ctx) != lc {
		t.Fatal("round trip through nil parent failed")
	}
	ctx = WithLifecycle(context.Background(), lc)
	if LifecycleFrom(ctx) != lc {
		t.Fatal("round trip failed")
	}
	if got := WithLifecycle(ctx, nil); LifecycleFrom(got) != lc {
		t.Fatal("attaching nil lifecycle should keep the parent's")
	}
}

func TestLifecycleObserveInto(t *testing.T) {
	r := NewRegistry()
	lc := NewLifecycle("q")
	lc.Add(StateDeviceRead, 4*time.Millisecond)
	lc.ObserveInto(r)
	s := r.Snapshot()
	if p, ok := s.Get("query_latency_ns"); !ok || p.Count != 1 {
		t.Fatalf("query_latency_ns = %+v, %v", p, ok)
	}
	p, ok := s.Get("query_state_ns", "state", "device_read")
	if !ok || p.Sum != int64(4*time.Millisecond) {
		t.Fatalf("query_state_ns{state=device_read} = %+v, %v", p, ok)
	}
	if _, ok := s.Get("query_state_ns", "state", "rowsel"); ok {
		t.Fatal("zero state must not create a series")
	}
	if p, _ := s.Get("query_attributed_ns_total"); p.Value != int64(4*time.Millisecond) {
		t.Fatalf("query_attributed_ns_total = %d", p.Value)
	}
	if p, _ := s.Get("query_wall_ns_total"); p.Value <= 0 {
		t.Fatalf("query_wall_ns_total = %d", p.Value)
	}
}

// Sixteen goroutines hammering one lifecycle (the shape the flash layer
// produces when a query's pages are read by parallel stages) must lose
// nothing: run with -race this is the lifecycle's concurrency proof.
func TestLifecycleConcurrentAdds(t *testing.T) {
	lc := NewLifecycle("q")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := State(w % int(NumStates))
			for i := 0; i < perWorker; i++ {
				lc.Add(s, time.Microsecond)
				if i%100 == 0 {
					lc.Breakdown() // concurrent reads must be safe
					lc.Coverage()
				}
			}
		}(w)
	}
	wg.Wait()
	want := time.Duration(workers*perWorker) * time.Microsecond
	if got := lc.Attributed(); got != want {
		t.Fatalf("attributed = %v, want %v", got, want)
	}
	var sum int64
	for _, ns := range lc.Breakdown() {
		sum += ns
	}
	if time.Duration(sum) != want {
		t.Fatalf("breakdown sum = %v, want %v", time.Duration(sum), want)
	}
}

// Sixteen concurrent observers: the per-bucket counts must sum exactly
// to the total count, and a merge of per-goroutine histograms must equal
// the single shared histogram.
func TestHistogramConcurrentAndMerge(t *testing.T) {
	shared := NewRegistry()
	merged := NewRegistry()
	h := shared.Histogram("lat")
	parts := make([]*Registry, 16)
	var wg sync.WaitGroup
	for w := range parts {
		parts[w] = NewRegistry()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hw := parts[w].Histogram("lat")
			for i := 0; i < 2000; i++ {
				v := int64(w*2000 + i)
				h.Observe(v)
				hw.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	m := merged.Histogram("lat")
	for _, r := range parts {
		m.Merge(r.Histogram("lat"))
	}

	for _, name := range []string{"shared", "merged"} {
		s := shared.Snapshot()
		if name == "merged" {
			s = merged.Snapshot()
		}
		p, _ := s.Get("lat")
		if p.Count != 32000 {
			t.Fatalf("%s count = %d, want 32000", name, p.Count)
		}
		var sum int64
		for _, b := range p.Buckets {
			sum += b.Count
		}
		if sum != p.Count {
			t.Fatalf("%s buckets sum to %d, count is %d", name, sum, p.Count)
		}
	}
	sp, _ := shared.Snapshot().Get("lat")
	mp, _ := merged.Snapshot().Get("lat")
	if sp.Sum != mp.Sum || len(sp.Buckets) != len(mp.Buckets) {
		t.Fatalf("merged != serial: sum %d/%d, buckets %d/%d", sp.Sum, mp.Sum, len(sp.Buckets), len(mp.Buckets))
	}
	for i := range sp.Buckets {
		if sp.Buckets[i] != mp.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v != serial %+v", i, mp.Buckets[i], sp.Buckets[i])
		}
	}
}

func TestQuantileEstimates(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	p, _ := r.Snapshot().Get("lat")
	p50, p95, p99 := p.Quantile(0.5), p.Quantile(0.95), p.Quantile(0.99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Fatalf("quantiles not monotone: %g %g %g", p50, p95, p99)
	}
	// Uniform 1..1000: p50 lands in the (255, 511] bucket, p95/p99 in
	// (511, 1023]. Power-of-two buckets are coarse; just require the
	// interpolation to stay inside the right bucket.
	if p50 <= 255 || p50 > 511 {
		t.Fatalf("p50 = %g, want in (255, 511]", p50)
	}
	if p99 <= 511 || p99 > 1023 {
		t.Fatalf("p99 = %g, want in (511, 1023]", p99)
	}
	if (Point{}).Quantile(0.5) != 0 {
		t.Fatal("empty point quantile != 0")
	}
}

func TestEscapeLabelValue(t *testing.T) {
	for in, want := range map[string]string{
		`plain`:        `plain`,
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		"\\\"\n":       `\\\"\n`,
		`utf8 – fine™`: `utf8 – fine™`,
	} {
		if got := EscapeLabelValue(in); got != want {
			t.Fatalf("EscapeLabelValue(%q) = %q, want %q", in, got, want)
		}
	}
	r := NewRegistry()
	r.Counter("m", "q", "select \"x\"\nfrom t\\u").Inc()
	out := r.Snapshot().Prometheus()
	want := `m{q="select \"x\"\nfrom t\\u"} 1`
	if !strings.Contains(out, want+"\n") {
		t.Fatalf("prometheus output missing %q:\n%s", want, out)
	}
	if strings.Count(out, "\n") != strings.Count(out, "} 1\n")+strings.Count(out, "# TYPE m counter\n") {
		t.Fatalf("raw newline leaked into exposition:\n%q", out)
	}
}

// Every histogram family gets a derived summary sibling with quantile
// lines; duration-suffixed names export in seconds.
func TestPrometheusQuantileFamilies(t *testing.T) {
	r := NewRegistry()
	r.Histogram("query_latency_ns").Observe(int64(2 * time.Second))
	r.Histogram("resp_ms").Observe(1000)
	r.Histogram("batch_rows").Observe(64)
	out := r.Snapshot().Prometheus()
	for _, line := range []string{
		"# TYPE query_latency_ns histogram",
		"# TYPE query_latency_seconds summary",
		`query_latency_seconds{quantile="0.5"} `,
		`query_latency_seconds{quantile="0.95"} `,
		`query_latency_seconds{quantile="0.99"} `,
		"query_latency_seconds_count 1",
		"# TYPE resp_seconds summary",
		"resp_seconds_sum 1",
		"# TYPE batch_rows_quantiles summary",
		`batch_rows_quantiles{quantile="0.99"} `,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("prometheus output missing %q:\n%s", line, out)
		}
	}
	// The seconds values really are scaled: p50 of one 2s observation
	// must land within its power-of-two bucket, i.e. seconds not ns.
	var p50 float64
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, `query_latency_seconds{quantile="0.5"} `) {
			if _, err := fmt.Sscanf(l, `query_latency_seconds{quantile="0.5"} %g`, &p50); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p50 <= 0 || p50 > 4.3 {
		t.Fatalf("p50 = %g seconds, want in (0, 4.3]", p50)
	}
}
