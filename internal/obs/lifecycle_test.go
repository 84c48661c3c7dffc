package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// state reads one state's accumulated time.
func state(lc *Lifecycle, s State) time.Duration {
	return time.Duration(lc.Breakdown()[s.String()])
}

// sumStates is Σ over the named states of one recorder's breakdown.
func sumStates(lc *Lifecycle) time.Duration {
	var sum time.Duration
	for _, ns := range lc.Breakdown() {
		sum += time.Duration(ns)
	}
	return sum
}

func TestLifecycleAddAndBreakdown(t *testing.T) {
	lc := NewLifecycle("q1")
	r := lc.Begin(StateQueueWait)
	time.Sleep(time.Millisecond)
	r.End()
	for i := 0; i < 2; i++ { // regions of one state add up
		r = lc.Begin(StateDeviceRead)
		time.Sleep(time.Millisecond)
		r.End()
	}
	if got := state(lc, StateDeviceRead); got < 2*time.Millisecond {
		t.Fatalf("device_read = %v, want >= 2ms", got)
	}
	if got, want := lc.Attributed(), state(lc, StateQueueWait)+state(lc, StateDeviceRead); got != want {
		t.Fatalf("attributed = %v, want the two states' %v", got, want)
	}
	b := lc.Breakdown()
	if len(b) != int(NumStates) {
		t.Fatalf("breakdown has %d keys, want %d (zero states must be present)", len(b), NumStates)
	}
	if b["queue_wait"] < int64(time.Millisecond) || b["rowsel"] != 0 {
		t.Fatalf("breakdown = %v", b)
	}
	if State(-1).String() != "unknown" || NumStates.String() != "unknown" {
		t.Fatal("out-of-range states must not have a name")
	}
}

// The timeline rule: one state is current at a time, so a region's time
// excludes the regions nested inside it, time outside every region is
// unattributed, and after the holder's Finish the states and the
// unattributed remainder add up to the wall clock exactly — integer
// nanoseconds, no slack, nothing to settle.
func TestTimelineIsExactByConstruction(t *testing.T) {
	lc := NewLifecycle("q")
	time.Sleep(time.Millisecond) // nobody's
	host := lc.Begin(StateHost)
	time.Sleep(2 * time.Millisecond)
	rd := lc.Begin(StateDeviceRead)
	time.Sleep(5 * time.Millisecond)
	rd.End()
	host.End()
	time.Sleep(time.Millisecond) // nobody's
	wall := lc.Finish()

	if lc.Open() != 0 {
		t.Fatalf("open regions = %d", lc.Open())
	}
	if got := sumStates(lc) + lc.Unattributed(); got != wall {
		t.Fatalf("Σstates %v + unattributed %v = %v, want wall %v exactly", sumStates(lc), lc.Unattributed(), got, wall)
	}
	if h, d := state(lc, StateHost), state(lc, StateDeviceRead); d < 5*time.Millisecond || h < 2*time.Millisecond || h >= wall-d {
		t.Fatalf("host = %v, device_read = %v of wall %v: the nested read must not count as host", h, d, wall)
	}
	if u := lc.Unattributed(); u < 2*time.Millisecond {
		t.Fatalf("unattributed = %v, want the >= 2ms spent outside every region", u)
	}
	if cov := lc.Coverage(); cov <= 0.5 || cov >= 1 {
		t.Fatalf("coverage = %v, want the attributed share, below 1", cov)
	}
}

// A leaf region attributes its elapsed time to its state.
func TestLifecycleInclusiveTimer(t *testing.T) {
	lc := NewLifecycle("q")
	r := lc.Begin(StateEmit)
	time.Sleep(2 * time.Millisecond)
	r.End()
	if got := state(lc, StateEmit); got < 2*time.Millisecond {
		t.Fatalf("emit = %v, want >= 2ms", got)
	}
}

// EndSplit charges one measured region to several states by sampled
// weights: the shares add up to the region exactly, follow the weights, and
// fall to the first state when nothing was sampled.
func TestCursorSplitDividesRegionByWeights(t *testing.T) {
	lc := NewLifecycle("q")
	states := []State{StateRead, StateSystolic, StateSwissknife}
	r := lc.Begin(StateRead)
	time.Sleep(4 * time.Millisecond)
	r.EndSplit(states, []time.Duration{1, 2, 1})
	rd, sy, sk := state(lc, StateRead), state(lc, StateSystolic), state(lc, StateSwissknife)
	if total := rd + sy + sk; total < 4*time.Millisecond || total != lc.Attributed() {
		t.Fatalf("split %v+%v+%v, attributed %v, want the whole >= 4ms region", rd, sy, sk, lc.Attributed())
	}
	// (EndSplit's closing clock read leaves the region's own state a sliver.)
	if tol := (rd + sy + sk) / 100; sy < rd+sk-tol || sy > rd+sk+tol {
		t.Fatalf("systolic = %v, want half of the region (read %v, swissknife %v)", sy, rd, sk)
	}

	r = lc.Begin(StateRead)
	time.Sleep(2 * time.Millisecond)
	r.EndSplit(states, []time.Duration{0, 0, 0})
	if got := state(lc, StateRead) - rd; got < 2*time.Millisecond {
		t.Fatalf("unsampled region gave read %v, want >= 2ms", got)
	}
	if state(lc, StateSystolic) != sy || state(lc, StateSwissknife) != sk {
		t.Fatal("unsampled region leaked into the other states")
	}
	if lc.Open() != 0 {
		t.Fatalf("open regions = %d after EndSplit", lc.Open())
	}

	Region{}.EndSplit(states, []time.Duration{1, 1, 1}) // a nil recorder's region no-ops
}

// A fork is concurrency without repair: the shard's time lands in the
// fork, hangs under the parent, and never enters the parent's states —
// the parent's own timeline says it was waiting.
func TestForkTimeStaysOutOfParent(t *testing.T) {
	lc := NewLifecycle("q7")
	lc.Reg = NewRegistry()
	wait := lc.Begin(StateScatterWait)
	var wg sync.WaitGroup
	for d := 0; d < 2; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f := lc.Fork(fmt.Sprintf("shard %d", d), d+2)
			r := f.Begin(StateDeviceRead)
			time.Sleep(3 * time.Millisecond)
			r.End()
			f.Finish()
		}(d)
	}
	wg.Wait()
	wait.End()
	wall := lc.Finish()

	if got := state(lc, StateDeviceRead); got != 0 {
		t.Fatalf("parent device_read = %v: a fork's time leaked into the parent", got)
	}
	if sw := state(lc, StateScatterWait); sw < 3*time.Millisecond || sumStates(lc)+lc.Unattributed() != wall {
		t.Fatalf("parent scatter_wait = %v of wall %v (Σ %v)", sw, wall, sumStates(lc))
	}
	forks := lc.Forks()
	if len(forks) != 2 {
		t.Fatalf("forks = %d, want 2", len(forks))
	}
	for _, f := range forks {
		if f.ID != "q7" || f.Reg != lc.Reg || f.Name == "" {
			t.Fatalf("fork %+v must inherit the parent's ID and registry and carry its name", f)
		}
		if d := state(f, StateDeviceRead); d < 3*time.Millisecond || sumStates(f)+f.Unattributed() != f.Wall() {
			t.Fatalf("fork %s: device_read %v, Σ %v + %v, wall %v", f.Name, d, sumStates(f), f.Unattributed(), f.Wall())
		}
	}
}

// A handler that gives up on its query may Finish and log while the
// scheduler worker is still inside a region. The Finish must not touch the
// worker's cursor (run with -race), and nothing the worker attributes
// afterwards may push Σstates past the frozen wall.
func TestFinishRacingOpenRegion(t *testing.T) {
	lc := NewLifecycle("q")
	started, gaveUp, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() { // the worker
		defer close(done)
		host := lc.Begin(StateHost)
		close(started)
		<-gaveUp
		for i := 0; i < 3; i++ {
			r := lc.Begin(StateDeviceRead)
			time.Sleep(time.Millisecond)
			r.End()
		}
		host.End()
	}()
	<-started
	time.Sleep(time.Millisecond)
	wall := lc.Finish()
	lc.Breakdown() // the handler logs
	close(gaveUp)
	<-done
	if lc.Finish() != wall {
		t.Fatal("wall must stay frozen")
	}
	if sum := sumStates(lc) + lc.Unattributed(); sum > wall {
		t.Fatalf("Σstates %v > frozen wall %v", sum, wall)
	}
	if d := state(lc, StateDeviceRead); d != 0 {
		t.Fatalf("device_read = %v attributed after the wall froze", d)
	}
	if lc.Open() != 0 {
		t.Fatalf("open regions = %d", lc.Open())
	}
}

// The served configuration: a recorder nobody reads spans from. Regions —
// named or not — cost no allocation and build no label.
func TestRegionsAllocateNothingUnretained(t *testing.T) {
	lc := NewLifecycle("q")
	name := "u1:final"
	allocs := testing.AllocsPerRun(100, func() {
		task := lc.Begin(StateHost, "task", name)
		r := lc.Begin(StateDeviceRead)
		r.End()
		task.SetInt("rows_in", 1)
		task.EndSplit([]State{StateRead, StateSystolic}, []time.Duration{1, 1})
	})
	if allocs != 0 {
		t.Fatalf("unretained regions allocate %.1f times per run, want 0", allocs)
	}
}

func TestLifecycleFinishAndCoverage(t *testing.T) {
	lc := NewLifecycle("q")
	r := lc.Begin(StateHost)
	time.Sleep(2 * time.Millisecond)
	r.End()
	w1 := lc.Finish()
	time.Sleep(2 * time.Millisecond)
	if w2 := lc.Finish(); w2 != w1 {
		t.Fatalf("second Finish = %v, first = %v (wall must freeze)", w2, w1)
	}
	if lc.Wall() != w1 {
		t.Fatalf("Wall after Finish = %v, want %v", lc.Wall(), w1)
	}
	if cov := lc.Coverage(); cov <= 0.5 || cov > 1 {
		t.Fatalf("coverage = %v", cov)
	}
}

func TestLifecycleNilSafety(t *testing.T) {
	var lc *Lifecycle
	r := lc.Begin(StateHost, "query")
	r.SetInt("rows", 1)
	lc.Begin(StateEmit).End()
	r.EndSplit([]State{StateRead}, nil)
	lc.Retain()
	if f := lc.Fork("shard 0", 2); f != nil {
		t.Fatal("a nil recorder forked")
	}
	if lc.Registry() != nil || lc.Forks() != nil || lc.Spans() != nil || lc.Attributed() != 0 ||
		lc.Finish() != 0 || lc.Wall() != 0 || lc.Coverage() != 0 || lc.Breakdown() != nil {
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

	// Ensure keeps the caller's recorder, lending it a registry only when
	// it has none, and attaches a fresh one to a context without.
	reg := NewRegistry()
	if ctx2, got := Ensure(ctx, reg); got != lc || LifecycleFrom(ctx2) != lc || lc.Reg != reg {
		t.Fatal("Ensure must keep the context's recorder and lend it the registry")
	}
	if _, got := Ensure(ctx, NewRegistry()); got.Reg != reg {
		t.Fatal("Ensure replaced a registry the recorder already had")
	}
	ctx3, fresh := Ensure(nil, reg)
	if fresh == nil || fresh == lc || LifecycleFrom(ctx3) != fresh || fresh.Reg != reg {
		t.Fatal("Ensure must attach a fresh recorder to a context without one")
	}
}

func TestLifecycleObserveInto(t *testing.T) {
	r := NewRegistry()
	lc := NewLifecycle("q")
	rd := lc.Begin(StateDeviceRead)
	time.Sleep(time.Millisecond)
	rd.End()
	lc.ObserveInto(r)
	s := r.Snapshot()
	if p, ok := s.Get("query_latency_ns"); !ok || p.Count != 1 {
		t.Fatalf("query_latency_ns = %+v, %v", p, ok)
	}
	p, ok := s.Get("query_state_ns", "state", "device_read")
	if !ok || p.Sum != int64(state(lc, StateDeviceRead)) || p.Sum < int64(time.Millisecond) {
		t.Fatalf("query_state_ns{state=device_read} = %+v, %v", p, ok)
	}
	if _, ok := s.Get("query_state_ns", "state", "rowsel"); ok {
		t.Fatal("zero state must not create a series")
	}
	if p, _ := s.Get("query_attributed_ns_total"); p.Value != int64(lc.Attributed()) {
		t.Fatalf("query_attributed_ns_total = %d", p.Value)
	}
	if p, _ := s.Get("query_wall_ns_total"); p.Value < int64(lc.Attributed()) {
		t.Fatalf("query_wall_ns_total = %d below attributed %v", p.Value, lc.Attributed())
	}
}

// Sixteen goroutines working beside one query (the shape a scatter
// produces) each record into their own fork while a reader polls the
// parent and the forks: run with -race this is the recorder's concurrency
// proof, and every fork must come out exact.
func TestLifecycleConcurrentAdds(t *testing.T) {
	lc := NewLifecycle("q")
	wait := lc.Begin(StateScatterWait)
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := lc.Fork(fmt.Sprintf("w%d", w), w+2)
			s := State(w % int(NumStates))
			for i := 0; i < perWorker; i++ {
				f.Begin(s).End()
				if i%100 == 0 { // concurrent reads must be safe
					lc.Breakdown()
					lc.Coverage()
					for _, o := range lc.Forks() {
						o.Breakdown()
					}
				}
			}
			f.Finish()
		}(w)
	}
	wg.Wait()
	wait.End()
	lc.Finish()
	if forks := lc.Forks(); len(forks) != workers {
		t.Fatalf("forks = %d, want %d", len(forks), workers)
	}
	for _, f := range lc.Forks() {
		if got := sumStates(f) + f.Unattributed(); got != f.Wall() || f.Open() != 0 {
			t.Fatalf("fork %s: Σstates+unattributed = %v, wall %v, open %d", f.Name, got, f.Wall(), f.Open())
		}
	}
	if got := sumStates(lc); got != state(lc, StateScatterWait) {
		t.Fatalf("parent Σstates = %v, want only its scatter_wait %v", got, state(lc, StateScatterWait))
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
