package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads_total", "dev", "0")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	// Same name+labels resolves to the same series regardless of label order.
	c2 := r.Counter("reads_total", "dev", "0")
	if c2 != c {
		t.Fatal("second resolution returned a different counter")
	}
	g := r.Gauge("depth")
	g.Set(10)
	g.Add(-3)
	g.SetMax(5) // below current: no-op
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
	g.SetMax(100)
	if g.Value() != 100 {
		t.Fatalf("gauge = %d, want 100", g.Value())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.Histogram("z").Observe(3)
	if s := r.Snapshot(); len(s.Points) != 0 {
		t.Fatalf("nil registry snapshot has %d points", len(s.Points))
	}
	var o *Observer
	o.Registry().Counter("x").Inc()
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", "b", "2", "a", "1")
	b := r.Counter("m", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()
	s := r.Snapshot()
	p, ok := s.Get("m", "a", "1", "b", "2")
	if !ok || p.Value != 1 {
		t.Fatalf("Get = %+v, %v", p, ok)
	}
	if p.Labels != `{a="1",b="2"}` {
		t.Fatalf("labels rendered %q", p.Labels)
	}
}

func TestKindConflictPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on kind conflict")
		}
	}()
	r := NewRegistry()
	r.Counter("m")
	r.Gauge("m")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot()
	p, ok := s.Get("lat")
	if !ok || p.Kind != KindHistogram {
		t.Fatalf("Get = %+v, %v", p, ok)
	}
	if p.Count != 6 || p.Sum != 1010 {
		t.Fatalf("count/sum = %d/%d", p.Count, p.Sum)
	}
	// v=0 -> le 0; v=1 -> le 1; v=2,3 -> le 3; v=4 -> le 7; v=1000 -> le 1023.
	want := []Bucket{{0, 1}, {1, 1}, {3, 2}, {7, 1}, {1023, 1}}
	if len(p.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", p.Buckets)
	}
	for i, b := range want {
		if p.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, p.Buckets[i], b)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	g := r.Gauge("g")
	h := r.Histogram("h")
	c.Add(10)
	g.Set(5)
	h.Observe(1)
	before := r.Snapshot()

	c.Add(7)
	g.Set(9)
	h.Observe(1)
	h.Observe(100)
	d := r.Snapshot().Delta(before)

	if p, _ := d.Get("n"); p.Value != 7 {
		t.Fatalf("counter delta = %d, want 7", p.Value)
	}
	if p, _ := d.Get("g"); p.Value != 9 {
		t.Fatalf("gauge in delta = %d, want current 9", p.Value)
	}
	p, _ := d.Get("h")
	if p.Count != 2 || p.Sum != 101 {
		t.Fatalf("hist delta count/sum = %d/%d", p.Count, p.Sum)
	}
	// le=1 gained one observation, le=127 is new; the pre-existing count
	// at le=1 must not reappear.
	want := []Bucket{{1, 1}, {127, 1}}
	for i, b := range want {
		if p.Buckets[i] != b {
			t.Fatalf("delta bucket %d = %+v, want %+v", i, p.Buckets[i], b)
		}
	}

	// New series after `before` pass through whole.
	r.Counter("late").Add(3)
	d = r.Snapshot().Delta(before)
	if p, _ := d.Get("late"); p.Value != 3 {
		t.Fatalf("new-series delta = %d, want 3", p.Value)
	}
}

func TestPrometheusRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("reads_total", "dev", "0").Add(2)
	r.Counter("reads_total", "dev", "1").Add(5)
	r.Gauge("depth").Set(-3)
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(2)
	out := r.Snapshot().Prometheus()

	for _, line := range []string{
		"# TYPE depth gauge",
		"depth -3",
		"# TYPE lat histogram",
		`lat_bucket{le="1"} 1`,
		`lat_bucket{le="3"} 2`, // cumulative
		`lat_bucket{le="+Inf"} 2`,
		"lat_sum 3",
		"lat_count 2",
		"# TYPE reads_total counter",
		`reads_total{dev="0"} 2`,
		`reads_total{dev="1"} 5`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Fatalf("prometheus output missing %q:\n%s", line, out)
		}
	}
	// One TYPE line per family, not per series.
	if strings.Count(out, "# TYPE reads_total") != 1 {
		t.Fatalf("duplicated TYPE line:\n%s", out)
	}
}

func TestExpvarRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "k", "v").Add(4)
	r.Histogram("h").Observe(9)
	out := r.Snapshot().Expvar()
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("expvar output is not JSON: %v\n%s", err, out)
	}
	if m[`c{k="v"}`] != float64(4) {
		t.Fatalf("expvar = %v", m)
	}
	hh, ok := m["h"].(map[string]any)
	if !ok || hh["count"] != float64(1) || hh["sum"] != float64(9) {
		t.Fatalf("expvar histogram = %v", m["h"])
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			h := r.Histogram("h")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				if i%100 == 0 {
					r.Snapshot() // concurrent reads must be safe
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if p, _ := s.Get("c"); p.Value != 8000 {
		t.Fatalf("counter = %d, want 8000", p.Value)
	}
	if p, _ := s.Get("h"); p.Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", p.Count)
	}
}
