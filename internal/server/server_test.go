package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"aquoman"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
)

var (
	dbOnce sync.Once
	testDB *aquoman.DB
)

// sharedDB is a small TPC-H instance reused across tests (generation
// dominates test time). Tests that mutate device latency restore it.
func sharedDB(t *testing.T) *aquoman.DB {
	t.Helper()
	dbOnce.Do(func() {
		testDB = aquoman.Open()
		if err := testDB.LoadTPCH(0.005, 1); err != nil {
			t.Fatalf("LoadTPCH: %v", err)
		}
		testDB.EnableObservability()
		testDB.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 2, QueueDepth: 4})
	})
	return testDB
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DB == nil {
		cfg.DB = sharedDB(t)
	}
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// parkReads makes every device read of db block until the returned gate is
// released (at the latest when the test ends): a query that reaches its
// first page stays mid-scan, deterministically, for as long as the test
// needs it to be slow.
func parkReads(t *testing.T, db *aquoman.DB) *faults.Gate {
	t.Helper()
	gate := faults.NewGate()
	gate.Install(db.Flash)
	t.Cleanup(gate.Release)
	return gate
}

// awaitParked waits until a query is parked at the gate.
func awaitParked(t *testing.T, gate *faults.Gate) {
	t.Helper()
	select {
	case <-gate.Entered():
	case <-time.After(5 * time.Second):
		t.Fatal("no query reached the device")
	}
}

// parkReadsFor holds the first query to reach the device mid-scan for d,
// a multiple of the deadline under test (see faults.Gate.ReleaseAfter).
func parkReadsFor(t *testing.T, db *aquoman.DB, d time.Duration) {
	t.Helper()
	parkReads(t, db).ReleaseAfter(d)
}

// ndjson splits a response body into decoded JSON lines.
func ndjson(t *testing.T, body io.Reader) []map[string]interface{} {
	t.Helper()
	var out []map[string]interface{}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			// Row lines are arrays; wrap them.
			var arr []interface{}
			if err2 := json.Unmarshal([]byte(line), &arr); err2 != nil {
				t.Fatalf("bad NDJSON line %q: %v", line, err)
			}
			m = map[string]interface{}{"_row": arr}
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQueryNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(
		"select count(*) as n from lineitem", " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/x-ndjson") {
		t.Fatalf("content-type %q", ct)
	}
	lines := ndjson(t, resp.Body)
	if len(lines) != 3 { // header, one row, trailer
		t.Fatalf("got %d NDJSON lines, want 3: %v", len(lines), lines)
	}
	schema := lines[0]["schema"].([]interface{})
	if f := schema[0].(map[string]interface{}); f["name"] != "n" {
		t.Fatalf("schema %v", schema)
	}
	want, err := sharedDB(t).Query("select count(*) as n from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	got := lines[1]["_row"].([]interface{})[0].(float64)
	if int64(got) != want.Batch.Cols[0][0] {
		t.Fatalf("count = %v, want %d", got, want.Batch.Cols[0][0])
	}
	trailer := lines[2]
	if trailer["done"] != true || trailer["rows"].(float64) != 1 {
		t.Fatalf("trailer %v", trailer)
	}
}

func TestQueryPost(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"sql": "select count(*) as n from orders", "timeout_ms": 30000}`
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	lines := ndjson(t, resp.Body)
	if lines[len(lines)-1]["done"] != true {
		t.Fatalf("missing done trailer: %v", lines)
	}
}

func TestBadSQLIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?q=selectt+nonsense")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("error body: %v, %v", e, err)
	}
}

func TestMissingSQLIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestTPCHEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/tpch?q=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	lines := ndjson(t, resp.Body)
	if lines[len(lines)-1]["done"] != true {
		t.Fatalf("missing done trailer")
	}

	resp, err = http.Get(ts.URL + "/tpch?q=99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("q=99 status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != 200 || h["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, h)
	}

	resp, err = http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(b), "/query") {
		t.Fatalf("index = %d %s", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate one request so the server counters exist.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"server_requests_total", "sched_inflight"} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %s:\n%s", want, b)
		}
	}
}

// TestQueueFull503 fills every scheduler slot and the whole queue with
// slow queries, then asserts the next request is shed with 503 +
// Retry-After instead of queueing unboundedly.
func TestQueueFull503(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 1, QueueDepth: 1})
	defer db.Close()
	gate := parkReads(t, db) // queries stay mid-scan until the test is done with them
	_, ts := newTestServer(t, Config{DB: db})

	// Occupy the slot and the queue directly through the scheduler so the
	// occupancy is deterministic before the HTTP request fires: submit one
	// query, wait for it to hold the in-flight slot, then fill the queue.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	submit := func() *aquoman.Ticket {
		p, err := aquoman.TPCHQuery(6)
		if err != nil {
			t.Fatal(err)
		}
		tk, err := db.SubmitCtx(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	tickets := []*aquoman.Ticket{submit()}
	awaitParked(t, gate)
	if v := o.Reg.Gauge("sched_inflight").Value(); v != 1 {
		t.Fatalf("sched_inflight = %d with one query mid-scan", v)
	}
	tickets = append(tickets, submit())

	resp, err := http.Get(ts.URL + "/tpch?q=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	cancel()
	gate.Release()
	for _, tk := range tickets {
		_, _ = tk.Wait()
	}
}

// TestCancelFreesSchedulerSlot is the end-to-end cancellation assertion:
// a client that disconnects mid-flight frees its scheduler slot (the
// sched_inflight gauge returns to 0) and the query's simulated flash
// traffic stops growing.
func TestCancelFreesSchedulerSlot(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.01, 7); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 1, QueueDepth: 4})
	defer db.Close()
	// The query parks on its first device read, so the cancel lands
	// mid-scan by construction.
	gate := parkReads(t, db)
	_, ts := newTestServer(t, Config{DB: db})

	inflight := o.Reg.Gauge("sched_inflight")

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/tpch?q=6", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	awaitParked(t, gate)
	if v := inflight.Value(); v != 1 {
		t.Fatalf("sched_inflight = %d with the query mid-scan", v)
	}

	cancel() // client disconnects mid-query
	<-done
	gate.Release() // the read in flight completes; the scan must not go on

	// The slot must free up promptly (not after the time the full query
	// would have taken).
	deadline := time.Now().Add(2 * time.Second)
	for inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sched_inflight stuck at %d after client cancel", inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}

	// And the cancelled query must stop consuming flash bandwidth.
	s1 := db.FlashStats().PagesRead[flash.Aquoman]
	time.Sleep(50 * time.Millisecond)
	if s2 := db.FlashStats().PagesRead[flash.Aquoman]; s2 != s1 {
		t.Fatalf("flash traffic still growing after cancel: %d -> %d", s1, s2)
	}
}

// TestDeadline504 verifies the server's per-request deadline surfaces as
// 504 Gateway Timeout.
func TestDeadline504(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 1, QueueDepth: 1})
	defer db.Close()
	parkReadsFor(t, db, 50*time.Millisecond) // ten deadlines
	_, ts := newTestServer(t, Config{DB: db})

	resp, err := http.Get(ts.URL + "/tpch?q=6&timeout_ms=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, b)
	}
}

// TestMaxTimeoutCaps verifies the server clamps client deadlines to
// MaxTimeout.
func TestMaxTimeoutCaps(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 1, QueueDepth: 1})
	defer db.Close()
	parkReadsFor(t, db, 50*time.Millisecond) // ten caps
	_, ts := newTestServer(t, Config{DB: db, MaxTimeout: 5 * time.Millisecond})

	// The client asks for a minute; the cap must fire within the test.
	resp, err := http.Get(ts.URL + "/tpch?q=6&timeout_ms=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (MaxTimeout cap)", resp.StatusCode)
	}
}

// TestDrain verifies drain mode: queries and health checks flip to 503,
// in-flight requests finish, and Drain returns.
func TestDrain(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	db.ConfigureScheduler(aquoman.SchedulerConfig{MaxInFlight: 2, QueueDepth: 2})
	defer db.Close()
	s, ts := newTestServer(t, Config{DB: db})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	resp, err := http.Get(ts.URL + "/tpch?q=6")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h["status"] != "draining" {
		t.Fatalf("healthz while draining = %d %v", resp.StatusCode, h)
	}
}

// TestStreamChunks checks a multi-row result streams complete NDJSON with
// a correct row count.
func TestStreamChunks(t *testing.T) {
	_, ts := newTestServer(t, Config{ChunkRows: 8})
	q := "select l_orderkey, l_quantity from lineitem where l_quantity < 10"
	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(q, " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	lines := ndjson(t, resp.Body)
	trailer := lines[len(lines)-1]
	if trailer["done"] != true {
		t.Fatalf("missing done trailer: %v", trailer)
	}
	rows := int(trailer["rows"].(float64))
	if got := len(lines) - 2; got != rows {
		t.Fatalf("streamed %d rows, trailer says %d", got, rows)
	}
	want, err := sharedDB(t).Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows != want.NumRows() {
		t.Fatalf("rows = %d, want %d", rows, want.NumRows())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /query = %d, want 405", resp.StatusCode)
	}
}

// A query slower than the threshold must produce one JSON slow-query
// line with its lifecycle breakdown; the states must explain most of
// the logged wall time.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{
		SlowQueryThreshold: time.Nanosecond, // every query is "slow"
		SlowQueryLog:       &buf,
	})
	resp, err := http.Get(ts.URL + "/query?q=" + strings.ReplaceAll(
		"select count(*) as n from lineitem", " ", "+"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	line := strings.TrimSpace(buf.String())
	if line == "" {
		t.Fatal("no slow-query line logged")
	}
	var rec struct {
		ID       string             `json:"id"`
		Query    string             `json:"query"`
		WallMS   float64            `json:"wall_ms"`
		Coverage float64            `json:"coverage"`
		StatesMS map[string]float64 `json:"states_ms"`
	}
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("slow-query line is not JSON: %v\n%s", err, line)
	}
	if rec.ID == "" || !strings.Contains(rec.Query, "lineitem") || rec.WallMS <= 0 {
		t.Fatalf("slow-query record %+v", rec)
	}
	if rec.Coverage < 0.5 {
		t.Fatalf("coverage %.2f, want >= 0.5", rec.Coverage)
	}
	if len(rec.StatesMS) == 0 {
		t.Fatalf("states_ms empty: %s", line)
	}
	for name, ms := range rec.StatesMS {
		if ms <= 0 {
			t.Fatalf("state %s = %g ms, zero states must be omitted", name, ms)
		}
	}

	// Queries under the threshold stay silent.
	buf.Reset()
	_, ts2 := newTestServer(t, Config{
		SlowQueryThreshold: time.Hour,
		SlowQueryLog:       &buf,
	})
	resp, err = http.Get(ts2.URL + "/query?q=select+count(*)+as+n+from+region")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := buf.String(); got != "" {
		t.Fatalf("fast query logged: %s", got)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer: the server writes slow
// lines from request goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *syncBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

func TestPprofEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(strings.ToLower(string(b)), "profile") {
		t.Fatalf("pprof index: status %d body %.120s", resp.StatusCode, b)
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof cmdline: status %d", resp.StatusCode)
	}
}

// After a query has run, /metrics must export the derived latency
// summary (quantiles in seconds) and the scheduler queue telemetry.
func TestMetricsQueryLatencyQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/query?q=select+count(*)+as+n+from+region")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"# TYPE query_latency_ns histogram",
		"# TYPE query_latency_seconds summary",
		`query_latency_seconds{quantile="0.5"} `,
		"query_state_ns_bucket",
		"sched_queue_depth",
		"sched_queue_wait_ns_count",
		"query_wall_ns_total",
		"query_attributed_ns_total",
	} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestTenantQuota429 drives a tenant past its own admission quota and
// asserts the shed is 429 + Retry-After (a per-tenant "slow down", not
// the 503 that means the whole server is overloaded), while another
// tenant is still admitted.
func TestTenantQuota429(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{
		MaxInFlight: 1, QueueDepth: 8,
		Tenants: map[string]aquoman.TenantConfig{
			"alpha": {Weight: 1, MaxQueued: 1},
		},
	})
	defer db.Close()
	gate := parkReads(t, db)
	_, ts := newTestServer(t, Config{DB: db})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p, err := aquoman.TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only slot (in-flight work does not count against the
	// queued quota), then fill alpha's one queued slot.
	tk1, err := db.SubmitTenantCtx(ctx, "alpha", aquoman.LaneBatch, p)
	if err != nil {
		t.Fatal(err)
	}
	awaitParked(t, gate)
	tk2, err := db.SubmitTenantCtx(ctx, "alpha", aquoman.LaneBatch, p)
	if err != nil {
		t.Fatal(err)
	}

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/tpch?q=6", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "quota") {
		t.Fatalf("429 body should name the quota: %s", body)
	}
	if n := o.Reg.Counter("sched_tenant_rejected_total", "tenant", "alpha").Value(); n < 1 {
		t.Fatalf("sched_tenant_rejected_total{tenant=alpha} = %d, want >= 1", n)
	}

	// A different tenant is not throttled by alpha's quota.
	tk3, err := db.SubmitTenantCtx(ctx, "beta", aquoman.LaneInteractive, p)
	if err != nil {
		t.Fatalf("beta rejected alongside alpha's quota: %v", err)
	}
	cancel()
	gate.Release()
	for _, tk := range []*aquoman.Ticket{tk1, tk2, tk3} {
		_, _ = tk.Wait()
	}
}

// TestResultCacheHitServesIdenticalRows runs the same statement three
// times (verbatim, then a whitespace/case variant) against a server
// with the result cache on: the streamed header and row lines must be
// byte-identical across hit and miss, the cache must report the hits,
// and the lifecycle attribution must surface the result_cache_hit state
// on /metrics.
func TestResultCacheHitServesIdenticalRows(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{
		MaxInFlight: 2, QueueDepth: 8,
		Tenants: map[string]aquoman.TenantConfig{},
	})
	db.EnableResultCache(1<<20, 0)
	defer db.Close()
	_, ts := newTestServer(t, Config{DB: db})

	get := func(q string) []string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q) + "&tenant=beta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, b)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		// Drop the trailer: its elapsed_ms varies per request by design.
		return lines[:len(lines)-1]
	}
	const q = "select count(*) as n from lineitem where l_quantity < 24"
	first := get(q)
	second := get(q)
	variant := get("SELECT COUNT(*) AS n FROM lineitem WHERE  l_quantity<24")
	if strings.Join(first, "\n") != strings.Join(second, "\n") {
		t.Fatalf("cache hit not byte-identical:\n%v\nvs\n%v", first, second)
	}
	if strings.Join(first, "\n") != strings.Join(variant, "\n") {
		t.Fatalf("canonicalized variant not byte-identical:\n%v\nvs\n%v", first, variant)
	}
	st := db.ResultCacheStats()
	if st.Hits < 2 || st.Misses < 1 {
		t.Fatalf("cache stats = %+v, want >=2 hits over 1 miss", st)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`state="result_cache_hit"`,
		"sched_result_cache_hits_total",
		`tenant="beta"`,
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestDMLEndpoint drives the full HTAP loop over HTTP: CREATE TABLE,
// INSERT, SELECT of the un-merged tail, UPDATE, and the error surface
// (compile 400, epoch precondition 409, method 405).
func TestDMLEndpoint(t *testing.T) {
	db := aquoman.Open()
	defer db.Close()
	_, ts := newTestServer(t, Config{DB: db})

	post := func(body, query string) (int, map[string]interface{}) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/dml"+query, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("bad /dml response: %v", err)
		}
		return resp.StatusCode, m
	}

	if code, m := post(`{"sql": "CREATE TABLE kv (k int, v int64)"}`, ""); code != 200 || m["op"] != "create" {
		t.Fatalf("create: %d %v", code, m)
	}
	code, m := post(`{"sql": "INSERT INTO kv (k, v) VALUES (1, 10), (2, 20)"}`, "")
	if code != 200 || m["rows_affected"].(float64) != 2 {
		t.Fatalf("insert: %d %v", code, m)
	}
	epoch := uint64(m["epoch"].(float64))

	// The tail rows are visible to queries before any merge.
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape("select sum(v) as s from kv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := ndjson(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query after insert: %d %v", resp.StatusCode, lines)
	}
	if got := lines[1]["_row"].([]interface{})[0].(float64); got != 30 {
		t.Fatalf("sum(v) = %v, want 30", got)
	}

	// Epoch precondition: stale → 409 carrying the current epoch.
	if code, m := post(`{"sql": "DELETE FROM kv"}`, "?ifepoch=999999"); code != http.StatusConflict || uint64(m["epoch"].(float64)) != epoch {
		t.Fatalf("stale ifepoch: %d %v (want 409 @ epoch %d)", code, m, epoch)
	}
	// Matching precondition succeeds.
	if code, m := post(`{"sql": "UPDATE kv SET v = v + 1 WHERE k = 1"}`, fmt.Sprintf("?ifepoch=%d", epoch)); code != 200 || m["rows_affected"].(float64) != 1 {
		t.Fatalf("update: %d %v", code, m)
	}

	if code, m := post(`{"sql": "INSERT INTO nosuch VALUES (1)"}`, ""); code != http.StatusBadRequest {
		t.Fatalf("bad table: %d %v", code, m)
	}
	resp, err = http.Get(ts.URL + "/dml")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /dml = %d, want 405", resp.StatusCode)
	}
}
