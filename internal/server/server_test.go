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
	"aquoman/internal/cluster"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
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

// latencyCount sums the observations of the per-tenant query_latency_ns
// series (the unlabeled series counts every query once more).
func latencyCount(o *aquoman.Observer) int64 {
	var n int64
	for _, p := range o.Reg.Snapshot().Points {
		if p.Name == "query_latency_ns" && p.Labels != "" {
			n += p.Count
		}
	}
	return n
}

// awaitIdle waits until no query holds one of the DB's scheduler slots.
func awaitIdle(t *testing.T, o *aquoman.Observer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for o.Reg.Gauge("sched_inflight").Value() != 0 || o.Reg.Gauge("sched_queued").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("scheduler never went idle")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueryModesShareFailureTable drives the ways the server answers a
// statement — a query on its own DB, as a cluster worker's partial, as a
// coordinator; a write through /dml — through one table of failures, each
// in every mode where it can occur. Whatever the front door: the status is
// the same, a request turned away before it ran stays out of
// query_latency_ns and the slow-query log, and one that ran lands in both
// exactly once, under the X-Query-ID its response carried. Mutation: any
// /dml row fails with handleDML answering outside runAndStream (no
// X-Query-ID, no 504, no slow-query line).
func TestQueryModesShareFailureTable(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()
	db.ConfigureScheduler(aquoman.SchedulerConfig{
		MaxInFlight: 1, QueueDepth: 2,
		Tenants: map[string]aquoman.TenantConfig{"alpha": {MaxQueued: 1}},
	})
	defer db.Close()

	// A one-worker cluster over the same data: the worker's partition is
	// the whole store, the coordinator merges its single partial.
	wdb := aquoman.Open()
	if err := wdb.ExtractPartition(db, 0, 1); err != nil {
		t.Fatal(err)
	}
	wo := wdb.EnableObservability()
	defer wdb.Close()
	worker := httptest.NewServer(New(Config{DB: wdb}))
	defer worker.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // a worker URL nothing listens on
	coordinator := func(url string) *cluster.Coordinator {
		c, err := cluster.New(cluster.Config{
			Nodes: []cluster.Node{{URL: url}}, Store: db.Store,
			RetryBudget: -1, DisableFallback: true, // a lost node is a hard error
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	var slow syncBuffer
	cfg := Config{DB: db, SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow} // every query that runs is "slow"
	standalone := New(cfg)
	cfg.Coordinator = coordinator(worker.URL)
	clustered := New(cfg)
	cfg.Coordinator = coordinator(gone.URL)
	severed := New(cfg)
	member := New(Config{DB: wdb, SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow}) // wdb is a partition

	// mode is one way of answering /tpch?q=6: which server, which URL, and
	// whose device the scan reads (where a gate holds the query mid-scan).
	type mode struct {
		name  string
		srv   *Server
		url   string
		scans *aquoman.DB
	}
	modes := []mode{
		{"local", standalone, "/tpch?q=6", db},
		{"partial", standalone, "/tpch?q=6&partial=1", db},
		{"coordinator", clustered, "/tpch?q=6", wdb},
	}
	serve := func(srv *Server, req *http.Request) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	// dml is a POST /dml of one statement; conflict409 checks that a 409
	// carries the catalog's current epoch.
	dml := func(stmt, query string) *http.Request {
		body, _ := json.Marshal(map[string]string{"sql": stmt})
		return httptest.NewRequest(http.MethodPost, "/dml"+query, strings.NewReader(string(body)))
	}
	conflict409 := func(t *testing.T, rec *httptest.ResponseRecorder) {
		var body struct {
			Epoch *uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Epoch == nil || *body.Epoch != db.Catalog().Epoch() {
			t.Errorf("409 body %s (%v) does not carry the current epoch %d", rec.Body.String(), err, db.Catalog().Epoch())
		}
	}
	const patch = "UPDATE region SET r_comment = 'patched' WHERE r_regionkey = 2"
	// occupy parks one query of tenant on db's only slot and queues n more
	// behind it; the returned func lets them all go and waits them out.
	occupy := func(t *testing.T, tenant string, n int) func() {
		ctx, cancel := context.WithCancel(context.Background())
		gate := parkReads(t, db)
		var tickets []*aquoman.Ticket
		for i := 0; i <= n; i++ {
			tk, err := db.Submit(ctx, aquoman.Request{TPCH: 6, Admit: &aquoman.Admission{Tenant: tenant, Lane: aquoman.LaneBatch}})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				awaitParked(t, gate)
			}
			tickets = append(tickets, tk)
		}
		return func() {
			cancel()
			gate.Release()
			for _, tk := range tickets {
				_, _ = tk.Wait()
			}
		}
	}

	cases := []struct {
		name       string
		modes      string // the modes where this failure can occur
		status     int    // 0: nothing may be written
		retryAfter bool
		ran        bool
		run        func(t *testing.T, m mode) *httptest.ResponseRecorder
	}{
		{"queue full", "local partial", http.StatusServiceUnavailable, true, false,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				defer occupy(t, "", 2)()
				return serve(m.srv, httptest.NewRequest(http.MethodGet, m.url, nil))
			}},
		{"tenant quota", "local partial", http.StatusTooManyRequests, true, false,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				defer occupy(t, "alpha", 1)()
				req := httptest.NewRequest(http.MethodGet, m.url, nil)
				req.Header.Set("X-Tenant", "alpha")
				rec := serve(m.srv, req)
				// A per-tenant "slow down", told apart from the 503 that
				// means the whole server is overloaded: the body names the
				// quota, the tenant's reject counter moves, and another
				// tenant is still admitted.
				if !strings.Contains(rec.Body.String(), "quota") {
					t.Errorf("429 body should name the quota: %s", rec.Body.String())
				}
				if n := o.Reg.Counter("sched_tenant_rejected_total", "tenant", "alpha").Value(); n < 1 {
					t.Errorf("sched_tenant_rejected_total{tenant=alpha} = %d, want >= 1", n)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if _, err := db.Submit(ctx, aquoman.Request{TPCH: 6, Admit: &aquoman.Admission{Tenant: "beta"}}); err != nil {
					t.Errorf("beta rejected alongside alpha's quota: %v", err)
				}
				return rec
			}},
		{"deadline", "local partial coordinator", http.StatusGatewayTimeout, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				parkReadsFor(t, m.scans, 50*time.Millisecond) // ten deadlines
				return serve(m.srv, httptest.NewRequest(http.MethodGet, m.url+"&timeout_ms=5", nil))
			}},
		{"client gone", "local partial coordinator", 0, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				gate := parkReads(t, m.scans)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan *httptest.ResponseRecorder)
				go func() { done <- serve(m.srv, httptest.NewRequest(http.MethodGet, m.url, nil).WithContext(ctx)) }()
				awaitParked(t, gate)
				cancel()       // the client disconnects mid-scan
				gate.Release() // the read in flight completes; the scan must not go on
				return <-done
			}},
		{"node lost", "coordinator", http.StatusBadGateway, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				return serve(severed, httptest.NewRequest(http.MethodGet, m.url, nil))
			}},
		{"string heap fault", "local", http.StatusInternalServerError, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				// The scan reads r_comment's offsets; its strings resolve
				// from the heap before any row is written, so a bad heap
				// page is the query's error, not a placeholder cell.
				inj := faults.New(faults.Config{})
				inj.Hook = func(file string, _ int64, _ flash.Requester, _ int) (faults.Kind, bool) {
					return faults.Permanent, strings.HasSuffix(file, ".heap")
				}
				db.WithFaults(inj)
				return serve(m.srv, httptest.NewRequest(http.MethodGet, "/query?q=select+r_comment+from+region", nil))
			}},
		{"compile error", "local", http.StatusBadRequest, false, false,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				return serve(m.srv, httptest.NewRequest(http.MethodGet, "/query?q=selectt+nonsense", nil))
			}},
		{"dml compile error", "local", http.StatusBadRequest, false, false,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				return serve(m.srv, dml("INSERT INTO nosuch VALUES (1)", ""))
			}},
		{"dml cluster member", "local", http.StatusForbidden, false, false,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				return serve(member, dml(patch, ""))
			}},
		{"dml failed if_epoch", "local", http.StatusConflict, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				rec := serve(m.srv, dml("DELETE FROM region", "?ifepoch=999999"))
				conflict409(t, rec)
				return rec
			}},
		{"dml conflict", "local", http.StatusConflict, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				// Every device read of the victim scan waits for another
				// write to commit: each attempt's epoch CAS loses.
				parked, resume := make(chan struct{}), make(chan struct{})
				inj := faults.New(faults.Config{})
				inj.Hook = func(string, int64, flash.Requester, int) (faults.Kind, bool) {
					parked <- struct{}{}
					<-resume
					return 0, false
				}
				db.WithFaults(inj)
				defer db.WithFaults(nil)
				done := make(chan *httptest.ResponseRecorder)
				go func() { done <- serve(m.srv, dml(patch, "")) }()
				for {
					select {
					case <-parked:
						if _, err := db.Exec(context.Background(), "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (9, 'ASIA', 'racer')"); err != nil {
							t.Error(err)
						}
						resume <- struct{}{}
					case rec := <-done:
						conflict409(t, rec)
						return rec
					}
				}
			}},
		{"dml deadline", "local", http.StatusGatewayTimeout, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				parkReadsFor(t, db, 50*time.Millisecond) // ten deadlines
				return serve(m.srv, dml(patch, "?timeout_ms=5"))
			}},
		{"dml client gone", "local", 0, false, true,
			func(t *testing.T, m mode) *httptest.ResponseRecorder {
				gate := parkReads(t, db)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				done := make(chan *httptest.ResponseRecorder)
				go func() { done <- serve(m.srv, dml(patch, "").WithContext(ctx)) }()
				awaitParked(t, gate)
				cancel()
				gate.Release()
				return <-done
			}},
	}
	for _, tc := range cases {
		for _, m := range modes {
			if !strings.Contains(tc.modes, m.name) {
				continue
			}
			t.Run(tc.name+"/"+m.name, func(t *testing.T) {
				slow.Reset()
				before := latencyCount(o)
				rec := tc.run(t, m)
				if tc.status == 0 {
					if rec.Body.Len() != 0 || rec.Flushed {
						t.Fatalf("wrote %q to a client that is gone", rec.Body.String())
					}
				} else if rec.Code != tc.status {
					t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
				} else if !strings.Contains(rec.Body.String(), `"error"`) {
					t.Fatalf("status %d without a JSON error body: %q", rec.Code, rec.Body.String())
				}
				if got := rec.Header().Get("Retry-After") != ""; got != tc.retryAfter {
					t.Fatalf("Retry-After present = %v, want %v", got, tc.retryAfter)
				}
				want := int64(0)
				if tc.ran {
					want = 1
				}
				if got := latencyCount(o) - before; got != want {
					t.Fatalf("query_latency_ns grew by %d observations, want %d", got, want)
				}
				lines := strings.Count(slow.String(), "\n")
				if int64(lines) != want {
					t.Fatalf("%d slow-query lines, want %d:\n%s", lines, want, slow.String())
				}
				if tc.ran && !strings.Contains(slow.String(), `"id":"`+rec.Header().Get("X-Query-ID")+`"`) {
					t.Fatalf("slow-query line does not carry X-Query-ID %q:\n%s", rec.Header().Get("X-Query-ID"), slow.String())
				}
				if strings.HasPrefix(tc.name, "dml") {
					if rec.Header().Get("X-Query-ID") == "" {
						t.Fatal("a /dml answer without X-Query-ID")
					}
					if res, err := db.Query("select count(*) as n from region where r_comment = 'patched'"); err != nil || res.Batch.Cols[0][0] != 0 {
						t.Fatalf("a failed write committed: %v patched rows (%v)", res, err)
					}
				}
				// The next case starts from idle schedulers and ungated devices.
				awaitIdle(t, o)
				awaitIdle(t, wo)
				db.Flash.SetFaults(nil)
				wdb.Flash.SetFaults(nil)
			})
		}
	}
}

// TestQueryIDJoinsResponseAndSlowLog: one minted ID names a query in the
// X-Query-ID header, in the NDJSON trailer — rendered or raw — and in its
// slow-query log line.
func TestQueryIDJoinsResponseAndSlowLog(t *testing.T) {
	var slow syncBuffer
	srv, _ := newTestServer(t, Config{SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow})
	for _, url := range []string{"/query?q=select+count(*)+as+n+from+region", "/tpch?q=6", "/tpch?q=6&partial=1"} {
		slow.Reset()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
		}
		id := rec.Header().Get("X-Query-ID")
		if id == "" {
			t.Fatalf("%s: no X-Query-ID header", url)
		}
		lines := ndjson(t, rec.Body)
		if trailer := lines[len(lines)-1]; trailer["done"] != true || trailer["id"] != id {
			t.Fatalf("%s: trailer %v does not carry id %q", url, trailer, id)
		}
		var rec1 struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal([]byte(slow.String()), &rec1); err != nil || rec1.ID != id {
			t.Fatalf("%s: slow-query line %q does not carry id %q (%v)", url, slow.String(), id, err)
		}
	}
}

// TestDMLRefusedOnClusterMembers: a coordinator's replica and a worker's
// partition refuse POST /dml with 403 and a JSON error naming the mode —
// a write applied to one member would make scattered and local queries
// disagree — and the refused statement changes nothing.
func TestDMLRefusedOnClusterMembers(t *testing.T) {
	src := sharedDB(t)
	part := aquoman.Open()
	if err := part.ExtractPartition(src, 0, 2); err != nil {
		t.Fatal(err)
	}
	defer part.Close()
	full := aquoman.Open()
	if err := full.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, err := full.NewCoordinator([]aquoman.ClusterNode{{URL: "http://127.0.0.1:1"}, {URL: "http://127.0.0.1:1"}}); err != nil {
		t.Fatal(err)
	}
	for mode, db := range map[string]*aquoman.DB{"partition": part, "coordinator": full} {
		_, ts := newTestServer(t, Config{DB: db})
		resp, err := http.Post(ts.URL+"/dml", "application/json",
			strings.NewReader(`{"sql": "DELETE FROM region WHERE r_regionkey = 0"}`))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || err != nil || !strings.Contains(body["error"], mode) {
			t.Fatalf("%s: /dml = %d %v (%v), want 403 naming the mode", mode, resp.StatusCode, body, err)
		}
		res, err := db.Query("select count(*) as n from region")
		if err != nil || res.Batch.Cols[0][0] != 5 {
			t.Fatalf("%s: region has %v rows after the refused DELETE (%v), want 5", mode, res.Batch.Cols[0], err)
		}
	}
}

// TestDMLAnswerMatchesCommit: a write answers for what the catalog did. An
// UPDATE held on its victim scan past its deadline answers 504 and has
// committed nothing (epoch and rows unchanged); the same UPDATE let through
// commits, answers 200 with the success body, and — a query like any other
// — carries an X-Query-ID, lands once in query_latency_ns and writes one
// slow-query line whose states are lifecycle states, add up within wall and
// cover it. Mutation: running the victim scan under context.Background()
// in DB.execRetry commits the timed-out UPDATE (200, epoch moves).
func TestDMLAnswerMatchesCommit(t *testing.T) {
	db := aquoman.Open()
	if err := db.LoadTPCH(0.002, 1); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()
	defer db.Close()
	var slow syncBuffer
	srv := New(Config{DB: db, SlowQueryThreshold: time.Nanosecond, SlowQueryLog: &slow})
	post := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/dml"+query,
			strings.NewReader(`{"sql": "UPDATE region SET r_comment = 'patched' WHERE r_regionkey = 2"}`)))
		return rec
	}
	patched := func() int64 {
		t.Helper()
		res, err := db.Query("select count(*) as n from region where r_comment = 'patched'")
		if err != nil {
			t.Fatal(err)
		}
		return res.Batch.Cols[0][0]
	}
	epoch := db.Catalog().Epoch()

	parkReadsFor(t, db, 50*time.Millisecond) // ten deadlines
	if rec := post("?timeout_ms=5"); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("UPDATE held past its deadline: %d %s, want 504", rec.Code, rec.Body.String())
	}
	if got := db.Catalog().Epoch(); got != epoch || patched() != 0 {
		t.Fatalf("a 504 committed: epoch %d -> %d, %d patched rows", epoch, got, patched())
	}

	slow.Reset()
	before := latencyCount(o)
	rec := post("")
	var body map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("UPDATE: %d %s (%v)", rec.Code, rec.Body.String(), err)
	}
	if body["op"] != "update" || body["table"] != "region" || body["rows_affected"] != 1.0 || body["epoch"] != float64(db.Catalog().Epoch()) || len(body) != 4 {
		t.Fatalf("success body %v, want {op, table, rows_affected, epoch}", body)
	}
	if got := db.Catalog().Epoch(); got != epoch+1 || patched() != 1 {
		t.Fatalf("a 200 did not commit exactly once: epoch %d -> %d, %d patched rows", epoch, got, patched())
	}
	if got := latencyCount(o) - before; got != 1 {
		t.Fatalf("query_latency_ns grew by %d observations for one write, want 1", got)
	}
	var line slowQueryLine
	if err := json.Unmarshal([]byte(slow.String()), &line); err != nil { // exactly one line
		t.Fatalf("slow-query log %q: %v", slow.String(), err)
	}
	if id := rec.Header().Get("X-Query-ID"); id == "" || line.ID != id {
		t.Fatalf("slow-query line id %q, X-Query-ID %q", line.ID, id)
	}
	var sum float64
	for name, ms := range line.StatesMS {
		known := false
		for st := aquoman.LifecycleState(0); st < obs.NumStates; st++ {
			known = known || st.String() == name
		}
		if !known {
			t.Errorf("state %q is not a lifecycle state", name)
		}
		sum += ms
	}
	for _, want := range []string{"compile", "host", "device_read", "emit"} {
		if line.StatesMS[want] <= 0 {
			t.Errorf("the write's line has no %s time: %v", want, line.StatesMS)
		}
	}
	if sum > line.WallMS+0.001 || line.Coverage < 0.9 {
		t.Fatalf("states add up to %.3f of %.3f ms wall, coverage %.2f: %v", sum, line.WallMS, line.Coverage, line.StatesMS)
	}
}

// TestInboundQueryIDAdoptedOnlyIfWellFormed: a request may bring its query
// ID (a coordinator's scatter RPCs do); anything that is not 1..64 of
// [A-Za-z0-9._-] is ignored and an ID minted as usual.
func TestInboundQueryIDAdoptedOnlyIfWellFormed(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	for _, tc := range []struct {
		inbound string
		adopted bool
	}{
		{"coord-1.q_7", true},
		{strings.Repeat("a", 64), true},
		{strings.Repeat("a", 65), false},
		{"two words", false},
		{`q1","x":"y`, false},
		{"", false},
	} {
		req := httptest.NewRequest(http.MethodGet, "/tpch?q=6&partial=1", nil)
		req.Header.Set("X-Query-ID", tc.inbound)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("inbound %q: status %d: %s", tc.inbound, rec.Code, rec.Body.String())
		}
		id := rec.Header().Get("X-Query-ID")
		lines := ndjson(t, rec.Body)
		if lines[len(lines)-1]["id"] != id {
			t.Fatalf("inbound %q: trailer %v does not carry header id %q", tc.inbound, lines[len(lines)-1], id)
		}
		if adopted := id == tc.inbound; adopted != tc.adopted || id == "" {
			t.Fatalf("inbound %q: query ran as %q, adopted = %v, want %v", tc.inbound, id, adopted, tc.adopted)
		}
	}
}
