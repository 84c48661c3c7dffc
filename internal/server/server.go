// Package server exposes an AQUOMAN DB as a network query service: an
// HTTP/JSON front end that compiles SQL (or picks a TPC-H query), admits
// the work through the concurrent scheduler, and streams results back as
// NDJSON — with the request's context threaded end-to-end, so a client
// that disconnects (or a deadline that fires) stops the query at its next
// page-read or operator checkpoint and frees the scheduler slot.
//
// Endpoints:
//
//	/            index (JSON listing of the mounted endpoints)
//	/query       GET ?q=<sql> or POST {"sql": ..., "timeout_ms": ...}
//	/dml         POST {"sql": ...} — INSERT/UPDATE/DELETE/CREATE TABLE; the
//	             same request path as /query, answered with one JSON object
//	/tpch        GET ?q=1..22 — the Table-Task offload path
//	/healthz     liveness (503 while draining)
//	/metrics     Prometheus text (when the DB has an observer)
//	/debug/vars  expvar JSON (when the DB has an observer)
//
// Backpressure is explicit: a full scheduler queue returns 503 with a
// Retry-After header instead of queueing unboundedly, and a tenant over
// its own admission quota gets 429 (the X-Tenant header or ?tenant=
// parameter names the tenant; ?lane= picks the priority lane). Every
// query response names its query in an X-Query-ID header and as "id" in
// the NDJSON trailer — the ID its slow-query log line carries, minted here
// unless the request brought a well-formed X-Query-ID of its own (a
// coordinator's scatter RPCs do). Drain puts
// the server into a mode where new queries are rejected but in-flight
// ones finish, for graceful shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aquoman"
	"aquoman/internal/cluster"
	"aquoman/internal/col"
	"aquoman/internal/distrib"
	"aquoman/internal/engine"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
)

// Config parameterizes a Server.
type Config struct {
	// DB is the backing AQUOMAN instance (required).
	DB *aquoman.DB
	// DefaultTimeout bounds queries that specify no timeout_ms. Zero
	// means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout caps every query's deadline, including requests that
	// specify none or a larger timeout_ms. Zero means no cap.
	MaxTimeout time.Duration
	// ChunkRows is the number of result rows written between flushes of
	// the NDJSON stream. Values < 1 default to 256.
	ChunkRows int
	// SlowQueryThreshold triggers the slow-query log: every query whose
	// wall time reaches it (including deadline-exceeded ones) is logged
	// as one JSON line with its per-state time breakdown. Zero disables
	// the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLog receives the slow-query lines; nil means os.Stderr.
	SlowQueryLog io.Writer
	// Coordinator, when set, turns /tpch into the cluster entry point:
	// whole queries scatter across the coordinator's workers instead of
	// running on the local DB. Worker-mode requests (?partial=1) still
	// execute against the local DB, so a node can serve both roles.
	Coordinator *cluster.Coordinator
}

// Server is the HTTP query service. It implements http.Handler.
type Server struct {
	cfg Config
	mux *http.ServeMux

	draining atomic.Bool
	inflight sync.WaitGroup

	qseq   atomic.Int64 // query ids for lifecycle telemetry
	slowMu sync.Mutex   // serializes slow-query log lines
}

// New builds a Server over cfg.DB.
func New(cfg Config) *Server {
	if cfg.ChunkRows < 1 {
		cfg.ChunkRows = 256
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("/query", s.instrument("query", true, s.handleQuery))
	s.mux.HandleFunc("/dml", s.instrument("dml", true, s.handleDML))
	s.mux.HandleFunc("/tpch", s.instrument("tpch", true, s.handleTPCH))
	s.mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealthz))
	if obs := cfg.DB.Obs; obs != nil && obs.Reg != nil {
		h := obs.Reg.Handler()
		s.mux.Handle("/metrics", h)
		s.mux.Handle("/debug/vars", h)
	}
	// Runtime profiling rides on the same mux: /debug/pprof/ serves the
	// index plus the named profiles (heap, goroutine, mutex, ...), and
	// profile/trace sample the live server under real query load.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", s.handleIndex)
	return s
}

// ServeHTTP dispatches to the mounted endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain stops admitting queries (they get 503) and blocks until every
// in-flight request has finished or ctx expires. Health checks flip to
// 503 immediately so load balancers route away. Call before shutting the
// listener down.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// statusWriter records the response code and forwards Flush so NDJSON
// streaming keeps working through the instrumentation layer.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.code = code
		w.wrote = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps an endpoint with inflight tracking, request/latency
// metrics, and (for query endpoints) the drain gate.
func (s *Server) instrument(endpoint string, gated bool, h http.HandlerFunc) http.HandlerFunc {
	o := s.cfg.DB.Obs.Registry() // nil-safe: obs metrics accept a nil receiver
	return func(w http.ResponseWriter, r *http.Request) {
		if gated && s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			o.Counter("server_requests_total", "endpoint", endpoint, "code", "503").Inc()
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		o.Gauge("server_inflight").Add(1)
		defer o.Gauge("server_inflight").Add(-1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		o.Counter("server_requests_total", "endpoint", endpoint, "code", strconv.Itoa(sw.code)).Inc()
		o.Histogram("server_request_ms", "endpoint", endpoint).Observe(time.Since(start).Milliseconds())
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON answers with one JSON object.
func writeJSON(w http.ResponseWriter, code int, body interface{}) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// queryRun is the part of a query request that depends on how the server
// answers it — on its own DB, as a cluster worker's raw partial, or as a
// coordinator's scatter/gather. Everything else about the request is
// runAndStream.
type queryRun struct {
	label  string // names the query in the slow-query log
	tenant string // "" = the default tenant
	exec   execFunc
	// rawStrategy, when non-empty, streams the batch as unrendered int64s
	// in the cluster wire format (streamRaw) instead of display values.
	rawStrategy string
	// object, when non-nil, is the whole answer (a write's): exec fills it
	// and it is emitted as one JSON object instead of an NDJSON stream.
	object interface{}
}

// execFunc runs a query under its request's deadline and lifecycle; only a
// coordinator returns a (degradation) report.
type execFunc func(ctx context.Context) (*aquoman.Result, *distrib.Report, error)

// local is the exec of a query admitted through this server's own DB.
func (s *Server) local(req aquoman.Request) execFunc {
	return func(ctx context.Context) (*aquoman.Result, *distrib.Report, error) {
		res, err := s.cfg.DB.Do(ctx, req)
		return res, nil, err
	}
}

// tenantOf extracts the requesting tenant: the X-Tenant header wins,
// then the tenant query parameter. Empty means the default tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

// laneOf resolves the request's priority lane from the lane query
// parameter, defaulting per endpoint (point queries are interactive,
// TPC-H scans are batch).
func laneOf(r *http.Request, def aquoman.Lane) (aquoman.Lane, error) {
	v := r.URL.Query().Get("lane")
	if v == "" {
		return def, nil
	}
	return aquoman.ParseLane(v)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"service": "aquoman-serve",
		"version": aquoman.Version,
		"endpoints": []string{
			"/query?q=<sql> (GET) or POST {\"sql\": ..., \"timeout_ms\": ...}",
			"/dml (POST {\"sql\": ...}, optional ?ifepoch= and ?timeout_ms=)",
			"/tpch?q=1..22",
			"/tpch?q=1..22&partial=1 (cluster worker: raw per-shard partials)",
			"/healthz",
			"/metrics",
			"/debug/vars",
			"/debug/pprof/",
			"tenancy: X-Tenant header or ?tenant=; ?lane=interactive|batch",
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL       string `json:"sql"`
	TimeoutMS int64  `json:"timeout_ms"`
}

// timeoutMS parses the timeout_ms query parameter (absent = 0).
func timeoutMS(r *http.Request) (int64, error) {
	v := r.URL.Query().Get("timeout_ms")
	if v == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(v, 10, 64)
	if err != nil || ms < 0 {
		return 0, errors.New("invalid timeout_ms")
	}
	return ms, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.SQL = r.URL.Query().Get("q")
		ms, err := timeoutMS(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		req.TimeoutMS = ms
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET ?q= or POST JSON")
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing SQL statement (q parameter or \"sql\" field)")
		return
	}
	lane, err := laneOf(r, aquoman.LaneInteractive)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	adm := &aquoman.Admission{Tenant: tenantOf(r), Lane: lane, CacheKey: aquoman.CanonicalSQL(req.SQL)}
	s.runAndStream(w, r, time.Duration(req.TimeoutMS)*time.Millisecond, queryRun{
		label:  req.SQL,
		tenant: adm.Tenant,
		exec:   s.local(aquoman.Request{SQL: req.SQL, Admit: adm}),
	})
}

// dmlRequest is the POST /dml body.
type dmlRequest struct {
	SQL string `json:"sql"`
	// IfEpoch, when non-zero, is an optimistic pre-check: the write only
	// starts if the catalog epoch equals it (409 otherwise).
	IfEpoch uint64 `json:"if_epoch"`
}

// handleDML executes one write statement (INSERT, UPDATE, DELETE,
// CREATE TABLE) against the DB's write path. It is a query request like
// any other — runAndStream gives it an X-Query-ID, the deadline, a
// recorder and the one error→status table (classify) — whose answer is one
// JSON object. if_epoch is a pre-check, not an atomic precondition: the
// epoch is compared and then the statement executes.
func (s *Server) handleDML(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "use POST {\"sql\": ...}")
		return
	}
	var req dmlRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return
	}
	if v := r.URL.Query().Get("ifepoch"); v != "" {
		e, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid ifepoch")
			return
		}
		req.IfEpoch = e
	}
	ms, err := timeoutMS(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.SQL == "" {
		writeError(w, http.StatusBadRequest, "missing \"sql\" field")
		return
	}
	var out aquoman.ExecResult // the success body: {op, table, rows_affected, epoch}
	s.runAndStream(w, r, time.Duration(ms)*time.Millisecond, queryRun{
		label: req.SQL, tenant: tenantOf(r), object: &out,
		exec: func(ctx context.Context) (*aquoman.Result, *distrib.Report, error) {
			if req.IfEpoch != 0 && s.cfg.DB.Catalog().Epoch() != req.IfEpoch {
				return nil, nil, fmt.Errorf("epoch precondition failed: %w", aquoman.ErrConflict)
			}
			res, err := s.cfg.DB.Exec(ctx, req.SQL)
			if err == nil {
				out = *res
			}
			return nil, nil, err
		},
	})
}

func (s *Server) handleTPCH(w http.ResponseWriter, r *http.Request) {
	q, err := strconv.Atoi(r.URL.Query().Get("q"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid q parameter (want 1..22)")
		return
	}
	ms, err := timeoutMS(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := aquoman.TPCHQuery(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	run := queryRun{label: fmt.Sprintf("tpch q%d", q), tenant: tenantOf(r)}
	switch {
	case r.URL.Query().Get("partial") == "1":
		// Worker mode: this shard's partial plan — the same distrib.Derive
		// every cluster tier uses, so the coordinator can trust the
		// partial's shape — runs through the scheduler and streams back as
		// raw stored int64s in the cluster wire format; the coordinator
		// merges the partials, nothing is rendered here. Partials run on the
		// batch lane and never touch the result cache: serving a whole cached
		// result here would corrupt the merge.
		part, err := distrib.Derive(func() plan.Node { return p }, s.cfg.DB.Store)
		if err != nil {
			// A 4xx tells the coordinator retrying elsewhere is pointless:
			// the query shape itself cannot distribute.
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		run.label += " partial"
		run.exec = s.local(aquoman.Request{Plan: part.Plan, Admit: &aquoman.Admission{Tenant: run.tenant, Lane: aquoman.LaneBatch}})
		run.rawStrategy = part.Strategy.String()
	case s.cfg.Coordinator != nil:
		// Coordinator mode: the whole query scatters over the cluster and
		// the merged result streams back rendered, with the degradation
		// report riding on the trailer.
		run.label += " cluster"
		run.exec = func(ctx context.Context) (*aquoman.Result, *distrib.Report, error) {
			b, rep, err := s.cfg.Coordinator.RunTPCH(ctx, q)
			return &aquoman.Result{Batch: b}, rep, err
		}
	default:
		lane, err := laneOf(r, aquoman.LaneBatch)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		run.exec = s.local(aquoman.Request{Plan: p, Admit: &aquoman.Admission{
			Tenant: run.tenant, Lane: lane, CacheKey: fmt.Sprintf("tpch:q%d", q)}})
	}
	s.runAndStream(w, r, time.Duration(ms)*time.Millisecond, run)
}

// deadline resolves a request's effective timeout from the client's ask
// and the server's default/cap.
func (s *Server) deadline(asked time.Duration) time.Duration {
	d := s.cfg.DefaultTimeout
	if asked > 0 {
		d = asked
	}
	if s.cfg.MaxTimeout > 0 && (d == 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

// failure is how one failed query is answered.
type failure struct {
	code       int    // 0: the client is gone, there is nobody to answer
	msg        string // the JSON error body
	retryAfter bool   // backpressure: tell the client when to come back
	epoch      bool   // a write conflict: the body carries the current epoch
	// neverRan marks a request turned away before it executed (bad
	// statement, admission reject, a write to a cluster member): it stays
	// out of the latency histograms and the slow-query log
	// (server_requests_total already counts it).
	neverRan bool
}

// classify is the server's one error→status table. A statement that fails
// to compile is the client's fault (400); a tenant over its own quota
// gets 429 so clients can tell "slow down" from "server overloaded"
// (503); a dead deadline is 504; a cluster node lost past every failover
// tier is 502; a write that lost its optimistic race (or failed its
// if_epoch pre-check) is 409 with the current epoch, so the client can
// re-read and retry; a write to a cluster member is 403 (the cluster does
// not distribute writes); any other execution failure is the server's (500).
func classify(err error) failure {
	var ce *aquoman.CompileError
	var se *distrib.ShardError
	var ro *aquoman.ReadOnlyError
	switch {
	case errors.As(err, &ce):
		return failure{code: http.StatusBadRequest, msg: "compile: " + ce.Error(), neverRan: true}
	case errors.As(err, &ro):
		return failure{code: http.StatusForbidden, msg: err.Error(), neverRan: true}
	case errors.Is(err, aquoman.ErrConflict):
		return failure{code: http.StatusConflict, msg: err.Error(), epoch: true}
	case errors.Is(err, aquoman.ErrTenantQuota):
		return failure{code: http.StatusTooManyRequests, msg: err.Error(), retryAfter: true, neverRan: true}
	case errors.Is(err, aquoman.ErrQueueFull):
		return failure{code: http.StatusServiceUnavailable, msg: "scheduler queue full, retry later", retryAfter: true, neverRan: true}
	case errors.Is(err, aquoman.ErrSchedulerClosed):
		return failure{code: http.StatusServiceUnavailable, msg: "scheduler closed", neverRan: true}
	case errors.Is(err, context.DeadlineExceeded):
		return failure{code: http.StatusGatewayTimeout, msg: "query deadline exceeded"}
	case errors.Is(err, context.Canceled):
		return failure{}
	case errors.As(err, &se):
		return failure{code: http.StatusBadGateway, msg: err.Error()}
	}
	return failure{code: http.StatusInternalServerError, msg: err.Error()}
}

// inboundQueryID is what an X-Query-ID request header must look like to be
// adopted; anything else gets a minted ID.
var inboundQueryID = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// runAndStream answers one query request: it runs q.exec under the
// request's context and streams the result as NDJSON. The context is
// cancelled when the client disconnects or the deadline fires, so an
// abandoned query stops consuming flash bandwidth at its next checkpoint
// and its scheduler slot frees up.
//
// The query's obs.Lifecycle is created here and rides in the context: the
// scheduler, flash layer, executor and cluster open their regions in it
// (queue-wait / device / CPU / scatter states), the emit region is opened
// here, and the finished breakdown feeds the query_latency_ns /
// query_state_ns histograms and the slow-query log. Its ID is the
// response's X-Query-ID.
func (s *Server) runAndStream(w http.ResponseWriter, r *http.Request, asked time.Duration, q queryRun) {
	ctx := r.Context()
	if d := s.deadline(asked); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	// A coordinator's scatter RPC names its query; adopting that ID makes a
	// scattered query one ID across every node's trailer and slow-query log.
	id := r.Header.Get("X-Query-ID")
	if !inboundQueryID.MatchString(id) {
		id = fmt.Sprintf("q%d", s.qseq.Add(1))
	}
	lc := obs.NewLifecycle(id)
	lc.Reg = s.cfg.DB.Obs.Registry()
	// The front door's own glue — headers, the hand-offs around exec and
	// emit, a write's pre-check — is host-side work no inner region claims.
	glue := lc.Begin(obs.StateHost)
	ctx = obs.WithLifecycle(ctx, lc)
	w.Header().Set("X-Query-ID", lc.ID)

	start := time.Now()
	res, rep, err := q.exec(ctx)
	var strs [][]string
	if err == nil && q.object == nil && q.rawStrategy == "" {
		// The result's string columns resolve here, one heap read per
		// column under the request's context: a failed or cancelled read
		// is the query's error, answered before any row is written.
		strs, err = res.Batch.Strings(ctx)
	}
	var fail failure
	if err != nil {
		fail = classify(err)
	}
	if !fail.neverRan {
		defer func() {
			glue.End()
			lc.Finish()
			if lc.Reg != nil {
				tenant := q.tenant
				if tenant == "" {
					tenant = "default"
				}
				lc.ObserveInto(lc.Reg)
				lc.Reg.Histogram("query_latency_ns", "tenant", tenant).Observe(int64(lc.Wall()))
			}
			s.logSlow(lc, q.label, err)
		}()
	}
	if err != nil {
		if fail.retryAfter {
			w.Header().Set("Retry-After", "1")
		}
		if fail.code != 0 {
			body := map[string]interface{}{"error": fail.msg}
			if fail.epoch {
				body["epoch"] = s.cfg.DB.Catalog().Epoch()
			}
			writeJSON(w, fail.code, body)
		}
		return
	}
	emit := lc.Begin(obs.StateEmit)
	switch {
	case q.object != nil:
		writeJSON(w, http.StatusOK, q.object)
	case q.rawStrategy != "":
		s.streamRaw(ctx, w, res.Batch, lc.ID, q.rawStrategy)
	default:
		s.stream(ctx, w, res.Batch, strs, lc.ID, time.Since(start), rep)
	}
	emit.End()
}

// slowQueryLine is one slow-query log record; states_ms holds only the
// nonzero states, and children one entry per fork of the query's recorder
// (the shard attempts of a scatter), whose time is not in states_ms.
type slowQueryLine struct {
	Time     string             `json:"time"`
	ID       string             `json:"id"`
	Query    string             `json:"query"`
	Error    string             `json:"error,omitempty"`
	WallMS   float64            `json:"wall_ms"`
	Coverage float64            `json:"coverage"`
	StatesMS map[string]float64 `json:"states_ms"`
	Children []slowQueryChild   `json:"children,omitempty"`
}

type slowQueryChild struct {
	Name     string             `json:"name"`
	WallMS   float64            `json:"wall_ms"`
	StatesMS map[string]float64 `json:"states_ms"`
}

// statesMS renders a recorder's nonzero states in milliseconds.
func statesMS(lc *obs.Lifecycle) map[string]float64 {
	m := make(map[string]float64)
	for name, ns := range lc.Breakdown() {
		if ns > 0 {
			m[name] = float64(ns) / 1e6
		}
	}
	return m
}

// logSlow writes one JSON line for a query whose wall time reached the
// configured threshold, with its wait-state breakdown.
func (s *Server) logSlow(lc *obs.Lifecycle, label string, err error) {
	th := s.cfg.SlowQueryThreshold
	if th <= 0 || lc.Wall() < th {
		return
	}
	lc.Reg.Counter("server_slow_queries_total").Inc()
	line := slowQueryLine{
		Time:     time.Now().UTC().Format(time.RFC3339Nano),
		ID:       lc.ID,
		Query:    label,
		WallMS:   float64(lc.Wall().Microseconds()) / 1000,
		Coverage: lc.Coverage(),
		StatesMS: statesMS(lc),
	}
	if err != nil {
		line.Error = err.Error()
	}
	for _, f := range lc.Forks() {
		line.Children = append(line.Children, slowQueryChild{
			Name: f.Name, WallMS: float64(f.Wall().Microseconds()) / 1000, StatesMS: statesMS(f)})
	}
	buf, jerr := json.Marshal(line)
	if jerr != nil {
		return
	}
	out := s.cfg.SlowQueryLog
	if out == nil {
		out = os.Stderr
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	_, _ = out.Write(append(buf, '\n'))
}

// ndjson writes one response stream: the header line, n row lines (row
// fills and returns a reused buffer), and the trailer. Chunks of ChunkRows
// rows are flushed so clients see results incrementally; a dead context
// stops the stream at the next chunk boundary, leaving it trailerless.
func (s *Server) ndjson(ctx context.Context, w http.ResponseWriter, header interface{}, n int, row func(r int) interface{}, trailer interface{}) {
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return
	}
	for r := 0; r < n; r++ {
		if err := enc.Encode(row(r)); err != nil {
			return
		}
		if (r+1)%s.cfg.ChunkRows == 0 {
			if ctx.Err() != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	_ = enc.Encode(trailer)
	if flusher != nil {
		flusher.Flush()
	}
}

// stream writes the batch in display values: a schema header line, one
// JSON array per row, and a trailer with the row count, the query ID and,
// from a coordinator, the degradation report. strs holds the batch's
// resolved string columns (engine.Batch.Strings).
func (s *Server) stream(ctx context.Context, w http.ResponseWriter, b *engine.Batch, strs [][]string, id string, elapsed time.Duration, rep *distrib.Report) {
	type schemaField struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	header := struct {
		Schema []schemaField `json:"schema"`
	}{}
	for _, f := range b.Schema {
		header.Schema = append(header.Schema, schemaField{Name: f.Name, Type: f.Typ.String()})
	}
	trailer := struct {
		Done          bool    `json:"done"`
		Rows          int     `json:"rows"`
		ID            string  `json:"id"`
		ElapsedMS     float64 `json:"elapsed_ms"`
		Strategy      string  `json:"strategy,omitempty"`
		DegradedNodes []int   `json:"degraded_nodes,omitempty"`
	}{Done: true, Rows: b.NumRows(), ID: id, ElapsedMS: float64(elapsed.Microseconds()) / 1000}
	if rep != nil {
		trailer.Strategy = rep.Strategy
		trailer.DegradedNodes = rep.DegradedShards
	}
	row := make([]interface{}, len(b.Schema))
	s.ndjson(ctx, w, &header, b.NumRows(), func(r int) interface{} {
		for c, f := range b.Schema {
			row[c] = jsonValue(f, b.Cols[c][r], strs[c], r)
		}
		return row
	}, &trailer)
}

// streamRaw writes the cluster wire format: header with schema+strategy,
// one raw int64 array per row, and the {"done","rows","id"} trailer the
// coordinator uses to distinguish completion from truncation — a stream
// cut short by a dead context is trailerless, which is exactly what tells
// the coordinator the partial is unusable.
func (s *Server) streamRaw(ctx context.Context, w http.ResponseWriter, b *engine.Batch, id, strategy string) {
	header := cluster.HeaderFor(b.Schema, strategy)
	row := make([]int64, len(b.Schema))
	s.ndjson(ctx, w, &header, b.NumRows(), func(r int) interface{} {
		for c := range b.Schema {
			row[c] = b.Cols[c][r]
		}
		return row
	}, &cluster.WireTrailer{Done: true, Rows: b.NumRows(), ID: id})
}

// jsonValue converts one stored value to its JSON representation:
// integers stay numeric, booleans become true/false, a string column's
// value is row r of its resolved strings, and anything else (dates,
// decimals) renders through engine.RenderValue.
func jsonValue(f plan.Field, v int64, strs []string, r int) interface{} {
	switch {
	case strs != nil:
		return strs[r]
	case f.Typ == col.Int64 || f.Typ == col.Int32:
		return v
	case f.Typ == col.Bool:
		return v != 0
	default:
		return engine.RenderValue(f, v)
	}
}
