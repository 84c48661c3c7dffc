// Package aquoman is a full-system reproduction of "AQUOMAN: An
// Analytic-Query Offloading Machine" (MICRO 2020): an in-SSD analytic
// query accelerator that executes Table Tasks — static dataflow graphs of
// SQL operators — against a column store at flash line rate, offloading
// selection, transformation, aggregation and multi-way joins from the
// host DBMS.
//
// The top-level package is the user-facing façade:
//
//	db := aquoman.Open()
//	db.LoadTPCH(0.01, 42)
//	res, err := db.RunTPCH(6)          // on AQUOMAN-augmented storage
//	fmt.Print(res.Render(10))
//	fmt.Printf("offloaded %.0f%% of flash traffic\n", res.Report.OffloadFraction*100)
//
// Everything underneath is real: the flash device simulator accounts
// every page, the Row Transformer executes compiled PE programs with the
// paper's instruction set, the SQL Swissknife runs the 1024-bucket
// Aggregate-GroupBy with host spill-over, and the streaming sorter
// charges the data movement of the paper's 256-to-1 merger cascade.
// Results are bit-identical to the host engine's.
package aquoman

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"aquoman/internal/catalog"
	"aquoman/internal/cluster"
	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/core"
	"aquoman/internal/distrib"
	"aquoman/internal/enc"
	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/perf"
	"aquoman/internal/plan"
	"aquoman/internal/sched"
	"aquoman/internal/sql"
	"aquoman/internal/tpch"
)

// Re-exported building blocks for custom schemas and queries.
type (
	// Store is the column-oriented storage catalog.
	Store = col.Store
	// Schema describes a table.
	Schema = col.Schema
	// ColDef describes a column.
	ColDef = col.ColDef
	// Plan is a logical query operator tree.
	Plan = plan.Node
	// Batch is a materialized query result.
	Batch = engine.Batch
	// Report describes where a query's work happened.
	Report = core.Report
	// Device is one AQUOMAN-augmented SSD plus host runtime.
	Device = core.Device
	// Observer is the handle EnableObservability installs: the metrics
	// registry.
	Observer = obs.Observer
	// Registry is the metrics registry (counters/gauges/histograms).
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time registry capture.
	MetricsSnapshot = obs.Snapshot
	// Lifecycle is the per-query recorder: attach one to a submission
	// context with WithLifecycle and the scheduler, flash layer, and
	// executor attribute queue-wait / device-read / cache-hit /
	// coalesce-wait / per-stage CPU time into it (a query whose context
	// carries none gets its own). With Request.Trace it also keeps the
	// query's spans: Result.Trace.Spans(), Tree(), ChromeTrace().
	Lifecycle = obs.Lifecycle
	// LifecycleState names one attributed query state.
	LifecycleState = obs.State
	// FaultInjector is the deterministic, seedable page-read fault
	// injector (see internal/faults).
	FaultInjector = faults.Injector
	// FaultConfig parameterizes the injector's random fault process.
	FaultConfig = faults.Config
	// FaultRule is one scripted fault.
	FaultRule = faults.Rule
	// FaultError is the typed error carried by injected read failures.
	FaultError = faults.Error
	// RetryPolicy bounds the flash page-read retry loop.
	RetryPolicy = flash.RetryPolicy
	// SchedulerConfig sizes the concurrent query scheduler (max in-flight
	// queries and pending-queue depth; see internal/sched). Its Tenants
	// map gives named tenants their weights and admission quotas; every
	// other tenant gets DefaultTenant's.
	SchedulerConfig = sched.Config
	// TenantConfig sizes one tenant's scheduler share (weight, queue
	// quota, in-flight cap).
	TenantConfig = sched.TenantConfig
	// Lane is a scheduler priority lane: LaneInteractive point-queries
	// preempt queued LaneBatch scans at dequeue time.
	Lane = sched.Lane
	// QuotaError reports which tenant exhausted its admission quota.
	QuotaError = sched.QuotaError
	// PageCache is the shared single-flight LRU flash-page cache.
	PageCache = sched.PageCache
	// CacheStats snapshots page-cache effectiveness.
	CacheStats = sched.CacheStats
	// ResultCache is the generation-keyed single-flight query result
	// cache (see DB.EnableResultCache).
	ResultCache = sched.ResultCache
	// ResultCacheStats snapshots result-cache effectiveness.
	ResultCacheStats = sched.ResultCacheStats
	// CompileError marks a SQL statement that failed to parse, plan or
	// bind (as opposed to an execution failure); detect with errors.As.
	CompileError = sql.CompileError
	// Coordinator scatters queries across aquoman-serve worker nodes and
	// merges the partials (see internal/cluster and DB.NewCoordinator).
	Coordinator = cluster.Coordinator
	// ClusterNode names one worker of a cluster (base URL + optional
	// mirror URL).
	ClusterNode = cluster.Node
	// ClusterConfig parameterizes a Coordinator.
	ClusterConfig = cluster.Config
	// ClusterReport describes how one query executed across the cluster.
	ClusterReport = distrib.Report
	// ClusterNodeError is a node's typed failure: every failover tier
	// exhausted, or an error no tier can cure.
	ClusterNodeError = distrib.ShardError
	// ClusterProtocolError is a typed violation of the partial-result wire
	// protocol (truncated/garbled/miscounted worker stream).
	ClusterProtocolError = cluster.ProtocolError
	// Encoding selects a column storage codec (see internal/enc):
	// EncRaw, EncAuto, EncDict, EncRLE, EncFOR.
	Encoding = enc.Selection
)

// Column encoding selections (see SetDefaultEncoding / ReEncodeStore).
const (
	EncRaw  = enc.SelRaw
	EncAuto = enc.SelAuto
	EncDict = enc.SelDict
	EncRLE  = enc.SelRLE
	EncFOR  = enc.SelFOR
)

// ParseEncoding parses an -enc flag value: auto|raw|dict|rle|for.
func ParseEncoding(s string) (Encoding, error) { return enc.ParseSelection(s) }

// NewLifecycle starts a per-query wait-state recorder (wall time runs
// from this call).
func NewLifecycle(id string) *Lifecycle { return obs.NewLifecycle(id) }

// WithLifecycle attaches a lifecycle recorder to a submission context.
func WithLifecycle(ctx context.Context, lc *Lifecycle) context.Context {
	return obs.WithLifecycle(ctx, lc)
}

// LifecycleFrom returns the lifecycle attached to ctx, or nil.
func LifecycleFrom(ctx context.Context) *Lifecycle { return obs.LifecycleFrom(ctx) }

// Scheduler backpressure errors (see DB.Submit).
var (
	// ErrQueueFull is returned by Submit when the pending queue is at its
	// configured depth.
	ErrQueueFull = sched.ErrQueueFull
	// ErrSchedulerClosed is returned by Submit after DB.Close.
	ErrSchedulerClosed = sched.ErrClosed
	// ErrTenantQuota is the errors.Is target for per-tenant admission
	// rejections (*QuotaError); the HTTP tier maps it to 429 where a
	// scheduler-wide ErrQueueFull maps to 503.
	ErrTenantQuota = sched.ErrTenantQuota
)

// Scheduler priority lanes.
const (
	LaneInteractive = sched.LaneInteractive
	LaneBatch       = sched.LaneBatch
)

// ParseLane parses a lane name ("interactive" or "batch").
func ParseLane(s string) (Lane, error) { return sched.ParseLane(s) }

// CanonicalSQL renders a statement in the canonical form used as the
// result-cache key: whitespace, comment, keyword-case, and top-level
// AND-conjunct-order variants collide; different token content never
// does.
func CanonicalSQL(src string) string { return sql.Canonicalize(src) }

// Column type constants.
const (
	Int64   = col.Int64
	Int32   = col.Int32
	Date    = col.Date
	Decimal = col.Decimal
	Dict    = col.Dict
	Text    = col.Text
	Bool    = col.Bool
)

// DRAM capacity presets (Table VI).
const (
	DRAM40GB = mem.DefaultCapacity
	DRAM16GB = mem.SmallCapacity
)

// DB couples a flash device, its column store, and an AQUOMAN runtime.
type DB struct {
	Flash *flash.Device
	Store *col.Store

	// DRAMBytes sizes the accelerator DRAM for offloaded runs.
	DRAMBytes int64
	// HeapScale scales string-heap sizes for offload decisions to the
	// modeled deployment scale (see internal/compiler).
	HeapScale float64

	// DisableFusion forces offloaded aggregation tasks onto the staged
	// executor path instead of the fused zero-allocation scan. The fused
	// path is exact; this switch exists for differential testing and
	// performance comparison.
	DisableFusion bool

	// Obs (optional, see EnableObservability) collects metrics for every
	// query this DB runs.
	Obs *obs.Observer

	// mu guards the lazily created scheduler, caches, and catalog.
	mu     sync.Mutex
	sched  *sched.Scheduler
	cache  *sched.PageCache
	rcache *sched.ResultCache
	cat    *catalog.Catalog
	// clusterRole is "coordinator" or "partition" once this DB is one
	// part of a cluster; Exec then refuses writes (see ReadOnlyError).
	clusterRole string
}

// Open creates an empty in-memory AQUOMAN-augmented SSD.
func Open() *DB {
	dev := flash.NewDevice()
	return &DB{
		Flash:     dev,
		Store:     col.NewStore(dev),
		DRAMBytes: mem.DefaultCapacity,
		HeapScale: 1,
	}
}

// LoadTPCH generates the TPC-H data set at the given scale factor into
// the store (all eight tables plus the MonetDB-style materialized FK
// RowID columns AQUOMAN exploits).
func (db *DB) LoadTPCH(sf float64, seed int64) error {
	return tpch.Gen(db.Store, tpch.Config{SF: sf, Seed: seed})
}

// SetDefaultEncoding selects the storage codec for every column built
// after the call (EncAuto picks per column from sampled statistics; the
// zero value EncRaw keeps the legacy fixed-width layout). Set it before
// LoadTPCH or NewTable to build an encoded store.
func (db *DB) SetDefaultEncoding(sel Encoding) { db.Store.DefaultEncoding = sel }

// ReEncodeStore rewrites every column of every table under sel. Each
// column file is replaced in place, which bumps its generation and
// invalidates any page cache in front of the device. Call with no
// queries in flight.
func (db *DB) ReEncodeStore(sel Encoding) error {
	for _, name := range db.Store.Tables() {
		t, err := db.Store.Table(name)
		if err != nil {
			return err
		}
		if err := t.ReEncodeTable(sel); err != nil {
			return err
		}
	}
	return nil
}

// EnableObservability attaches a fresh Observer: a metrics registry with
// the flash device's per-requester page counters bound in. Subsequent
// queries count into it, and unscheduled ones fill Report.Metrics with
// their registry delta; nothing per-query is kept (spans are a query's
// own: see Request.Trace). Call with the DB idle; returns the observer for
// export (Prometheus text, expvar, HTTP handler).
func (db *DB) EnableObservability() *obs.Observer {
	o := obs.New()
	db.Obs = o
	db.Flash.Observe(o.Reg)
	db.mu.Lock()
	if db.cache != nil {
		db.cache.Observe(o.Reg)
	}
	if db.rcache != nil {
		db.rcache.Observe(o.Reg)
	}
	if db.sched != nil {
		db.sched.Observe(o.Reg)
	}
	db.mu.Unlock()
	return o
}

// WithFaults installs a fault injector on the DB's flash device and
// returns it for scripting (AddRule, KillDevice, Hook). When an observer
// is attached the injector's per-kind counters are mirrored into the same
// registry. Pass a nil injector to make the device fault-free again.
func (db *DB) WithFaults(inj *faults.Injector) *faults.Injector {
	if inj == nil {
		db.Flash.SetFaults(nil)
		return nil
	}
	db.Flash.SetFaults(inj)
	if db.Obs != nil {
		inj.Observe(db.Obs.Reg)
	}
	return inj
}

// SetRetryPolicy replaces the flash device's page-read retry policy
// (budget + exponential backoff; see flash.DefaultRetryPolicy).
func (db *DB) SetRetryPolicy(p RetryPolicy) { db.Flash.SetRetryPolicy(p) }

// ConfigureScheduler replaces the DB's query scheduler (closing any
// previous one after draining its queue). Zero-value fields take the
// defaults (4 in-flight, queue depth 64). Call with no queries in flight.
func (db *DB) ConfigureScheduler(cfg SchedulerConfig) {
	db.mu.Lock()
	old := db.sched
	db.newSchedulerLocked(cfg)
	db.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

func (db *DB) newSchedulerLocked(cfg SchedulerConfig) {
	db.sched = sched.NewScheduler(cfg)
	if db.Obs != nil {
		db.sched.Observe(db.Obs.Reg)
	}
}

// scheduler returns the DB's scheduler, creating a default one on first use.
func (db *DB) scheduler() *sched.Scheduler {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.sched == nil {
		db.newSchedulerLocked(SchedulerConfig{})
	}
	return db.sched
}

// Close drains and stops the scheduler (if one was ever created). Queries
// already queued still run to completion; new Submits fail with
// ErrSchedulerClosed.
func (db *DB) Close() {
	db.mu.Lock()
	s := db.sched
	db.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// EnableCache installs a shared single-flight LRU page cache of maxBytes
// in front of the DB's flash device and returns it. Page reads served
// from the cache cost no device I/O (and, under fault injection, consume
// no injected faults). Safe to call before queries start.
func (db *DB) EnableCache(maxBytes int64) *PageCache {
	c := sched.NewPageCache(maxBytes)
	db.mu.Lock()
	db.cache = c
	if db.Obs != nil {
		c.Observe(db.Obs.Reg)
	}
	db.mu.Unlock()
	db.Flash.SetPageCache(c)
	return c
}

// CacheStats snapshots the page cache's hit/miss/eviction counters (zero
// value when no cache is installed).
func (db *DB) CacheStats() CacheStats {
	db.mu.Lock()
	c := db.cache
	db.mu.Unlock()
	if c == nil {
		return CacheStats{}
	}
	return c.Stats()
}

// EnableResultCache installs a generation-keyed, single-flight query
// result cache above the page cache and returns it. Entries are keyed on
// a caller-chosen canonical query key (see CanonicalSQL) plus a
// fingerprint of the backing files' generation counters captured at
// lookup, so any store mutation — re-encode, rebuild, write — strands
// stale entries instead of serving them. maxBytes bounds the resident
// set; perTenantBytes (0 = off) additionally bounds any one tenant's
// share so a churning tenant cannot evict everyone else.
func (db *DB) EnableResultCache(maxBytes, perTenantBytes int64) *ResultCache {
	c := sched.NewResultCache(maxBytes, perTenantBytes)
	db.mu.Lock()
	db.rcache = c
	if db.Obs != nil {
		c.Observe(db.Obs.Reg)
	}
	db.mu.Unlock()
	return c
}

// ResultCacheHandle returns the installed result cache, or nil.
func (db *DB) ResultCacheHandle() *ResultCache {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rcache
}

// ResultCacheStats snapshots the result cache's counters (zero value
// when no result cache is installed).
func (db *DB) ResultCacheStats() ResultCacheStats {
	db.mu.Lock()
	c := db.rcache
	db.mu.Unlock()
	if c == nil {
		return ResultCacheStats{}
	}
	return c.Stats()
}

// resultFingerprint renders the generation counters of every flash file
// backing the plan's base tables (column files and string heaps share
// the "table/" name prefix). Two equal fingerprints bracket a window in
// which no backing file was created, removed, or written.
func (db *DB) resultFingerprint(p Plan) string {
	tables := plan.BaseTables(p)
	sort.Strings(tables)
	var sb strings.Builder
	for _, t := range tables {
		prefix := t + "/"
		for _, name := range db.Flash.Files() {
			if strings.HasPrefix(name, prefix) {
				fmt.Fprintf(&sb, "%s@%d;", name, db.Flash.Generation(name))
			}
		}
	}
	return sb.String()
}

// resultSize approximates a result's resident bytes for cache budgeting.
func resultSize(r *Result) int64 {
	n := int64(256)
	for _, c := range r.Batch.Cols {
		n += int64(len(c)) * 8
	}
	return n
}

// Request is one query for DB.Do or DB.Submit: what to run, where, and —
// optionally — how to admit it through the scheduler.
type Request struct {
	// Exactly one of Plan, SQL and TPCH names the query: a logical plan, a
	// SQL statement (see internal/sql for the dialect; a statement that
	// fails to compile is reported as *CompileError), or a TPC-H query
	// number 1..22 with the specification's validation parameters.
	Plan Plan
	SQL  string
	TPCH int

	// HostOnly executes the query entirely on the host engine (the
	// baseline systems of the evaluation) instead of offloading Table
	// Tasks to the in-storage pipeline.
	HostOnly bool
	// Trace makes the query's recorder keep its spans; it is returned in
	// Result.Trace ready for ChromeTrace() or Tree() export.
	Trace bool

	// Admit, when set, sends the query through the scheduler: it waits
	// for an in-flight slot beside the DB's other concurrent queries and
	// runs on a worker goroutine against the catalog snapshot taken as it
	// takes the slot. Its result carries no per-query flash traffic or metrics
	// delta: the device is shared, so attribution would be wrong — use
	// FlashStats and CacheStats for whole-device accounting. When nil the
	// query runs at once on the caller's goroutine and Report.Flash,
	// OffloadFraction and Metrics describe this query alone.
	Admit *Admission
}

// Admission attributes a scheduled Request.
type Admission struct {
	// Tenant is the submitting tenant ("" = the default tenant) and Lane
	// its priority lane (zero value: LaneInteractive).
	Tenant string
	Lane   Lane
	// Wait stalls the caller while the queue is full or the tenant is over
	// its quota (until ctx dies) instead of rejecting with ErrQueueFull or
	// *QuotaError.
	Wait bool
	// CacheKey, when non-empty and a result cache is installed (see
	// EnableResultCache), makes Do answer through that cache. It should be
	// the canonicalized query text (see CanonicalSQL) or any other stable
	// identifier of the logical query. Submit ignores it.
	CacheKey string
}

// Result is a finished query: its rows plus the execution report.
type Result struct {
	Batch  *engine.Batch
	Report *core.Report
	// CacheHit reports that Do served the result from the result cache.
	CacheHit bool
	// Trace is the query's own recorder (nil unless Request.Trace).
	Trace *Lifecycle
}

// Render formats up to maxRows of the result for display.
func (r *Result) Render(maxRows int) string { return r.Batch.Render(maxRows) }

// NumRows returns the result cardinality.
func (r *Result) NumRows() int { return r.Batch.NumRows() }

// Ticket tracks one query submitted to the scheduler.
type Ticket struct {
	t *sched.Ticket
}

// Wait blocks until the query has run and returns its result.
func (t *Ticket) Wait() (*Result, error) {
	v, err := t.t.Wait()
	if err != nil {
		return nil, err
	}
	res, _ := v.(*Result)
	return res, nil
}

// Done returns a channel closed when the query has completed.
func (t *Ticket) Done() <-chan struct{} { return t.t.Done() }

// Round reports the scheduling round at which the query began executing.
func (t *Ticket) Round() int64 { return t.t.Round() }

// Do executes one query and returns its result. On the AQUOMAN-augmented
// system the offload compiler extracts Table-Task units, the in-storage
// pipeline streams them, and the host engine finishes the residual plan.
// The query stops — and stops consuming simulated flash bandwidth —
// shortly after ctx dies, returning ctx's error; a nil ctx never cancels.
// With req.Admit set, Do is Submit followed by Wait, through the result
// cache when the admission names a cache key.
func (db *DB) Do(ctx context.Context, req Request) (*Result, error) {
	p, err := db.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	req.Plan = p
	if req.Admit == nil {
		return db.run(ctx, &req, false)
	}
	scheduled := func() (*Result, error) {
		t, err := db.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		return t.Wait()
	}
	rc := db.ResultCacheHandle()
	if rc == nil || req.Admit.CacheKey == "" {
		return scheduled()
	}
	// Lookup, a wait on another caller's execution, and the bookkeeping
	// around a miss are the cache's time; the execution nests its own.
	defer obs.LifecycleFrom(ctx).Begin(obs.StateResultCacheHit, "result-cache").End()
	// The fingerprint is captured *before* the lookup, so two calls
	// bracketing a store mutation can never share an entry or an in-flight
	// execution, and a result that raced a mutation is returned but not
	// cached.
	fp := db.resultFingerprint(p)
	v, hit, err := rc.Do(ctx, req.Admit.Tenant, req.Admit.CacheKey, fp,
		func() (interface{}, int64, error) {
			res, err := scheduled()
			if err != nil {
				return nil, 0, err
			}
			return res, resultSize(res), nil
		},
		func() bool { return db.resultFingerprint(p) == fp })
	if err != nil {
		return nil, err
	}
	res := *v.(*Result) // the cached value is shared: mark a copy
	res.CacheHit = hit
	return &res, nil
}

// Submit enqueues one query for concurrent execution and returns
// immediately with a Ticket (a nil req.Admit means the default tenant's
// interactive lane, without waiting). It fails fast with ErrQueueFull
// when the scheduler's pending queue is at capacity, with *QuotaError
// when the tenant is over its own admission quota, and with
// ErrSchedulerClosed after Close. ctx is threaded into the query's
// execution, and a query cancelled while still queued is skipped without
// occupying an in-flight slot. A nil ctx never cancels.
func (db *DB) Submit(ctx context.Context, req Request) (*Ticket, error) {
	p, err := db.plan(ctx, req)
	if err != nil {
		return nil, err
	}
	req.Plan = p
	var adm Admission
	if req.Admit != nil {
		adm = *req.Admit
	}
	t, err := db.scheduler().SubmitTenant(ctx,
		sched.SubmitOpts{Tenant: adm.Tenant, Lane: adm.Lane, Wait: adm.Wait},
		func(ctx context.Context) (interface{}, error) { return db.run(ctx, &req, true) })
	if err != nil {
		return nil, err
	}
	return &Ticket{t: t}, nil
}

// plan resolves the request's query to a logical plan.
func (db *DB) plan(ctx context.Context, req Request) (Plan, error) {
	switch {
	case req.Plan != nil:
		return req.Plan, nil
	case req.SQL != "":
		defer obs.LifecycleFrom(ctx).Begin(obs.StateCompile, "plan").End()
		return sql.Plan(req.SQL, db.Store)
	}
	return TPCHQuery(req.TPCH)
}

// run executes a resolved request. shared marks a scheduler-run query:
// the device is shared with concurrent queries, so per-query flash and
// metrics attribution is disabled. The query records into its context's
// Lifecycle, or into one of its own.
func (db *DB) run(ctx context.Context, req *Request, shared bool) (*Result, error) {
	ctx, lc := obs.Ensure(ctx, db.Obs.Registry())
	if req.Trace {
		lc.Retain()
	}
	cfg := core.Config{
		DRAMBytes:      db.DRAMBytes,
		Compiler:       compiler.Config{HeapScale: db.HeapScale},
		DisableOffload: req.HostOnly,
		DisableFusion:  db.DisableFusion,
		SharedDevice:   shared,
		Ctx:            ctx,
	}
	if err := plan.Bind(req.Plan, db.Store); err != nil {
		return nil, err
	}
	if err := db.attachOverlays(req.Plan, &cfg); err != nil {
		return nil, err
	}
	b, rep, err := core.New(db.Store, cfg).RunQuery(req.Plan)
	if err != nil {
		return nil, err
	}
	res := &Result{Batch: b, Report: rep}
	if req.Trace {
		res.Trace = lc
	}
	return res, nil
}

// The entry points below predate Request and are kept, as aliases of Do
// and Submit, for their callers in cmd/, examples/ and benchmark/.

// Run is Do for a plan, on the caller's goroutine, never cancelled.
func (db *DB) Run(p Plan) (*Result, error) { return db.Do(nil, Request{Plan: p}) }

// Query is Do for a SQL statement, on the caller's goroutine.
func (db *DB) Query(src string) (*Result, error) { return db.Do(nil, Request{SQL: src}) }

// QueryCtx is Query with cooperative cancellation. Compile failures are
// reported as *CompileError; context errors propagate as-is.
func (db *DB) QueryCtx(ctx context.Context, src string) (*Result, error) {
	return db.Do(ctx, Request{SQL: src})
}

// QueryHostOnly is Query on the host baseline.
func (db *DB) QueryHostOnly(src string) (*Result, error) {
	return db.Do(nil, Request{SQL: src, HostOnly: true})
}

// RunTPCH runs TPC-H query q on the AQUOMAN system.
func (db *DB) RunTPCH(q int) (*Result, error) { return db.Do(nil, Request{TPCH: q}) }

// RunTPCHHostOnly runs TPC-H query q on the host baseline.
func (db *DB) RunTPCHHostOnly(q int) (*Result, error) {
	return db.Do(nil, Request{TPCH: q, HostOnly: true})
}

// SubmitWaitCtx is Submit for a plan with blocking admission: when the
// queue is full it stalls the caller instead of returning ErrQueueFull,
// and unblocks with ctx's error when ctx dies.
func (db *DB) SubmitWaitCtx(ctx context.Context, p Plan) (*Ticket, error) {
	return db.Submit(ctx, Request{Plan: p, Admit: &Admission{Wait: true}})
}

// RunConcurrent submits all plans through the scheduler (blocking
// admission) and waits for every one. results[i] corresponds to plans[i];
// the first error (if any) is returned, with the remaining results intact.
func (db *DB) RunConcurrent(plans []Plan) ([]*Result, error) {
	tickets := make([]*Ticket, len(plans))
	var firstErr error
	for i, p := range plans {
		t, err := db.SubmitWaitCtx(nil, p)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("submit plan %d: %w", i, err)
			}
			continue
		}
		tickets[i] = t
	}
	results := make([]*Result, len(plans))
	for i, t := range tickets {
		if t == nil {
			continue
		}
		res, err := t.Wait()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("plan %d: %w", i, err)
		}
		results[i] = res
	}
	return results, firstErr
}

// Explain compiles a plan without executing it and renders the Table-Task
// program AQUOMAN would run (the Fig. 5 listing), plus suspension notes.
func (db *DB) Explain(p Plan) (string, error) {
	if err := plan.Bind(p, db.Store); err != nil {
		return "", err
	}
	res, err := compiler.Compile(p, db.Store, compiler.Config{HeapScale: db.HeapScale})
	if err != nil {
		return "", err
	}
	return res.Explain(), nil
}

// TPCHQuery returns a fresh plan for TPC-H query q (1..22) with the
// specification's validation parameters.
func TPCHQuery(q int) (Plan, error) {
	def, err := tpch.Get(q)
	if err != nil {
		return nil, err
	}
	return def.Build(), nil
}

// NewCoordinator turns this DB into a cluster coordinator over nodes:
// queries scatter per-shard partial plans to the workers (node d must
// serve shard d of a len(nodes)-way partitioning — see ExtractPartition
// and aquoman-serve's -partition flag), and the partials merge on this
// DB's full replica store. Failed nodes retry, fail over to their mirror
// URL, and finally degrade to a coordinator-local shard copy. Cluster
// counters land in this DB's observer when one is enabled. The cluster is
// read-only: from here on Exec on this DB fails with *ReadOnlyError.
func (db *DB) NewCoordinator(nodes []ClusterNode) (*Coordinator, error) {
	c, err := cluster.New(cluster.Config{
		Nodes:     nodes,
		Store:     db.Store,
		DRAMBytes: db.DRAMBytes,
		HeapScale: db.HeapScale,
		Obs:       db.Obs,
	})
	if err == nil {
		db.setClusterRole("coordinator")
	}
	return c, err
}

func (db *DB) setClusterRole(role string) {
	db.mu.Lock()
	db.clusterRole = role
	db.mu.Unlock()
}

// ExtractPartition replaces this DB's (empty) store contents with shard d
// of an n-way partitioning of src: orders/lineitem rows co-partitioned by
// order key, dimensions replicated, dictionaries seeded with src's full
// domains so codes stay globally consistent. This is how an
// aquoman-serve worker derives its partition from the common generator
// output. A partition is read-only: Exec on it fails with *ReadOnlyError.
func (db *DB) ExtractPartition(src *DB, d, n int) error {
	if err := distrib.ExtractShard(db.Store, src.Store, d, n); err != nil {
		return err
	}
	db.setClusterRole("partition")
	return nil
}

// Evaluator builds the Fig. 16 experiment driver over this store,
// modeling the paper's SF-1000 deployment. halfDB may be nil; providing a
// half-scale data set lets the model measure how group counts grow with
// scale (more accurate spill-over extrapolation).
func (db *DB) Evaluator(halfDB *DB, targetSF float64) *perf.Evaluator {
	ev := &perf.Evaluator{Store: db.Store, TargetSF: targetSF, Rates: perf.DefaultRates()}
	if halfDB != nil {
		ev.HalfStore = halfDB.Store
	}
	return ev
}

// FlashStats returns the device's cumulative traffic counters.
func (db *DB) FlashStats() flash.Stats { return db.Flash.Stats() }

// ResetFlashStats zeroes the traffic counters.
func (db *DB) ResetFlashStats() { db.Flash.ResetStats() }

// Save persists the store (catalog plus all column and heap files) to a
// directory; OpenDir loads it back. A write-path catalog, if one exists,
// saves its epoch sidecar alongside. Only base pages are persisted, so
// Save refuses with ErrUnmergedDelta while acknowledged writes still sit
// in a delta — call Merge first to fold them into base pages.
func (db *DB) Save(dir string) error {
	db.mu.Lock()
	cat := db.cat
	db.mu.Unlock()
	if cat != nil && cat.Dirty() {
		return ErrUnmergedDelta
	}
	if err := col.SaveStore(db.Store, dir); err != nil || cat == nil {
		return err
	}
	return cat.SaveMeta(dir)
}

// OpenDir opens a store previously written by Save, restoring the
// write-path catalog's epoch from its sidecar when one is present.
func OpenDir(dir string) (*DB, error) {
	dev := flash.NewDevice()
	store, err := col.LoadStore(dir, dev)
	if err != nil {
		return nil, err
	}
	db := &DB{Flash: dev, Store: store, DRAMBytes: mem.DefaultCapacity, HeapScale: 1}
	if err := db.Catalog().LoadMeta(dir); err != nil {
		return nil, err
	}
	return db, nil
}

// NewTable starts building a custom table; see col.TableBuilder.
func (db *DB) NewTable(schema Schema) *col.TableBuilder { return db.Store.NewTable(schema) }

// MaterializeFK builds the MonetDB-style RowID join index for
// fact.fkCol referencing dim.pkCol — required before AQUOMAN can offload
// joins over the pair.
func (db *DB) MaterializeFK(fact, fkCol, dim, pkCol string) error {
	f, err := db.Store.Table(fact)
	if err != nil {
		return err
	}
	d, err := db.Store.Table(dim)
	if err != nil {
		return err
	}
	return col.MaterializeFK(f, fkCol, d, pkCol)
}

// Version identifies the reproduction.
const Version = "aquoman-repro 1.0 (MICRO 2020, Xu et al.)"
