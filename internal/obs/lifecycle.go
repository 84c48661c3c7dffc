package obs

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// State names one phase of a query's lifecycle and is the recorder's only
// vocabulary: metric labels, the slow-query log, the benchmark's
// lifecycle.<state>_pct metrics, Chrome trace categories and the span
// tree's [state] share these names. Structural regions (query, unit, task,
// shard) carry StateHost, the state their un-nested time is charged to.
type State int

const (
	StateQueueWait      State = iota // sched: admitted but waiting for an in-flight slot
	StateCompile                     // core: SQL/plan compilation
	StateRowSel                      // table task: row-selector predicate evaluation (CPU)
	StateRead                        // table task: column stream + gather decode (CPU)
	StateSystolic                    // table task: systolic row-transformer (CPU)
	StateSwissknife                  // table task: SQL Swissknife operator (CPU)
	StateSorter                      // table task: streaming sort/merge (CPU)
	StateHost                        // core: host-side engine execution and glue (CPU)
	StateDeviceRead                  // flash: simulated NAND page reads (includes tR latency)
	StateCacheHit                    // flash: page served from the shared cache
	StateCoalesceWait                // flash: waiting on another query's in-flight read
	StateEmit                        // server: streaming the result to the client
	StateScatterWait                 // cluster: coordinator waiting on worker partials
	StateMerge                       // cluster: coordinator-side partial-result merge
	StateResultCacheHit              // server: lookup of, or wait on, the query result cache
	NumStates                        // count sentinel, not a state
)

// unattributed is where a recorder's timeline sits outside every region:
// time nobody claimed, which is what Coverage measures.
const unattributed = NumStates

var stateNames = [NumStates]string{
	"queue_wait", "compile", "rowsel", "read", "systolic", "swissknife",
	"sorter", "host", "device_read", "cache_hit", "coalesce_wait", "emit",
	"scatter_wait", "merge", "result_cache_hit",
}

// String returns the snake_case state name.
func (s State) String() string {
	if s < 0 || s >= NumStates {
		return "unknown"
	}
	return stateNames[s]
}

// Lifecycle is the one per-query recorder, carried on the query's context.
// It keeps a timeline: exactly one state is current at any instant, Begin
// switches to a region's state and End back to the enclosing one, so every
// nanosecond between creation and Finish lands in exactly one state (or in
// none: unattributed) and Σstates ≤ wall needs no subtraction and no
// repair. A nil *Lifecycle no-ops on every method.
//
// The accumulators are atomic, so a reader (a handler that gave up on its
// query and logs) is always safe. The timeline cursor is not: it belongs to
// the goroutine that holds the query, and hand-offs (handler → scheduler
// worker → handler) must be ordered, as the scheduler's queue and ticket
// order them. Work that runs beside the holder takes a Fork.
type Lifecycle struct {
	// ID names the query (X-Query-ID); a fork inherits it.
	ID string
	// Name labels a fork ("shard 0"); empty on a query's own recorder.
	Name string
	// Reg is the registry the query's sites count into (nil: none).
	Reg *Registry

	start  time.Time
	wall   atomic.Int64 // frozen wall time in ns; 0 until Finish
	states [NumStates + 1]atomic.Int64
	depth  atomic.Int32 // regions begun and not yet ended

	// The timeline cursor: the current state and when it became current,
	// as an offset from start.
	cur   State
	since time.Duration

	// Retention (see Retain): the span store shared with every fork, the
	// ID of the innermost open span, this recorder's Chrome lane, and the
	// offset of start from the store's time base.
	tr   *trace
	open int64
	lane int
	skew time.Duration

	mu    sync.Mutex
	forks []*Lifecycle
}

// NewLifecycle starts a recorder; wall time is measured from this call.
func NewLifecycle(id string) *Lifecycle {
	lc := &Lifecycle{ID: id, cur: unattributed}
	lc.start = time.Now() // after the allocation: a GC it triggers is not the query's time
	return lc
}

// Registry returns the recorder's registry (nil for a nil recorder).
func (lc *Lifecycle) Registry() *Registry {
	if lc == nil {
		return nil
	}
	return lc.Reg
}

// segment closes the timeline segment ending at now and returns its length
// for the caller to charge. A segment ends at the frozen wall at the latest,
// so a worker outliving its caller's Finish cannot push Σstates past wall.
func (lc *Lifecycle) segment(now time.Duration) time.Duration {
	if w := time.Duration(lc.wall.Load()); w != 0 && now > w {
		now = w
	}
	d := now - lc.since
	if d <= 0 {
		return 0
	}
	lc.since = now
	return d
}

// Region is one open Begin. The zero Region (a nil recorder's) no-ops.
type Region struct {
	lc   *Lifecycle
	prev State
	sp   *SpanData // nil unless the recorder retains spans and the region is named
}

// Begin opens a region: the time until its End, minus the regions nested
// inside it, is charged to s. The name parts, joined by a space, label its
// span when the recorder retains spans; an unnamed region (a leaf such as a
// device read) is time only. Without retention Begin allocates nothing.
func (lc *Lifecycle) Begin(s State, name ...string) Region {
	if lc == nil {
		return Region{}
	}
	now := time.Since(lc.start)
	lc.states[lc.cur].Add(int64(lc.segment(now)))
	r := Region{lc: lc, prev: lc.cur}
	lc.cur = s
	lc.depth.Add(1)
	if lc.tr != nil && len(name) > 0 {
		r.sp = &SpanData{ParentID: lc.open, Name: strings.TrimSpace(strings.Join(name, " ")), State: s,
			Tid: lc.lane, Start: now + lc.skew, Dur: -1}
		lc.open = lc.tr.add(r.sp)
	}
	return r
}

// End closes the region and returns the timeline to the enclosing state.
func (r Region) End() {
	lc := r.lc
	if lc == nil {
		return
	}
	now := time.Since(lc.start)
	lc.states[lc.cur].Add(int64(lc.segment(now)))
	lc.cur = r.prev
	lc.depth.Add(-1)
	if r.sp != nil && r.sp.Dur < 0 { // a second End keeps the first end time
		lc.tr.mu.Lock()
		r.sp.Dur = max(now+lc.skew-r.sp.Start, 0)
		lc.tr.mu.Unlock()
		lc.open = r.sp.ParentID
	}
}

// EndSplit is End for a hot loop that timed the stages of a sample of its
// iterations: the segment since the last switch goes to states in
// proportion to weights (all to states[0] when none is positive), not to the
// region's own state. Its length is still measured, only its division
// estimated.
func (r Region) EndSplit(states []State, weights []time.Duration) {
	lc := r.lc
	if lc == nil {
		return
	}
	seg := lc.segment(time.Since(lc.start))
	var sum time.Duration
	for _, w := range weights {
		sum += max(w, 0)
	}
	rest := seg
	for i := 1; i < len(states) && sum > 0; i++ {
		d := time.Duration(float64(seg) * float64(max(weights[i], 0)) / float64(sum))
		lc.states[states[i]].Add(int64(d))
		rest -= d
	}
	lc.states[states[0]].Add(int64(rest))
	r.End()
}

// Fork returns a child recorder for work that runs beside lc's holder (one
// shard attempt of a scatter): its own timeline and Chrome lane, the
// parent's ID and registry. Its totals hang under the parent (Forks, the
// span tree, the slow-query line's children) and are never added to the
// parent's states. Safe to call from the forked goroutines.
func (lc *Lifecycle) Fork(name string, lane int) *Lifecycle {
	if lc == nil {
		return nil
	}
	c := &Lifecycle{ID: lc.ID, Name: name, Reg: lc.Reg, start: time.Now(), cur: unattributed}
	if lc.tr != nil {
		c.tr, c.open, c.lane, c.skew = lc.tr, lc.open, lane, c.start.Sub(lc.tr.base)
	}
	lc.mu.Lock()
	lc.forks = append(lc.forks, c)
	lc.mu.Unlock()
	return c
}

// Forks returns the recorders forked from lc so far, in fork order.
func (lc *Lifecycle) Forks() []*Lifecycle {
	if lc == nil {
		return nil
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]*Lifecycle(nil), lc.forks...)
}

// Open returns how many regions were begun and not ended: zero once the
// query is over, on every path.
func (lc *Lifecycle) Open() int { return int(lc.depth.Load()) }

// Attributed returns the total time attributed across all states.
func (lc *Lifecycle) Attributed() time.Duration {
	if lc == nil {
		return 0
	}
	var sum int64
	for s := State(0); s < NumStates; s++ {
		sum += lc.states[s].Load()
	}
	return time.Duration(sum)
}

// Unattributed returns the time the timeline spent outside every region.
// After a Finish by the holder, Attributed() + Unattributed() == Wall().
func (lc *Lifecycle) Unattributed() time.Duration {
	return time.Duration(lc.states[unattributed].Load())
}

// Finish freezes the wall clock (first call wins) and returns it. With no
// region open the caller holds the timeline, and its tail is closed too; a
// Finish racing a goroutine still inside a region (a handler giving up on
// its query) leaves the cursor alone and the open segment unclaimed.
func (lc *Lifecycle) Finish() time.Duration {
	if lc == nil {
		return 0
	}
	now := max(time.Since(lc.start), 1)
	if lc.wall.CompareAndSwap(0, int64(now)) && lc.depth.Load() == 0 {
		lc.states[lc.cur].Add(int64(lc.segment(now)))
	}
	return time.Duration(lc.wall.Load())
}

// Wall returns the frozen wall time, or time since start before Finish.
func (lc *Lifecycle) Wall() time.Duration {
	if lc == nil {
		return 0
	}
	if w := lc.wall.Load(); w != 0 {
		return time.Duration(w)
	}
	return time.Since(lc.start)
}

// Coverage is Attributed/Wall in [0, 1]: the fraction of wall time
// explained by named states (0 when wall is 0).
func (lc *Lifecycle) Coverage() float64 {
	if w := lc.Wall(); w > 0 {
		return float64(lc.Attributed()) / float64(w)
	}
	return 0
}

// Breakdown returns state name -> attributed nanoseconds for every state,
// zero-valued ones included, so consumers see a stable key set.
func (lc *Lifecycle) Breakdown() map[string]int64 {
	if lc == nil {
		return nil
	}
	m := make(map[string]int64, NumStates)
	for s := State(0); s < NumStates; s++ {
		m[s.String()] = lc.states[s].Load()
	}
	return m
}

// ObserveInto records the finished lifecycle into reg: wall time into
// the query_latency_ns histogram, each nonzero state into
// query_state_ns{state=...}, and attributed/wall totals into counters
// so aggregate coverage is derivable from /metrics alone.
func (lc *Lifecycle) ObserveInto(reg *Registry) {
	if lc == nil || reg == nil {
		return
	}
	wall := lc.Finish()
	reg.Histogram("query_latency_ns").Observe(int64(wall))
	for s := State(0); s < NumStates; s++ {
		if v := lc.states[s].Load(); v > 0 {
			reg.Histogram("query_state_ns", "state", s.String()).Observe(v)
		}
	}
	reg.Counter("query_wall_ns_total").Add(int64(wall))
	reg.Counter("query_attributed_ns_total").Add(int64(lc.Attributed()))
}

// lifecycleKey carries a *Lifecycle through a context.
type lifecycleKey struct{}

// WithLifecycle attaches lc to ctx (Background when ctx is nil) so every
// layer under the query can open regions in it.
func WithLifecycle(ctx context.Context, lc *Lifecycle) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if lc == nil {
		return ctx
	}
	return context.WithValue(ctx, lifecycleKey{}, lc)
}

// LifecycleFrom returns the lifecycle attached to ctx, or nil. A nil
// ctx is fine.
func LifecycleFrom(ctx context.Context) *Lifecycle {
	if ctx == nil {
		return nil
	}
	lc, _ := ctx.Value(lifecycleKey{}).(*Lifecycle)
	return lc
}

// Ensure returns ctx's recorder, attaching a fresh one when ctx carries
// none; reg becomes its registry unless it has one. Entry points with no
// front door above them call it, so the layers below find one recorder.
func Ensure(ctx context.Context, reg *Registry) (context.Context, *Lifecycle) {
	lc := LifecycleFrom(ctx)
	if lc == nil {
		lc = NewLifecycle("")
		ctx = WithLifecycle(ctx, lc)
	}
	if lc.Reg == nil {
		lc.Reg = reg
	}
	return ctx, lc
}
