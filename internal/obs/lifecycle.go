package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// State names one phase of a query's lifecycle. Every nanosecond of a
// query's wall time should be attributable to exactly one state: the
// scheduler attributes queue wait, the table-task executor attributes
// per-stage CPU, the flash layer attributes device reads vs. page-cache
// hits vs. single-flight coalesce waits, and the server attributes
// result emission. The per-stage CPU states are *exclusive*: time a
// stage spends inside the flash layer is recorded as a flash state and
// subtracted from the enclosing stage, so the per-query sum of states
// approximates wall time instead of double counting.
type State int

const (
	StateQueueWait      State = iota // sched: admitted but waiting for an in-flight slot
	StateCompile                     // core: SQL/plan compilation
	StateRowSel                      // table task: row-selector predicate evaluation (CPU)
	StateRead                        // table task: column stream + gather decode (CPU)
	StateSystolic                    // table task: systolic row-transformer (CPU)
	StateSwissknife                  // table task: SQL Swissknife operator (CPU)
	StateSorter                      // table task: streaming sort/merge (CPU)
	StateHost                        // core: host-side engine execution (CPU)
	StateDeviceRead                  // flash: simulated NAND page reads (includes tR latency)
	StateCacheHit                    // flash: page served from the shared cache
	StateCoalesceWait                // flash: waiting on another query's in-flight read
	StateEmit                        // server: streaming the result to the client
	StateScatterWait                 // cluster: coordinator waiting on worker partials
	StateMerge                       // cluster: coordinator-side partial-result merge
	StateResultCacheHit              // server: whole result served from the query result cache
	NumStates                        // count sentinel, not a state
)

var stateNames = [NumStates]string{
	"queue_wait", "compile", "rowsel", "read", "systolic", "swissknife",
	"sorter", "host", "device_read", "cache_hit", "coalesce_wait", "emit",
	"scatter_wait", "merge", "result_cache_hit",
}

// String returns the snake_case state name used in metric labels, the
// slow-query log, and the benchmark's lifecycle.<state>_pct metrics.
func (s State) String() string {
	if s < 0 || s >= NumStates {
		return "unknown"
	}
	return stateNames[s]
}

// StateNames lists every state name in State order.
func StateNames() []string {
	out := make([]string, NumStates)
	copy(out, stateNames[:])
	return out
}

// Lifecycle accumulates per-state time for one query. All updates are
// atomic and a nil *Lifecycle no-ops on every method, so instrumented
// paths record unconditionally whether or not telemetry is attached.
//
// The nested counter tracks the total time attributed to *any* state;
// exclusive regions (Cursor.Mark, ExclusiveTimer) subtract the nested
// attribution that occurred inside their window, which is what keeps a
// page-cache coalesce wait from also counting as rowsel CPU.
type Lifecycle struct {
	ID     string
	start  time.Time
	wall   atomic.Int64 // frozen wall time in ns; 0 until Finish
	nested atomic.Int64 // total ns attributed across all states, minus debt
	debt   atomic.Int64 // ns double-attributed by concurrent adds (see below)
	states [NumStates]atomic.Int64
}

// NewLifecycle starts a recorder; wall time is measured from this call.
func NewLifecycle(id string) *Lifecycle {
	return &Lifecycle{ID: id, start: time.Now()}
}

// Add attributes d to state s (no-op for nil receivers or d <= 0).
func (lc *Lifecycle) Add(s State, d time.Duration) {
	if lc == nil || d <= 0 || s < 0 || s >= NumStates {
		return
	}
	lc.states[s].Add(int64(d))
	lc.nested.Add(int64(d))
}

// addExclusive closes an exclusive region whose remainder is r. A
// positive remainder is a normal Add. A negative remainder means an Add
// from outside this goroutine's call stack landed inside the window —
// a coalesced cache fill completing between Mark regions, a cluster
// worker attributing flash time while the coordinator holds a
// scatter-wait window — so the same nanoseconds were attributed twice.
// The overcount is banked as debt and subtracted from nested so the
// enclosing window is not charged for it a second time; Finish settles
// the debt by scaling states back down, keeping Σstates ≤ wall.
func (lc *Lifecycle) addExclusive(s State, r time.Duration) {
	if r >= 0 {
		lc.Add(s, r)
		return
	}
	lc.debt.Add(int64(-r))
	lc.nested.Add(int64(r))
}

// Timer starts an inclusive region: the returned func attributes the
// elapsed time to s. Use for leaf states that contain no instrumented
// sub-states (emit, device reads).
func (lc *Lifecycle) Timer(s State) func() {
	if lc == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { lc.Add(s, time.Since(t0)) }
}

// ExclusiveTimer starts an exclusive region: the returned func
// attributes the elapsed time minus whatever was attributed to other
// states during the window. Use for stages that call into instrumented
// layers (a host scan that reads flash, a swissknife op that sorts).
func (lc *Lifecycle) ExclusiveTimer(s State) func() {
	if lc == nil {
		return func() {}
	}
	t0 := time.Now()
	n0 := lc.nested.Load()
	return func() {
		lc.addExclusive(s, time.Since(t0)-time.Duration(lc.nested.Load()-n0))
	}
}

// Cursor walks one goroutine's timeline, attributing contiguous regions
// between Mark calls. Like ExclusiveTimer, each region excludes time
// already attributed to nested states inside it. A nil Lifecycle yields
// a nil Cursor whose methods no-op.
type Cursor struct {
	lc     *Lifecycle
	last   time.Time
	nested int64
}

// Cursor starts a timeline cursor at now.
func (lc *Lifecycle) Cursor() *Cursor {
	if lc == nil {
		return nil
	}
	return &Cursor{lc: lc, last: time.Now(), nested: lc.nested.Load()}
}

// Mark attributes the time since the previous Mark (or Cursor creation)
// to s, excluding nested attribution, and advances the cursor.
func (cu *Cursor) Mark(s State) {
	if cu == nil {
		return
	}
	now := time.Now()
	cu.lc.addExclusive(s, now.Sub(cu.last)-time.Duration(cu.lc.nested.Load()-cu.nested))
	cu.last = now
	cu.nested = cu.lc.nested.Load()
}

// Split attributes the time since the previous Mark among states in
// proportion to weights — all of it to states[0] when no weight is
// positive — excluding nested attribution, and advances the cursor. A hot
// loop uses it to time the stages of a sample of its iterations and charge
// the whole region by the sample's proportions, instead of reading the
// clock at every stage of every iteration: the region's length is still
// measured, only its division is estimated.
func (cu *Cursor) Split(states []State, weights []time.Duration) {
	if cu == nil {
		return
	}
	now := time.Now()
	r := now.Sub(cu.last) - time.Duration(cu.lc.nested.Load()-cu.nested)
	var sum time.Duration
	for _, w := range weights {
		sum += max(w, 0)
	}
	rest := r
	if r > 0 && sum > 0 {
		for i := 1; i < len(states); i++ {
			d := time.Duration(float64(r) * float64(max(weights[i], 0)) / float64(sum))
			cu.lc.Add(states[i], d)
			rest -= d
		}
	}
	cu.lc.addExclusive(states[0], rest)
	cu.last = now
	cu.nested = cu.lc.nested.Load()
}

// Skip advances the cursor without attributing the elapsed region.
func (cu *Cursor) Skip() {
	if cu == nil {
		return
	}
	cu.last = time.Now()
	cu.nested = cu.lc.nested.Load()
}

// State returns the time attributed to s so far.
func (lc *Lifecycle) State(s State) time.Duration {
	if lc == nil || s < 0 || s >= NumStates {
		return 0
	}
	return time.Duration(lc.states[s].Load())
}

// Attributed returns the total time attributed across all states.
func (lc *Lifecycle) Attributed() time.Duration {
	if lc == nil {
		return 0
	}
	return time.Duration(lc.nested.Load())
}

// Finish freezes the wall clock (first call wins) and returns it. The
// first call also settles any attribution debt: when concurrent adds
// landed inside exclusive windows, the per-state totals overcount the
// attributed total by exactly the banked debt, so each state is scaled
// down proportionally until Σstates equals Attributed() again. This is
// what keeps the per-query breakdown summing to ≤ wall time even when
// cache fills or cluster workers attribute from other goroutines.
func (lc *Lifecycle) Finish() time.Duration {
	if lc == nil {
		return 0
	}
	if lc.wall.CompareAndSwap(0, int64(time.Since(lc.start))) {
		lc.settle()
	}
	return time.Duration(lc.wall.Load())
}

// settle reconciles Σstates with the attributed total (see Finish).
func (lc *Lifecycle) settle() {
	debt := lc.debt.Load()
	if debt <= 0 {
		return
	}
	attributed := lc.nested.Load()
	gross := attributed + debt
	if gross <= 0 || attributed < 0 {
		attributed = 0
	}
	for s := range lc.states {
		v := lc.states[s].Load()
		if v <= 0 {
			continue
		}
		keep := int64(0)
		if attributed > 0 {
			keep = int64(float64(v) * float64(attributed) / float64(gross))
		}
		lc.states[s].Add(keep - v)
	}
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

// Coverage is Attributed/Wall in [0, ~1]: the fraction of wall time
// explained by named states (0 when wall is 0).
func (lc *Lifecycle) Coverage() float64 {
	if lc == nil {
		return 0
	}
	w := lc.Wall()
	if w <= 0 {
		return 0
	}
	return float64(lc.Attributed()) / float64(w)
}

// Breakdown returns state name -> attributed nanoseconds for every
// state (zero-valued states included, so consumers see a stable key
// set). Nil receivers return nil.
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
	reg.Counter("query_attributed_ns_total").Add(lc.nested.Load())
}

// lifecycleKey carries a *Lifecycle through a context.
type lifecycleKey struct{}

// WithLifecycle attaches lc to ctx (Background when ctx is nil) so the
// scheduler, flash layer, and executor can attribute into it.
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
