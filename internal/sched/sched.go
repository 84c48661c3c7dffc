package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aquoman/internal/obs"
)

// ErrQueueFull is returned by a non-waiting submission when the pending
// queue is at its configured depth; the caller should back off or shed load.
var ErrQueueFull = errors.New("sched: queue full")

// ErrClosed is returned by submissions after Close has been called.
var ErrClosed = errors.New("sched: scheduler closed")

// Config sizes the scheduler's admission control.
type Config struct {
	// MaxInFlight is the number of queries executed concurrently
	// (worker goroutines). Values < 1 default to 4.
	MaxInFlight int
	// QueueDepth is the capacity of the pending queue behind the
	// in-flight slots. Values < 1 default to 64.
	QueueDepth int
	// Tenants sets per-tenant weights and admission quotas (see
	// TenantConfig, SubmitOpts). Tenants not listed here are created on
	// first submission with the DefaultTenant configuration, so a nil map
	// and an empty one mean the same thing: every tenant on DefaultTenant.
	// With a single tenant on a single lane — what un-attributed
	// submissions are — stride scheduling grants in submission order, so
	// plain FIFO is this queue's one-tenant case, not a separate mode.
	Tenants map[string]TenantConfig
	// DefaultTenant configures tenants absent from Tenants. The zero
	// value means weight 1 with no quotas.
	DefaultTenant TenantConfig
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight < 1 {
		c.MaxInFlight = 4
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	return c
}

// JobCtx is one unit of admitted work: typically a full query, executed
// on a worker goroutine; the returned value is handed to Ticket.Wait
// verbatim. It receives the submission's context so the work can honour
// cancellation cooperatively. The scheduler itself also uses the context:
// a job whose context dies while still queued is skipped (its ticket
// fails with the context error) without ever occupying an in-flight slot.
type JobCtx func(ctx context.Context) (interface{}, error)

// Ticket tracks one submitted job through the scheduler.
type Ticket struct {
	done   chan struct{}
	result interface{}
	err    error
	round  atomic.Int64
}

// Wait blocks until the job has run (or the scheduler rejected it) and
// returns its result. Wait may be called from multiple goroutines.
func (t *Ticket) Wait() (interface{}, error) {
	<-t.done
	return t.result, t.err
}

// Done returns a channel closed when the job has completed.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Round reports the scheduling round (global grant sequence number,
// starting at 1) at which the job began executing; 0 while it is still
// queued. Fairness tests assert that short queries' rounds stay bounded
// even while long queries occupy in-flight slots.
func (t *Ticket) Round() int64 { return t.round.Load() }

// Scheduler is an admission-controlled concurrent executor: at most
// MaxInFlight jobs run at once, at most QueueDepth wait behind them, and
// anything beyond that is rejected with ErrQueueFull.
type Scheduler struct {
	cfg    Config
	wg     sync.WaitGroup
	rounds atomic.Int64

	// The pending queue: a per-tenant, per-lane multi-queue with
	// weighted-fair grants, admission quotas, and interactive-over-batch
	// lane preemption. mu guards everything down to vtime, with two
	// conditions: idle workers wait on work and are signalled one per
	// grantable submission (a broadcast there would wake every idle worker
	// for each enqueue, only for all but one to go back to sleep), blocked
	// submitters wait on space and are all woken when a queue slot frees,
	// since each re-checks its own tenant's quota.
	mu      sync.Mutex
	work    *sync.Cond
	space   *sync.Cond
	closed  bool
	reg     *obs.Registry
	tenants map[string]*tenantState
	// order fixes the tie-break iteration order over tenants (map
	// iteration is randomized; grant decisions should not be).
	order []*tenantState
	// dynamic counts the states created for unconfigured names.
	dynamic int
	pending int
	// vtime tracks the pass of the most recent grant, used to forward
	// idle tenants when they rejoin.
	vtime float64

	inflight   *obs.Gauge
	queued     *obs.Gauge
	queueDepth *obs.Gauge // same occupancy as queued, canonical telemetry name
	queueCap   *obs.Gauge
	queueWait  *obs.Histogram
	submitted  *obs.Counter
	rejected   *obs.Counter
	completed  *obs.Counter
	panicked   *obs.Counter
	canceled   *obs.Counter
}

type submission struct {
	job      JobCtx
	ctx      context.Context // nil = never cancels
	ticket   *Ticket
	enqueued time.Time
	// wait is the query's queue_wait region: begun by the submitter, ended
	// by the worker that dequeues it. The queue's mutex orders the two.
	wait obs.Region
}

// NewScheduler starts cfg.MaxInFlight worker goroutines and returns the
// scheduler. Call Close to drain and stop them.
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{cfg: cfg, tenants: make(map[string]*tenantState)}
	s.work = sync.NewCond(&s.mu)
	s.space = sync.NewCond(&s.mu)
	// Materialize the default and the configured tenants eagerly so their
	// metric series exist (at zero) before the first submission arrives,
	// and so the overflow target of maxDynamicTenants always exists.
	s.tenantLocked(DefaultTenantName)
	for name := range cfg.Tenants {
		s.tenantLocked(name)
	}
	s.wg.Add(cfg.MaxInFlight)
	for i := 0; i < cfg.MaxInFlight; i++ {
		go s.worker()
	}
	return s
}

// Observe binds queue/in-flight gauges and admission counters into reg.
func (s *Scheduler) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.inflight = reg.Gauge("sched_inflight")
	s.queued = reg.Gauge("sched_queued")
	s.queueDepth = reg.Gauge("sched_queue_depth")
	s.queueCap = reg.Gauge("sched_queue_capacity")
	s.queueCap.Set(int64(s.cfg.QueueDepth))
	s.queueWait = reg.Histogram("sched_queue_wait_ns")
	s.submitted = reg.Counter("sched_submitted_total")
	s.rejected = reg.Counter("sched_rejected_total")
	s.completed = reg.Counter("sched_completed_total")
	s.panicked = reg.Counter("sched_panics_total")
	s.canceled = reg.Counter("sched_canceled_total")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	for _, ts := range s.order {
		ts.bind(reg)
	}
}

// SubmitWaitCtx enqueues job for the default tenant, blocking while the
// queue is full: backpressure stalls the producer rather than shedding
// load. A stalled caller unblocks with ctx's error when ctx dies, and a
// job still queued when ctx dies is skipped by the workers. A nil ctx
// never cancels. It otherwise only fails with ErrClosed.
func (s *Scheduler) SubmitWaitCtx(ctx context.Context, job JobCtx) (*Ticket, error) {
	return s.submit(ctx, SubmitOpts{Wait: true}, job)
}

// SubmitTenant enqueues a job attributed to a tenant and lane. With
// opts.Wait it blocks on backpressure like SubmitWaitCtx; otherwise it
// rejects with *QuotaError (tenant quota) or ErrQueueFull (global
// capacity) without blocking, and with ErrClosed after Close. The job
// receives ctx when it runs; admission itself only consults ctx while
// opts.Wait blocks.
func (s *Scheduler) SubmitTenant(ctx context.Context, opts SubmitOpts, job JobCtx) (*Ticket, error) {
	return s.submit(ctx, opts, job)
}

// Rounds reports the global grant sequence: the number of jobs that have
// begun executing.
func (s *Scheduler) Rounds() int64 { return s.rounds.Load() }

// Close stops admission, drains already-queued jobs, and waits for all
// workers to exit. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.work.Broadcast()
	s.space.Broadcast()
	s.wg.Wait()
}

// worker is the scheduler's one grant loop: take the next submission the
// queue's policy picks, account its queue wait, skip it if its context
// died while queued, else run it in this goroutine's in-flight slot.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		sub, ts := s.dequeue()
		if sub == nil {
			return
		}
		s.queued.Add(-1)
		s.queueDepth.Add(-1)
		ts.gQueued.Add(-1)
		wait := time.Since(sub.enqueued)
		s.queueWait.Observe(int64(wait))
		sub.wait.End()
		// A job whose context died while queued never runs: it would only
		// burn an in-flight slot (and simulated flash bandwidth) producing
		// a result nobody is waiting on.
		if sub.ctx != nil && sub.ctx.Err() != nil {
			sub.ticket.err = sub.ctx.Err()
			s.canceled.Inc()
		} else {
			s.inflight.Add(1)
			ts.gInflight.Add(1)
			sub.ticket.round.Store(s.rounds.Add(1))
			// Dispatch glue around the job (facade config setup, panic
			// guard) is host-side work no inner region claims.
			r := obs.LifecycleFrom(sub.ctx).Begin(obs.StateHost)
			s.run(sub)
			r.End()
			s.inflight.Add(-1)
			ts.gInflight.Add(-1)
			s.completed.Inc()
		}
		close(sub.ticket.done)
		s.release(ts)
	}
}

// run executes one job, converting a panic into an error on the ticket so
// a misbehaving query cannot take down the scheduler's worker pool.
func (s *Scheduler) run(sub *submission) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked.Inc()
			sub.ticket.err = fmt.Errorf("sched: query panicked: %v", r)
		}
	}()
	sub.ticket.result, sub.ticket.err = sub.job(sub.ctx)
}
