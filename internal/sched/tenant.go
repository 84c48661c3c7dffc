package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aquoman/internal/obs"
)

// Lane selects one of the scheduler's two priority lanes. At dequeue
// time every queued interactive submission is granted before any queued
// batch submission, so dashboard point-queries preempt SF-scale scans
// that are still waiting for a slot (running scans are never stopped).
type Lane int

const (
	// LaneInteractive is the point-query lane (the default).
	LaneInteractive Lane = iota
	// LaneBatch is the scan lane for long, SF-scale queries.
	LaneBatch
	numLanes
)

// String returns "interactive" or "batch".
func (l Lane) String() string {
	if l == LaneBatch {
		return "batch"
	}
	return "interactive"
}

// ParseLane parses a lane name as used in URLs and flags.
func ParseLane(s string) (Lane, error) {
	switch s {
	case "interactive":
		return LaneInteractive, nil
	case "batch":
		return LaneBatch, nil
	}
	return LaneInteractive, fmt.Errorf("sched: unknown lane %q (want interactive or batch)", s)
}

// TenantConfig sizes one tenant's share of the scheduler.
type TenantConfig struct {
	// Weight is the tenant's share of grant rounds under contention
	// (stride scheduling: a weight-4 tenant receives 4x the grants of a
	// weight-1 tenant while both are backlogged). Values < 1 default to 1.
	Weight int
	// MaxQueued caps this tenant's queued submissions; exceeding it
	// rejects with a *QuotaError (mapped to HTTP 429 upstream) while
	// other tenants keep being admitted. 0 = bounded only by the
	// scheduler's global QueueDepth.
	MaxQueued int
	// MaxInFlight caps the tenant's concurrently executing queries; its
	// surplus queued work stays queued while other tenants' work is
	// granted past it. 0 = no per-tenant cap.
	MaxInFlight int
}

// DefaultTenantName is the tenant that un-attributed submissions (no
// tenant header, SubmitWaitCtx) are accounted under.
const DefaultTenantName = "default"

// maxDynamicTenants bounds the tenant states created for names absent
// from Config.Tenants (the default tenant counts as one). Tenant names
// arrive in a client header; without a bound a client cycling names would
// grow every grant's tenant walk and the /metrics series set without
// limit. Past the bound an unlisted name is accounted under the default
// tenant. Configured tenants are exempt.
const maxDynamicTenants = 1024

// QuotaError reports a submission rejected because its tenant's own
// admission quota (TenantConfig.MaxQueued) was exhausted, as opposed to
// the scheduler-wide queue being full. errors.Is(err, ErrTenantQuota)
// matches it.
type QuotaError struct{ Tenant string }

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: tenant %q over admission quota", e.Tenant)
}

// Is makes QuotaError match ErrTenantQuota.
func (e *QuotaError) Is(target error) bool { return target == ErrTenantQuota }

// ErrTenantQuota is the errors.Is target for per-tenant admission
// rejections. The server maps it to 429 Too Many Requests (the tenant
// should back off) where a scheduler-wide ErrQueueFull maps to 503.
var ErrTenantQuota = errors.New("sched: tenant quota exceeded")

// SubmitOpts attributes one submission for multi-tenant scheduling.
type SubmitOpts struct {
	// Tenant is the submitting tenant; "" maps to DefaultTenantName.
	// Tenants absent from Config.Tenants use Config.DefaultTenant.
	Tenant string
	// Lane is the priority lane (zero value: LaneInteractive).
	Lane Lane
	// Wait blocks admission on a full queue or exhausted quota instead
	// of rejecting, unblocking with the context error if ctx dies first.
	Wait bool
}

// tenantState is one tenant's queues and accounting inside the
// Scheduler's pending queue. All fields except the obs handles are
// guarded by Scheduler.mu.
type tenantState struct {
	name        string
	weight      int
	maxQueued   int
	maxInFlight int

	lanes    [numLanes][]*submission
	queued   int
	inflight int
	grants   int64
	// pass is the tenant's stride-scheduling virtual time: advanced by
	// 1/weight per grant, so under contention grant counts converge to
	// the weight ratio. A tenant rejoining after idling is forwarded to
	// the queue's virtual time instead of burning its idle credit.
	pass float64

	gInflight  *obs.Gauge
	gQueued    *obs.Gauge
	cGrants    *obs.Counter
	cSubmitted *obs.Counter
	cRejected  *obs.Counter
}

func (ts *tenantState) bind(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ts.gInflight = reg.Gauge("sched_tenant_inflight", "tenant", ts.name)
	ts.gQueued = reg.Gauge("sched_tenant_queued", "tenant", ts.name)
	ts.cGrants = reg.Counter("sched_tenant_grants_total", "tenant", ts.name)
	ts.cSubmitted = reg.Counter("sched_tenant_submitted_total", "tenant", ts.name)
	ts.cRejected = reg.Counter("sched_tenant_rejected_total", "tenant", ts.name)
}

// tenantLocked returns (creating if needed) the tenant's state; an
// unlisted name beyond maxDynamicTenants gets the default tenant's.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	if name == "" {
		name = DefaultTenantName
	}
	if ts, ok := s.tenants[name]; ok {
		return ts
	}
	tc, ok := s.cfg.Tenants[name]
	if !ok {
		if s.dynamic >= maxDynamicTenants {
			return s.tenants[DefaultTenantName]
		}
		s.dynamic++
		tc = s.cfg.DefaultTenant
	}
	if tc.Weight < 1 {
		tc.Weight = 1
	}
	ts := &tenantState{
		name:        name,
		weight:      tc.Weight,
		maxQueued:   tc.MaxQueued,
		maxInFlight: tc.MaxInFlight,
		pass:        s.vtime,
	}
	ts.bind(s.reg)
	s.tenants[name] = ts
	s.order = append(s.order, ts)
	return ts
}

// submit admits one job under quota+capacity control: the single way
// onto a lane. A nil ctx never cancels; a ctx already dead is turned away
// before it costs a tenant state or a rejection count.
func (s *Scheduler) submit(ctx context.Context, opts SubmitOpts, job JobCtx) (*Ticket, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if opts.Lane < 0 || opts.Lane >= numLanes {
		opts.Lane = LaneInteractive
	}
	// Queue wait runs from here, so time spent blocked on a full queue or
	// an exhausted quota is accounted as waiting, not lost.
	sub := &submission{job: job, ctx: ctx, ticket: &Ticket{done: make(chan struct{})}, enqueued: time.Now(),
		wait: obs.LifecycleFrom(ctx).Begin(obs.StateQueueWait)}
	s.mu.Lock()
	ts := s.tenantLocked(opts.Tenant)
	reject := func(err error) (*Ticket, error) {
		s.mu.Unlock()
		sub.wait.End()
		s.rejected.Inc()
		ts.cRejected.Inc()
		return nil, err
	}
	for {
		if s.closed {
			s.mu.Unlock()
			sub.wait.End()
			return nil, ErrClosed
		}
		if ctx != nil && ctx.Err() != nil {
			return reject(ctx.Err())
		}
		overQuota := ts.maxQueued > 0 && ts.queued >= ts.maxQueued
		if !overQuota && s.pending < s.cfg.QueueDepth {
			break
		}
		if !opts.Wait {
			if overQuota {
				return reject(&QuotaError{Tenant: ts.name})
			}
			return reject(ErrQueueFull)
		}
		s.waitLocked(ctx)
	}
	// A tenant rejoining after an idle spell starts at the current
	// virtual time: idle periods earn no credit, or a returning tenant
	// would monopolize grants until its stale pass caught up.
	if ts.queued == 0 && ts.inflight == 0 && ts.pass < s.vtime {
		ts.pass = s.vtime
	}
	ts.lanes[opts.Lane] = append(ts.lanes[opts.Lane], sub)
	ts.queued++
	s.pending++
	s.mu.Unlock()
	s.submitted.Inc()
	ts.cSubmitted.Inc()
	s.queued.Add(1)
	s.queueDepth.Add(1)
	ts.gQueued.Add(1)
	s.work.Signal()
	return sub.ticket, nil
}

// waitLocked blocks on the space condition until woken. A non-nil ctx
// registers a callback that broadcasts when the context dies, so the
// caller's re-check loop observes the error. Called (and returns) with
// s.mu held.
func (s *Scheduler) waitLocked(ctx context.Context) {
	if ctx != nil {
		stop := context.AfterFunc(ctx, func() {
			// Lock before broadcasting: the caller holds s.mu from its
			// predicate check until it is inside Wait, so a locked
			// broadcast cannot land in that gap and be missed.
			s.mu.Lock()
			s.space.Broadcast()
			s.mu.Unlock()
		})
		defer stop()
	}
	s.space.Wait()
}

// dequeue blocks for the next grant, returning the chosen submission and
// its tenant (inflight already incremented), or (nil, nil) when the
// queue is closed and fully drained.
func (s *Scheduler) dequeue() (*submission, *tenantState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if sub, ts := s.pickLocked(); sub != nil {
			if s.closed && s.pending == 0 {
				// The drain's last grant: release the workers that slept
				// past Close behind a capped tenant's backlog.
				s.work.Broadcast()
			}
			return sub, ts
		}
		if s.closed && s.pending == 0 {
			return nil, nil
		}
		s.work.Wait()
	}
}

// pickLocked implements the grant policy: the interactive lane is
// scanned before the batch lane; within a lane the eligible tenant with
// the minimum stride pass wins (ties broken by tenant creation order).
// Tenants at their per-tenant in-flight cap are skipped — their queued
// work waits while others are granted past it.
func (s *Scheduler) pickLocked() (*submission, *tenantState) {
	for lane := LaneInteractive; lane < numLanes; lane++ {
		var best *tenantState
		for _, ts := range s.order {
			if len(ts.lanes[lane]) == 0 {
				continue
			}
			if ts.maxInFlight > 0 && ts.inflight >= ts.maxInFlight {
				continue
			}
			if best == nil || ts.pass < best.pass {
				best = ts
			}
		}
		if best == nil {
			continue
		}
		q := best.lanes[lane]
		sub := q[0]
		q[0] = nil // drop the backing-array reference for GC
		best.lanes[lane] = q[1:]
		best.queued--
		s.pending--
		best.inflight++
		best.grants++
		best.cGrants.Inc()
		if best.pass > s.vtime {
			s.vtime = best.pass
		}
		best.pass += 1 / float64(best.weight)
		// A queue slot freed: quota- and capacity-waiters may now admit.
		s.space.Broadcast()
		return sub, best
	}
	return nil, nil
}

// release returns a tenant's in-flight slot. If the tenant has work
// queued that its MaxInFlight cap was holding back, one idle worker is
// woken for it: the releasing worker's own next grant may go elsewhere.
func (s *Scheduler) release(ts *tenantState) {
	s.mu.Lock()
	ts.inflight--
	capped := ts.maxInFlight > 0 && ts.queued > 0
	s.mu.Unlock()
	if capped {
		s.work.Signal()
	}
}

// TenantGrants returns the cumulative grant count per tenant. Fairness
// harnesses compare these against the configured weights.
func (s *Scheduler) TenantGrants() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]int64, len(s.tenants))
	for name, ts := range s.tenants {
		m[name] = ts.grants
	}
	return m
}
