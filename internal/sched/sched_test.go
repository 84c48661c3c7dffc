package sched

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// tenantShape is one way of filling Config.Tenants. The path tests run
// under all of them: nothing configured (nil and empty must mean the same)
// and two configured tenants that the submissions alternate between.
type tenantShape struct {
	name    string
	tenants map[string]TenantConfig
	names   []string // tenants the test's submissions cycle through
}

func tenantShapes() []tenantShape {
	return []tenantShape{
		{"nil", nil, []string{""}},
		{"empty", map[string]TenantConfig{}, []string{""}},
		{"two", map[string]TenantConfig{"a": {Weight: 1}, "b": {Weight: 3}}, []string{"a", "b"}},
	}
}

// opts attributes the i-th submission of a test.
func (sh tenantShape) opts(i int) SubmitOpts {
	return SubmitOpts{Tenant: sh.names[i%len(sh.names)]}
}

// eachShape runs f as a subtest per tenant shape.
func eachShape(t *testing.T, f func(t *testing.T, sh tenantShape)) {
	for _, sh := range tenantShapes() {
		t.Run(sh.name, func(t *testing.T) { f(t, sh) })
	}
}

// submitNow is a non-waiting, never-cancelling submission for the default
// tenant.
func submitNow(s *Scheduler, job JobCtx) (*Ticket, error) {
	return s.SubmitTenant(nil, SubmitOpts{}, job)
}

// gatedJob returns a job that signals started and then blocks until
// release is closed.
func gatedJob(started chan<- struct{}, release <-chan struct{}) JobCtx {
	return func(context.Context) (interface{}, error) {
		if started != nil {
			started <- struct{}{}
		}
		<-release
		return "done", nil
	}
}

func noop(context.Context) (interface{}, error) { return nil, nil }

// With one in-flight slot occupied and the queue at capacity, a
// non-waiting submission must reject deterministically with ErrQueueFull
// (capacity counts queued work, not the running job); SubmitWaitCtx must
// block and then get through once the slot frees.
func TestSubmitQueueFull(t *testing.T) {
	eachShape(t, func(t *testing.T, sh tenantShape) {
		s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 1, Tenants: sh.tenants})
		defer s.Close()
		started := make(chan struct{}, 1)
		release := make(chan struct{})

		t1, err := s.SubmitTenant(nil, sh.opts(0), gatedJob(started, release))
		if err != nil {
			t.Fatal(err)
		}
		<-started // worker is now blocked inside job 1: the queue is empty
		t2, err := s.SubmitTenant(nil, sh.opts(1), gatedJob(nil, release))
		if err != nil {
			t.Fatal(err) // fills the queue's single slot
		}
		if _, err := s.SubmitTenant(nil, sh.opts(2), gatedJob(nil, release)); !errors.Is(err, ErrQueueFull) {
			t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
		}

		// SubmitWaitCtx blocks instead of shedding; let everything drain.
		waited := make(chan *Ticket)
		go func() {
			ticket, err := s.SubmitWaitCtx(nil, gatedJob(nil, release))
			if err != nil {
				t.Error(err)
			}
			waited <- ticket
		}()
		select {
		case <-waited:
			t.Fatal("SubmitWaitCtx returned while the queue was full")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		t3 := <-waited
		for _, ticket := range []*Ticket{t1, t2, t3} {
			if v, err := ticket.Wait(); err != nil || v != "done" {
				t.Fatalf("ticket: %v %v", v, err)
			}
		}
	})
}

// Close must drain already-admitted jobs before the workers exit — it
// does not return while one is still running — complete every ticket, and
// reject new submissions afterwards, waiting or not.
func TestCloseDrains(t *testing.T) {
	eachShape(t, func(t *testing.T, sh tenantShape) {
		s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 32, Tenants: sh.tenants})
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		t0, err := s.SubmitTenant(nil, sh.opts(0), gatedJob(started, release))
		if err != nil {
			t.Fatal(err)
		}
		<-started
		var tickets []*Ticket
		for i := 0; i < 16; i++ {
			ticket, err := s.SubmitTenant(nil, sh.opts(i), func(context.Context) (interface{}, error) { return "queued", nil })
			if err != nil {
				t.Fatal(err)
			}
			tickets = append(tickets, ticket)
		}
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		select {
		case <-closed:
			t.Fatal("Close returned with a job still running")
		case <-time.After(20 * time.Millisecond):
		}
		close(release)
		<-closed
		if _, err := t0.Wait(); err != nil {
			t.Fatal(err)
		}
		for i, ticket := range tickets {
			select {
			case <-ticket.Done():
			default:
				t.Fatalf("queued job %d: ticket not completed after Close", i)
			}
			if v, err := ticket.Wait(); err != nil || v != "queued" {
				t.Fatalf("queued job %d was not drained: %v %v", i, v, err)
			}
		}
		if _, err := s.SubmitTenant(nil, sh.opts(0), noop); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close: %v, want ErrClosed", err)
		}
		if _, err := s.SubmitWaitCtx(nil, noop); !errors.Is(err, ErrClosed) {
			t.Fatalf("waiting submit after close: %v, want ErrClosed", err)
		}
		s.Close() // idempotent
	})
}

// A panicking job surfaces as a ticket error and must not kill the
// worker: subsequent jobs still run.
func TestPanicRecovered(t *testing.T) {
	eachShape(t, func(t *testing.T, sh tenantShape) {
		s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 4, Tenants: sh.tenants})
		defer s.Close()
		bad, err := s.SubmitTenant(nil, sh.opts(0), func(context.Context) (interface{}, error) { panic("kaboom") })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "kaboom") {
			t.Fatalf("panic not converted to error: %v", err)
		}
		good, err := s.SubmitTenant(nil, sh.opts(0), func(context.Context) (interface{}, error) { return 7, nil })
		if err != nil {
			t.Fatal(err)
		}
		if v, err := good.Wait(); err != nil || v != 7 {
			t.Fatalf("worker died after panic: %v %v", v, err)
		}
	})
}

// With no tenants configured and one in-flight slot, the one queue is a
// FIFO: 200 jobs queued behind a running one are granted in exactly the
// order they were submitted, whichever un-attributed entry point carried
// them, and a nil Tenants map grants the identical sequence an empty one
// does.
func TestNoTenantsGrantsInSubmissionOrder(t *testing.T) {
	const jobs = 200
	sequence := func(t *testing.T, tenants map[string]TenantConfig) []int64 {
		s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: jobs, Tenants: tenants})
		defer s.Close()
		started := make(chan struct{}, 1)
		release := make(chan struct{})
		if _, err := submitNow(s, gatedJob(started, release)); err != nil {
			t.Fatal(err)
		}
		<-started
		tickets := make([]*Ticket, jobs)
		for i := range tickets {
			var err error
			if i%2 == 0 {
				tickets[i], err = s.SubmitWaitCtx(context.Background(), noop)
			} else {
				tickets[i], err = submitNow(s, noop)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		close(release)
		rounds := make([]int64, jobs)
		for i, ticket := range tickets {
			if _, err := ticket.Wait(); err != nil {
				t.Fatal(err)
			}
			rounds[i] = ticket.Round()
			if want := int64(i) + 2; rounds[i] != want { // the gated job is round 1
				t.Fatalf("job %d granted at round %d, want %d (submission order)", i, rounds[i], want)
			}
		}
		return rounds
	}
	var fromNil, fromEmpty []int64
	t.Run("nil", func(t *testing.T) { fromNil = sequence(t, nil) })
	t.Run("empty", func(t *testing.T) { fromEmpty = sequence(t, map[string]TenantConfig{}) })
	for i := range fromNil {
		if fromNil[i] != fromEmpty[i] {
			t.Fatalf("job %d: round %d with nil tenants, %d with empty", i, fromNil[i], fromEmpty[i])
		}
	}
}

// Fairness: with two in-flight slots and one hog pinned in the first,
// short jobs flow through the second slot — each short job's grant round
// stays within the number of jobs admitted before it, so nothing starves
// behind the hog.
func TestFairnessBoundedRounds(t *testing.T) {
	s := NewScheduler(Config{MaxInFlight: 2, QueueDepth: 64})
	defer s.Close()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	hog, err := submitNow(s, gatedJob(started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	const shorts = 20
	var tickets []*Ticket
	for i := 0; i < shorts; i++ {
		ticket, err := submitNow(s, noop)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, ticket)
	}
	for i, ticket := range tickets {
		if _, err := ticket.Wait(); err != nil {
			t.Fatal(err)
		}
		// The hog is round 1; short i can be granted at most after the
		// shorts admitted before it.
		if r := ticket.Round(); r < 2 || r > int64(i)+2 {
			t.Fatalf("short %d granted at round %d, want within [2, %d]", i, r, i+2)
		}
	}
	if r := hog.Round(); r != 1 {
		t.Fatalf("hog round = %d, want 1", r)
	}
	if got := s.Rounds(); got != shorts+1 {
		t.Fatalf("rounds = %d, want %d", got, shorts+1)
	}
	close(release)
	if _, err := hog.Wait(); err != nil {
		t.Fatal(err)
	}
}

// Hammer the scheduler from many producers under -race.
func TestSchedulerConcurrentSubmitters(t *testing.T) {
	s := NewScheduler(Config{MaxInFlight: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	var mu sync.Mutex
	sum := 0
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ticket, err := s.SubmitWaitCtx(nil, func(context.Context) (interface{}, error) {
					mu.Lock()
					sum++
					mu.Unlock()
					return nil, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := ticket.Wait(); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	s.Close()
	if sum != 8*50 {
		t.Fatalf("ran %d jobs, want %d", sum, 8*50)
	}
	if s.Rounds() != 8*50 {
		t.Fatalf("rounds = %d, want %d", s.Rounds(), 8*50)
	}
}
