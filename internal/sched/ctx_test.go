package sched

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// block returns a job that parks until release is closed, plus the
// release function.
func block() (JobCtx, func()) {
	ch := make(chan struct{})
	var once atomic.Bool
	return func(context.Context) (interface{}, error) {
			<-ch
			return nil, nil
		}, func() {
			if once.CompareAndSwap(false, true) {
				close(ch)
			}
		}
}

// TestQueueWaitCancelSkipsJob cancels a job while it waits in the queue
// and asserts the worker never runs it: the ticket fails with the context
// error, no in-flight slot (and no grant round) is spent on it, and the
// job ahead of it is unaffected.
func TestQueueWaitCancelSkipsJob(t *testing.T) {
	eachShape(t, func(t *testing.T, sh tenantShape) {
		s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 4, Tenants: sh.tenants})
		defer s.Close()

		blocker, release := block()
		bt, err := s.SubmitTenant(nil, sh.opts(0), blocker)
		if err != nil {
			t.Fatal(err)
		}
		waitGranted(t, bt)

		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Bool
		qt, err := s.SubmitTenant(ctx, sh.opts(1), func(context.Context) (interface{}, error) {
			ran.Store(true)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}

		cancel() // while queued behind the blocker
		release()

		if _, err := qt.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
		if ran.Load() {
			t.Fatal("cancelled queued job still ran")
		}
		if qt.Round() != 0 {
			t.Fatalf("skipped job got a scheduling round: %d", qt.Round())
		}
		if _, err := bt.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSubmitCtxRunsWithContext verifies the job receives the submission's
// context and its result flows through the ticket.
func TestSubmitCtxRunsWithContext(t *testing.T) {
	s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 1})
	defer s.Close()

	type key struct{}
	ctx := context.WithValue(context.Background(), key{}, "v")
	tk, err := s.SubmitTenant(ctx, SubmitOpts{}, func(got context.Context) (interface{}, error) {
		return got.Value(key{}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if v != "v" {
		t.Fatalf("job did not receive submission context: got %v", v)
	}
}

// TestSubmitCtxPreCancelled rejects a dead context at submission time.
func TestSubmitCtxPreCancelled(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SubmitTenant(ctx, SubmitOpts{}, func(context.Context) (interface{}, error) { return nil, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestSubmitWaitCtxUnblocksOnCancel stalls a blocking submission on a
// full queue and asserts cancellation unblocks it with the context error.
func TestSubmitWaitCtxUnblocksOnCancel(t *testing.T) {
	s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 1})
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := submitNow(s, func(context.Context) (interface{}, error) {
		close(started)
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds the in-flight slot; the queue is empty
	b2, r2 := block()
	if _, err := submitNow(s, b2); err != nil { // fills the queue
		t.Fatal(err)
	}
	defer r2()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.SubmitWaitCtx(ctx, func(context.Context) (interface{}, error) { return nil, nil })
		errc <- err
	}()

	select {
	case err := <-errc:
		t.Fatalf("SubmitWaitCtx returned before cancel: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("SubmitWaitCtx did not unblock on cancel")
	}
}

// TestNilCtxNeverCancels: a nil context runs the job normally and reaches
// it unreplaced.
func TestNilCtxNeverCancels(t *testing.T) {
	s := NewScheduler(Config{})
	defer s.Close()
	tk, err := s.SubmitTenant(nil, SubmitOpts{}, func(ctx context.Context) (interface{}, error) {
		if ctx != nil {
			t.Error("nil submission context was replaced")
		}
		return 7, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Wait()
	if err != nil || v != 7 {
		t.Fatalf("got (%v, %v), want (7, nil)", v, err)
	}
}
