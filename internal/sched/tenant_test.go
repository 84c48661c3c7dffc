package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func waitGranted(t *testing.T, tk *Ticket) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for tk.Round() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("ticket never granted")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestTenantWeightedFairShare floods the scheduler with two backlogged
// tenants at 32 streams and asserts the grant shares converge to the
// configured 3:1 weights, with no starvation of the lighter tenant.
func TestTenantWeightedFairShare(t *testing.T) {
	const (
		workers  = 32
		perTen   = 600
		window   = 400 // grants measured while both tenants are provably backlogged
		jobSleep = 200 * time.Microsecond
	)
	s := NewScheduler(Config{
		MaxInFlight: workers,
		QueueDepth:  4096,
		Tenants: map[string]TenantConfig{
			"heavy": {Weight: 1},
			"light": {Weight: 3},
		},
	})
	defer s.Close()

	// Plug all worker slots with a warm-up tenant so both measured
	// tenants build their full backlog before the first measured grant.
	release := make(chan struct{})
	warm := make([]*Ticket, workers)
	for i := range warm {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "warm"}, func(context.Context) (interface{}, error) {
			<-release
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		warm[i] = tk
	}
	for _, tk := range warm {
		waitGranted(t, tk)
	}

	job := func(context.Context) (interface{}, error) {
		time.Sleep(jobSleep)
		return nil, nil
	}
	var heavy, light []*Ticket
	for i := 0; i < perTen; i++ {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "heavy", Lane: LaneBatch}, job)
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, tk)
		tk, err = s.SubmitTenant(nil, SubmitOpts{Tenant: "light", Lane: LaneBatch}, job)
		if err != nil {
			t.Fatal(err)
		}
		light = append(light, tk)
	}
	close(release)
	for _, tk := range append(append([]*Ticket{}, heavy...), light...) {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// Rounds 1..workers were the warm-up; the measurement window starts
	// at the first contended grant. Both tenants stay backlogged for well
	// over `window` grants (light exhausts its 600 only after ~800).
	lo := int64(workers + 1)
	hi := lo + window
	var lightN, heavyN int
	var heavyRounds []int64
	for _, tk := range light {
		if r := tk.Round(); r >= lo && r < hi {
			lightN++
		}
	}
	for _, tk := range heavy {
		if r := tk.Round(); r >= lo && r < hi {
			heavyN++
			heavyRounds = append(heavyRounds, r)
		}
	}
	if lightN+heavyN != window {
		t.Fatalf("window accounting: light %d + heavy %d != %d", lightN, heavyN, window)
	}
	share := float64(lightN) / float64(window)
	if share < 0.70 || share > 0.80 {
		t.Errorf("light tenant grant share = %.3f in %d-grant window, want ~0.75 (weight 3 of 4)", share, window)
	}
	// Starvation bound: the weight-1 tenant is due every 4th grant; a gap
	// beyond 32 grants means it was starved, not just deprioritized.
	sort.Slice(heavyRounds, func(i, j int) bool { return heavyRounds[i] < heavyRounds[j] })
	prev := lo - 1
	for _, r := range heavyRounds {
		if gap := r - prev; gap > 32 {
			t.Errorf("heavy tenant starved: %d-grant gap before round %d", gap, r)
		}
		prev = r
	}
	grants := s.TenantGrants()
	if grants["heavy"] != perTen || grants["light"] != perTen {
		t.Errorf("TenantGrants = %v, want %d each for heavy/light", grants, perTen)
	}
}

// TestTenantQuotaRejects asserts a tenant over its own MaxQueued gets a
// QuotaError while other tenants and the global queue stay open.
func TestTenantQuotaRejects(t *testing.T) {
	s := NewScheduler(Config{
		MaxInFlight: 1,
		QueueDepth:  8,
		Tenants:     map[string]TenantConfig{"a": {MaxQueued: 1}},
	})
	defer s.Close()

	gate := make(chan struct{})
	blocker := func(context.Context) (interface{}, error) {
		<-gate
		return nil, nil
	}
	tk1, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "a"}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	waitGranted(t, tk1) // in flight, not queued: doesn't count against MaxQueued
	tk2, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "a"}, blocker)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SubmitTenant(nil, SubmitOpts{Tenant: "a"}, blocker)
	if !errors.Is(err, ErrTenantQuota) {
		t.Fatalf("third tenant-a submit: got %v, want ErrTenantQuota", err)
	}
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Tenant != "a" {
		t.Fatalf("quota error should name the tenant: %v", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("tenant quota rejection must not match ErrQueueFull (429 vs 503)")
	}
	// Another tenant is still admitted.
	tk3, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "b"}, blocker)
	if err != nil {
		t.Fatalf("tenant b should still be admitted: %v", err)
	}
	close(gate)
	for _, tk := range []*Ticket{tk1, tk2, tk3} {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestInteractiveLanePreemptsBatch queues batch scans behind an occupied
// slot, then a late interactive point-query, and asserts the interactive
// one is granted first.
func TestInteractiveLanePreemptsBatch(t *testing.T) {
	s := NewScheduler(Config{MaxInFlight: 1, QueueDepth: 16, Tenants: map[string]TenantConfig{}})
	defer s.Close()

	gate := make(chan struct{})
	first, err := s.SubmitTenant(nil, SubmitOpts{Lane: LaneBatch}, func(context.Context) (interface{}, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitGranted(t, first)
	var batch []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Lane: LaneBatch}, noop)
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, tk)
	}
	inter, err := s.SubmitTenant(nil, SubmitOpts{Lane: LaneInteractive}, noop)
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	if _, err := inter.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := inter.Round(); got != 2 {
		t.Errorf("interactive query granted at round %d, want 2 (before all queued batch work)", got)
	}
	for _, tk := range batch {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantMaxInFlightCap asserts a capped tenant never runs more than
// its MaxInFlight concurrently even with free global slots.
func TestTenantMaxInFlightCap(t *testing.T) {
	s := NewScheduler(Config{
		MaxInFlight: 4,
		QueueDepth:  64,
		Tenants:     map[string]TenantConfig{"capped": {MaxInFlight: 1}},
	})
	defer s.Close()

	var cur, peak atomic.Int64
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "capped"}, func(context.Context) (interface{}, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if peak.Load() != 1 {
		t.Errorf("capped tenant peaked at %d concurrent queries, want 1", peak.Load())
	}
}

// TestCloseDrainsCappedTenant closes a scheduler whose idle workers are
// asleep behind a MaxInFlight-capped tenant's backlog: the backlog drains
// one job at a time and every worker still exits, so Close returns.
func TestCloseDrainsCappedTenant(t *testing.T) {
	s := NewScheduler(Config{
		MaxInFlight: 4,
		QueueDepth:  16,
		Tenants:     map[string]TenantConfig{"capped": {MaxInFlight: 1}},
	})
	var ran atomic.Int64
	for i := 0; i < 8; i++ {
		if _, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "capped"}, func(context.Context) (interface{}, error) {
			time.Sleep(time.Millisecond)
			ran.Add(1)
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with a capped tenant's backlog queued")
	}
	if ran.Load() != 8 {
		t.Fatalf("Close drained %d of 8 queued jobs", ran.Load())
	}
}

// TestSubmitTenantWaitBlocksOnQuota asserts Wait-mode admission blocks on
// an exhausted quota and resumes when the backlog drains.
func TestSubmitTenantWaitBlocksOnQuota(t *testing.T) {
	s := NewScheduler(Config{
		MaxInFlight: 1,
		QueueDepth:  8,
		Tenants:     map[string]TenantConfig{"a": {MaxQueued: 1}},
	})
	defer s.Close()
	gate := make(chan struct{})
	first, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "a"}, func(context.Context) (interface{}, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitGranted(t, first)
	if _, err := s.SubmitTenant(nil, SubmitOpts{Tenant: "a"}, noop); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	var waited *Ticket
	var waitErr error
	go func() {
		defer wg.Done()
		close(started)
		waited, waitErr = s.SubmitTenant(nil, SubmitOpts{Tenant: "a", Wait: true}, noop)
	}()
	<-started
	time.Sleep(2 * time.Millisecond) // the waiter is (very likely) blocked on quota now
	close(gate)
	wg.Wait()
	if waitErr != nil {
		t.Fatal(waitErr)
	}
	if _, err := waited.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantNamesBounded cycles 10 000 distinct client-chosen tenant
// names through a scheduler with two configured tenants: at most
// maxDynamicTenants states (the default tenant among them) may exist
// beside the configured ones, the overflow is accounted under the default
// tenant, and every submission is still served.
func TestTenantNamesBounded(t *testing.T) {
	const names = 10000
	s := NewScheduler(Config{
		MaxInFlight: 4,
		QueueDepth:  64,
		Tenants:     map[string]TenantConfig{"a": {Weight: 1}, "b": {Weight: 3}},
	})
	defer s.Close()
	tickets := make([]*Ticket, names)
	for i := range tickets {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Tenant: fmt.Sprintf("client-%d", i), Wait: true}, noop)
		if err != nil {
			t.Fatal(err)
		}
		tickets[i] = tk
	}
	for i, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	// The configured tenants keep their own state past the bound.
	for _, name := range []string{"a", "b"} {
		tk, err := s.SubmitTenant(nil, SubmitOpts{Tenant: name, Wait: true}, noop)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	grants := s.TenantGrants()
	if len(grants) > maxDynamicTenants+2 {
		t.Fatalf("%d tenant states after %d names, want <= %d + 2 configured", len(grants), names, maxDynamicTenants)
	}
	var total int64
	for _, n := range grants {
		total += n
	}
	if total != names+2 {
		t.Fatalf("grants sum to %d, want %d", total, names+2)
	}
	if got, want := grants[DefaultTenantName], int64(names-(maxDynamicTenants-1)); got != want {
		t.Fatalf("default tenant absorbed %d submissions, want %d", got, want)
	}
	if grants["a"] != 1 || grants["b"] != 1 {
		t.Fatalf("configured tenants' grants = %d, %d, want 1 each", grants["a"], grants["b"])
	}
}
