package distrib

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/core"
	"aquoman/internal/plan"
)

var (
	errFlaky = errors.New("flaky")  // fakeShard calls it retryable
	errFatal = errors.New("broken") // and this one not
)

// fakeShard is a scripted Shard: attempt i returns errs[i] (the last entry
// repeats; nil is a success carrying cols), after running act if set.
type fakeShard struct {
	name  string
	local bool
	errs  []error
	cols  [][]int64
	act   func(ctx context.Context)
	calls atomic.Int32
}

func (f *fakeShard) Run(ctx context.Context, _ Work) ([][]int64, *core.Report, error) {
	i := int(f.calls.Add(1)) - 1
	if f.act != nil {
		f.act(ctx)
	}
	if i >= len(f.errs) {
		i = len(f.errs) - 1
	}
	if err := f.errs[i]; err != nil {
		return nil, nil, err
	}
	return f.cols, nil, nil
}

func (f *fakeShard) Retryable(err error) bool { return errors.Is(err, errFlaky) }
func (f *fakeShard) Local() bool              { return f.local }
func (f *fakeShard) String() string           { return f.name }

// concatKeys is a row-returning plan (StratConcat): its one-column partials
// concatenate, so the merged column shows the gather order.
func concatKeys() plan.Node {
	return &plan.Scan{Table: "orders", Cols: []string{"o_orderkey"}}
}

// TestScatterLadder drives the one failover ladder through fake shards:
// who is asked how often, what the report says, and which error comes out.
func TestScatterLadder(t *testing.T) {
	src, _ := setup(t)
	ok := []error{nil}
	flaky := []error{errFlaky}
	type tier struct {
		local bool
		errs  []error
	}
	shardErr := func(shard int, tier string, cause error) func(*testing.T, error) {
		return func(t *testing.T, err error) {
			var se *ShardError
			if !errors.As(err, &se) || se.Shard != shard || se.Tier != tier || !errors.Is(err, cause) {
				t.Fatalf("err = %v, want *ShardError{shard %d, tier %s} wrapping %v", err, shard, tier, cause)
			}
		}
	}
	cases := []struct {
		name     string
		budget   int
		shards   [][]tier  // shards[d] is partition d's ladder
		calls    [][]int32 // -1: a sibling the failing shard may cancel before it runs
		retries  []int
		degraded []int
		fallback []int
		err      func(*testing.T, error) // nil: the query must succeed
	}{
		{name: "healthy", budget: 1,
			shards: [][]tier{{{errs: ok}, {errs: ok}}, {{errs: ok}}},
			calls:  [][]int32{{1, 0}, {1}}, retries: []int{0, 0}},
		{name: "a retry within the budget is not a degradation", budget: 1,
			shards: [][]tier{{{errs: []error{errFlaky, nil}}, {errs: ok}}},
			calls:  [][]int32{{2, 0}}, retries: []int{1}},
		{name: "budget 0 gives every tier one attempt", budget: 0,
			shards: [][]tier{{{errs: flaky}, {errs: ok}, {local: true, errs: ok}}},
			calls:  [][]int32{{1, 1, 0}}, retries: []int{0}, degraded: []int{0}},
		{name: "budget 3 spends four attempts a tier, then falls back", budget: 3,
			shards: [][]tier{{{errs: ok}}, {{errs: flaky}, {errs: flaky}, {local: true, errs: ok}}},
			calls:  [][]int32{{1}, {4, 4, 1}}, retries: []int{0, 6}, degraded: []int{1}, fallback: []int{1}},
		{name: "a non-retryable error ends the shard at once", budget: 3,
			shards: [][]tier{{{errs: []error{errFatal}}, {local: true, errs: ok}}},
			calls:  [][]int32{{1, 0}}, err: shardErr(0, "s0t0", errFatal)},
		{name: "exhaustion names the last tier", budget: 1,
			shards: [][]tier{{{errs: ok}}, {{errs: flaky}, {errs: flaky}}},
			calls:  [][]int32{{-1}, {2, 2}}, err: shardErr(1, "s1t1", errFlaky)},
		{name: "a context error is neither retried nor wrapped", budget: 3,
			shards: [][]tier{{{errs: []error{fmt.Errorf("rpc: %w", context.DeadlineExceeded)}}, {local: true, errs: ok}}},
			calls:  [][]int32{{1, 0}},
			err: func(t *testing.T, err error) {
				var se *ShardError
				if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &se) {
					t.Fatalf("err = %v, want a bare deadline error", err)
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fakes := make([][]*fakeShard, len(tc.shards))
			tiers := make([][]Shard, len(tc.shards))
			for d, ladder := range tc.shards {
				for ti, tr := range ladder {
					f := &fakeShard{name: fmt.Sprintf("s%dt%d", d, ti), local: tr.local, errs: tr.errs,
						cols: [][]int64{{int64(d)}}}
					fakes[d] = append(fakes[d], f)
					tiers[d] = append(tiers[d], f)
				}
			}
			b, rep, err := NewScatter(src, nil, tc.budget, tiers).Run(context.Background(), 0, concatKeys)
			for d := range fakes {
				for ti, f := range fakes[d] {
					if got := f.calls.Load(); got != tc.calls[d][ti] && tc.calls[d][ti] >= 0 {
						t.Errorf("shard %d tier %d ran %d times, want %d", d, ti, got, tc.calls[d][ti])
					}
				}
			}
			if tc.err != nil {
				if err == nil {
					t.Fatalf("query succeeded: %+v", rep)
				}
				tc.err(t, err)
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rep.ShardRetries, tc.retries) ||
				!reflect.DeepEqual(rep.DegradedShards, tc.degraded) ||
				!reflect.DeepEqual(rep.FallbackShards, tc.fallback) {
				t.Fatalf("report retries %v degraded %v fallback %v, want %v %v %v", rep.ShardRetries,
					rep.DegradedShards, rep.FallbackShards, tc.retries, tc.degraded, tc.fallback)
			}
			for d := range tiers {
				if b.Cols[0][d] != int64(d) {
					t.Fatalf("gathered %v, want one row per shard in shard order", b.Cols[0])
				}
			}
		})
	}
	t.Run("gather order under reversed completion", func(t *testing.T) { gatherOrder(t, src) })
	t.Run("first hard failure cancels siblings", func(t *testing.T) { hardFailureCancelsSiblings(t, src) })
	t.Run("caller's cancel wins", func(t *testing.T) { callerCancelWins(t, src) })
}

// The shards of one query run at once, and however they finish the gather
// is in shard order: here shard d cannot finish until shard d+1 has, which
// a serial loop would never get past.
func gatherOrder(t *testing.T, src *col.Store) {
	const n = 5
	finished := make([]chan struct{}, n+1)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	close(finished[n])
	tiers := make([][]Shard, n)
	for d := range tiers {
		tiers[d] = []Shard{&fakeShard{name: "fake", errs: []error{nil},
			cols: [][]int64{{int64(10 * d), int64(10*d + 1)}},
			act: func(context.Context) {
				<-finished[d+1]
				close(finished[d])
			}}}
	}
	b, _, err := NewScatter(src, nil, 1, tiers).Run(context.Background(), 0, concatKeys)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{0, 1, 10, 11, 20, 21, 30, 31, 40, 41}
	if !reflect.DeepEqual(b.Cols[0], want) {
		t.Fatalf("gathered %v, want %v", b.Cols[0], want)
	}
}

// The first shard to fail for good cancels its siblings, and its error —
// not the "context canceled" the siblings then return — is the query's.
func hardFailureCancelsSiblings(t *testing.T, src *col.Store) {
	running := make(chan struct{})
	var sawCancel atomic.Bool
	waiter := &fakeShard{name: "waiter", errs: []error{context.Canceled}, act: func(ctx context.Context) {
		close(running)
		<-ctx.Done()
		sawCancel.Store(true)
	}}
	failer := &fakeShard{name: "failer", errs: []error{errFatal}, act: func(context.Context) { <-running }}
	_, _, err := NewScatter(src, nil, 1, [][]Shard{{waiter}, {failer}}).Run(context.Background(), 0, concatKeys)
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || !errors.Is(err, errFatal) {
		t.Fatalf("err = %v, want shard 1's *ShardError", err)
	}
	if !sawCancel.Load() || waiter.calls.Load() != 1 {
		t.Fatalf("sibling saw cancel = %v after %d runs, want one cancelled run", sawCancel.Load(), waiter.calls.Load())
	}
}

// The caller's cancellation wins over everything a shard returns: over a
// retryable error (no retry, no *ShardError), and over success — the merge
// must not run, let alone answer, for a query nobody waits for.
func callerCancelWins(t *testing.T, src *col.Store) {
	for _, errs := range [][]error{{errFlaky}, {nil}} {
		ctx, cancel := context.WithCancel(context.Background())
		f := &fakeShard{name: "fake", errs: errs, cols: [][]int64{{7}}, act: func(context.Context) { cancel() }}
		b, _, err := NewScatter(src, nil, 3, [][]Shard{{f, &fakeShard{name: "next", errs: []error{nil}}}}).Run(ctx, 0, concatKeys)
		if !errors.Is(err, context.Canceled) || b != nil {
			t.Fatalf("shard returning %v after cancel: got batch %v, err %v; want context.Canceled", errs[0], b, err)
		}
		if f.calls.Load() != 1 {
			t.Fatalf("cancelled shard ran %d times", f.calls.Load())
		}
	}
}
