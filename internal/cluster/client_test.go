package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aquoman/internal/col"
	"aquoman/internal/distrib"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

var wireSchema = plan.Schema{
	{Name: "k", Typ: col.Int64},
	{Name: "v", Typ: col.Decimal},
}

// decodePartial must turn every malformed worker stream into a typed
// *ProtocolError — never a hang, a panic, or a silently short result.
func TestDecodePartialViolations(t *testing.T) {
	good := `{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}
[1,100]
[2,200]
{"done":true,"rows":2}
`
	cols, err := decodePartial(strings.NewReader(good), wireSchema)
	if err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	if len(cols) != 2 || len(cols[0]) != 2 || cols[1][1] != 200 {
		t.Fatalf("decoded %v", cols)
	}

	cases := []struct {
		name   string
		body   string
		reason string
	}{
		{"empty body", "", "reading header"},
		{"garbage header", "not json at all\n", "reading header"},
		{"array header", "[1,2,3]\n", "malformed header"},
		{"missing partial flag",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}]}` + "\n",
			"not a partial stream"},
		{"schema width",
			`{"schema":[{"name":"k","type":"int64"}],"partial":true}` + "\n",
			"schema width 1"},
		{"schema name",
			`{"schema":[{"name":"x","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,2]\n",
			"schema column 0"},
		{"schema type",
			`{"schema":[{"name":"k","type":"text"},{"name":"v","type":"decimal"}],"partial":true}` + "\n",
			"schema column 0"},
		{"truncated after header",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n",
			"truncated after 0 rows"},
		{"truncated mid rows",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,100]\n",
			"truncated after 1 rows"},
		{"garbled row",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,\"zap\"]\n",
			"garbled row 0"},
		{"float row",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,2.5]\n",
			"not an int64"},
		{"ragged row",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,2,3]\n",
			"row 0 has 3 values"},
		{"half a row then cut",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,10",
			"garbled stream after 0 rows"},
		{"trailer without done",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n{\"rows\":0}\n",
			"lacks done flag"},
		{"miscounted trailer",
			`{"schema":[{"name":"k","type":"int64"},{"name":"v","type":"decimal"}],"partial":true}` + "\n[1,100]\n{\"done\":true,\"rows\":5}\n",
			"claims 5 rows, stream carried 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := decodePartial(strings.NewReader(tc.body), wireSchema)
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v, want *ProtocolError", err)
			}
			if !strings.Contains(pe.Reason, tc.reason) {
				t.Fatalf("reason = %q, want substring %q", pe.Reason, tc.reason)
			}
		})
	}
}

// tinyStore builds a minimal TPC-H store for coordinator-level tests.
func tinyStore(t *testing.T) *col.Store {
	t.Helper()
	s := col.NewStore(flash.NewDevice())
	if err := tpch.Gen(s, tpch.Config{SF: 0.001, Seed: 3}); err != nil {
		t.Fatalf("Gen: %v", err)
	}
	return s
}

// A worker that persistently garbles its stream must surface as a typed
// ShardError wrapping the ProtocolError once every failover tier is
// exhausted — with fallback disabled there is nowhere left to go.
func TestCoordinatorSurfacesProtocolError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, `{"schema":[{"name":"bogus","type":"int64"}],"partial":true}`)
	}))
	defer ts.Close()

	c, err := New(Config{
		Nodes:           []Node{{URL: ts.URL}},
		Store:           tinyStore(t),
		RetryBudget:     -1, // no same-URL retries: fail fast
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := c.RunTPCH(nil, 6)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on a garbled worker stream")
	}
	var se *distrib.ShardError
	if !errors.As(err, &se) || se.Shard != 0 || se.Tier != ts.URL {
		t.Fatalf("err = %v, want *distrib.ShardError for shard 0 on %s", err, ts.URL)
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want wrapped *ProtocolError", err)
	}
}

// A worker 4xx (plan-level disagreement) must not be retried: one scatter
// attempt, typed error out.
func TestCoordinator4xxNotRetried(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"no such table"}`, http.StatusBadRequest)
	}))
	defer ts.Close()

	c, err := New(Config{
		Nodes:           []Node{{URL: ts.URL}},
		Store:           tinyStore(t),
		RetryBudget:     3,
		DisableFallback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.RunTPCH(nil, 6)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Status != http.StatusBadRequest {
		t.Fatalf("err = %v, want *ProtocolError with status 400", err)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("worker hit %d times; 4xx must not retry", n)
	}
}

// A worker 503 (queue full) is retryable: the coordinator must re-issue
// within its budget and succeed when the worker recovers — here via the
// host fallback after the budget is spent.
func TestCoordinator5xxRetriesThenFallsBack(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	store := tinyStore(t)
	c, err := New(Config{
		Nodes:       []Node{{URL: ts.URL}},
		Store:       store,
		RetryBudget: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, rep, err := c.RunTPCH(nil, 6)
	if err != nil {
		t.Fatalf("fallback did not absorb the dead worker: %v", err)
	}
	if n := hits.Load(); n != 3 {
		t.Fatalf("worker hit %d times, want 1 + 2 retries", n)
	}
	if len(rep.FallbackShards) != 1 || rep.ShardRetries[0] != 2 {
		t.Fatalf("report = %+v, want fallback node 0 with 2 retries", rep)
	}
	if b.NumRows() != 1 {
		t.Fatalf("q6 rows = %d", b.NumRows())
	}
}

// Every tier of one query runs the caller's build: with every worker dead
// the fallback shards must answer the variant Run was handed — not
// tpch.Get(6), which shares nothing with it but the wire name.
func TestCoordinatorFallbackRunsCallersBuild(t *testing.T) {
	gone := httptest.NewServer(http.NotFoundHandler())
	gone.Close() // nothing listens here
	store := tinyStore(t)
	c, err := New(Config{
		Nodes:       []Node{{URL: gone.URL}, {URL: gone.URL}},
		Store:       store,
		RetryBudget: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	variant := func() plan.Node {
		return &plan.GroupBy{
			Input: &plan.Scan{Table: "lineitem", Cols: []string{"l_returnflag", "l_quantity"}},
			Keys:  []string{"l_returnflag"},
			Aggs: []plan.AggSpec{
				{Func: plan.AggAvg, Name: "avg_qty", E: plan.C("l_quantity"), Typ: col.Decimal},
				{Func: plan.AggCount, Name: "n"},
			},
		}
	}
	got, rep, err := c.Run(nil, 6, variant)
	if err != nil {
		t.Fatalf("fallback shards did not answer: %v", err)
	}
	if len(rep.FallbackShards) != 2 {
		t.Fatalf("fallback shards = %v, want both", rep.FallbackShards)
	}
	ref := variant()
	if err := plan.Bind(ref, store); err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(store).Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	tpch.AssertBatchesEquivalent(t, "variant of q6", got, want)
}
