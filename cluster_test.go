// The cluster-wide differential harness: three real aquoman-serve worker
// stacks (httptest servers over ExtractPartition shards, full scheduler +
// NDJSON streaming) behind a coordinator, checked cell-exactly against
// the naive single-node oracle for every TPC-H query — healthy, under a
// seeded mid-stream worker kill, via mirror failover, and under
// client-side cancellation. External test package: it layers the
// coordinator over internal/server without an import cycle.
package aquoman_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aquoman"
	"aquoman/internal/cluster"
	"aquoman/internal/faults"
	"aquoman/internal/plan"
	"aquoman/internal/server"
	"aquoman/internal/tpch"
)

const (
	clusterSF    = 0.005
	clusterSeed  = 9
	clusterNodes = 3
)

// chaos sits in front of one worker and, when armed, severs every
// response after a byte budget — a worker SIGKILLed mid-scan, from the
// coordinator's point of view: valid bytes up to the cut, then a dead
// connection and no trailer.
type chaos struct {
	next     http.Handler
	truncate atomic.Bool
	cutAfter int
	cuts     atomic.Int64 // connections actually severed
}

// truncWriter forwards at most *budget bytes, then aborts the connection.
type truncWriter struct {
	http.ResponseWriter
	budget *int
	cut    *atomic.Int64
}

func (w *truncWriter) Write(p []byte) (int, error) {
	if *w.budget <= 0 {
		w.cut.Add(1)
		panic(http.ErrAbortHandler) // severs the TCP stream mid-body
	}
	if len(p) > *w.budget {
		p = p[:*w.budget]
	}
	*w.budget -= len(p)
	n, err := w.ResponseWriter.Write(p)
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush() // the cut must land after real bytes reached the client
	}
	return n, err
}

func (c *chaos) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if c.truncate.Load() {
		budget := c.cutAfter
		w = &truncWriter{ResponseWriter: w, budget: &budget, cut: &c.cuts}
	}
	c.next.ServeHTTP(w, r)
}

// rig is the in-process cluster: full-replica coordinator DB, N worker
// DBs over real partitioned stores, each behind its own HTTP server and
// chaos stage, plus the fault-free oracle results for all 22 queries.
type rig struct {
	src    *aquoman.DB
	coord  *aquoman.Coordinator
	obs    *aquoman.Observer
	wdbs   []*aquoman.DB
	wobs   []*aquoman.Observer
	chaos  []*chaos
	urls   []string
	oracle map[int]*tpch.OraBatch
}

var (
	rigOnce sync.Once
	rigErr  error
	theRig  *rig
)

func clusterRig(t *testing.T) *rig {
	t.Helper()
	rigOnce.Do(func() { theRig, rigErr = buildRig() })
	if rigErr != nil {
		t.Fatalf("cluster rig: %v", rigErr)
	}
	theRig.calm()
	return theRig
}

func buildRig() (*rig, error) {
	rg := &rig{}
	rg.src = aquoman.Open()
	rg.src.HeapScale = 1000 / clusterSF
	if err := rg.src.LoadTPCH(clusterSF, clusterSeed); err != nil {
		return nil, err
	}

	// Oracle snapshot before any fault schedules exist.
	ora, err := tpch.NewOracle(rg.src.Store)
	if err != nil {
		return nil, err
	}
	rg.oracle = make(map[int]*tpch.OraBatch)
	for _, def := range tpch.Queries() {
		p := def.Build()
		if err := plan.Bind(p, rg.src.Store); err != nil {
			return nil, fmt.Errorf("q%d bind: %w", def.Num, err)
		}
		b, err := ora.Run(p)
		if err != nil {
			return nil, fmt.Errorf("oracle q%d: %w", def.Num, err)
		}
		rg.oracle[def.Num] = b
	}

	var nodes []aquoman.ClusterNode
	for d := 0; d < clusterNodes; d++ {
		wdb := aquoman.Open()
		wdb.HeapScale = rg.src.HeapScale
		if err := wdb.ExtractPartition(rg.src, d, clusterNodes); err != nil {
			return nil, fmt.Errorf("partition %d: %w", d, err)
		}
		wo := wdb.EnableObservability()
		ch := &chaos{next: server.New(server.Config{DB: wdb}), cutAfter: 20}
		ts := httptest.NewServer(ch)
		rg.wdbs = append(rg.wdbs, wdb)
		rg.wobs = append(rg.wobs, wo)
		rg.chaos = append(rg.chaos, ch)
		rg.urls = append(rg.urls, ts.URL)
		nodes = append(nodes, aquoman.ClusterNode{URL: ts.URL})
	}

	rg.obs = rg.src.EnableObservability()
	rg.coord, err = rg.src.NewCoordinator(nodes)
	if err != nil {
		return nil, err
	}
	return rg, nil
}

func (rg *rig) calm() {
	for _, ch := range rg.chaos {
		ch.truncate.Store(false)
	}
	for _, w := range rg.wdbs {
		w.Flash.SetFaults(nil)
	}
}

// Every TPC-H query across three partitioned workers must agree with the
// single-node oracle cell-exactly, distributable or not.
func TestClusterDifferentialAllQueries(t *testing.T) {
	rg := clusterRig(t)
	merged, single := 0, 0
	for _, def := range tpch.Queries() {
		got, rep, err := rg.coord.RunTPCH(context.Background(), def.Num)
		if err != nil {
			t.Fatalf("q%d: %v", def.Num, err)
		}
		tpch.AssertEqual(t, fmt.Sprintf("q%d [%s]", def.Num, rep.Strategy), got, rg.oracle[def.Num])
		if len(rep.DegradedShards) != 0 {
			t.Fatalf("q%d: healthy cluster degraded nodes %v", def.Num, rep.DegradedShards)
		}
		switch {
		case rep.Local:
			if rep.LocalReason == "" {
				t.Fatalf("q%d: local run without a stated reason", def.Num)
			}
		case strings.HasPrefix(rep.Strategy, "merge-aggregate"):
			merged++
		case strings.HasPrefix(rep.Strategy, "replicated-only"):
			single++
		default:
			t.Fatalf("q%d: unexpected strategy %s", def.Num, rep.Strategy)
		}
	}
	// The distributable subset (at least the 11 merge-aggregate fact-table
	// queries exercised by internal/distrib) must actually have scattered;
	// replicated-only shapes go to one node; the rest fall back to the
	// coordinator's replica.
	if merged < 11 {
		t.Fatalf("merge-aggregate queries = %d, want >= 11", merged)
	}
	if single == 0 {
		t.Fatal("no replicated-only query hit the single-node path")
	}
}

// With a worker killed mid-scan (responses severed after 20 bytes), the
// coordinator must degrade that node to its local fallback shard and
// still produce cell-exact results for every query.
func TestClusterDifferentialWorkerKilledMidScan(t *testing.T) {
	rg := clusterRig(t)
	rg.chaos[1].truncate.Store(true)
	defer rg.calm()

	before := rg.obs.Reg.Counter("cluster_degraded_nodes", "node", "1").Value()
	for _, def := range tpch.Queries() {
		got, rep, err := rg.coord.RunTPCH(context.Background(), def.Num)
		if err != nil {
			t.Fatalf("q%d under worker kill: %v", def.Num, err)
		}
		tpch.AssertEqual(t, fmt.Sprintf("q%d degraded [%s]", def.Num, rep.Strategy), got, rg.oracle[def.Num])
		if rep.Local || strings.HasPrefix(rep.Strategy, "replicated-only") {
			continue // these never scatter to node 1
		}
		if !rep.Degraded(1) {
			t.Fatalf("q%d: killed node 1 not reported degraded: %+v", def.Num, rep)
		}
		if rep.ShardRetries[1] == 0 {
			t.Fatalf("q%d: node 1 degraded without retries", def.Num)
		}
		if len(rep.FallbackShards) != 1 || rep.FallbackShards[0] != 1 {
			t.Fatalf("q%d: fallback nodes = %v, want [1]", def.Num, rep.FallbackShards)
		}
		if rep.Degraded(0) || rep.Degraded(2) {
			t.Fatalf("q%d: healthy nodes degraded: %v", def.Num, rep.DegradedShards)
		}
	}
	if rg.chaos[1].cuts.Load() == 0 {
		t.Fatal("chaos stage severed no connections; the schedule never fired")
	}
	if v := rg.obs.Reg.Counter("cluster_degraded_nodes", "node", "1").Value(); v <= before {
		t.Fatalf("cluster_degraded_nodes{node=1} = %d, not incremented", v)
	}
}

// A node whose primary is dead must fail over to its mirror URL without
// burning the host-fallback tier, and results stay exact.
func TestClusterMirrorFailover(t *testing.T) {
	rg := clusterRig(t)
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer dead.Close()

	coord, err := cluster.New(cluster.Config{
		Nodes: []cluster.Node{
			{URL: dead.URL, Mirror: rg.urls[0]},
			{URL: rg.urls[1]},
			{URL: rg.urls[2]},
		},
		Store: rg.src.Store,
		Obs:   rg.obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := coord.RunTPCH(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tpch.AssertEqual(t, "q1 via mirror", got, rg.oracle[1])
	if !rep.Degraded(0) {
		t.Fatalf("mirror-served node 0 not reported degraded: %+v", rep)
	}
	if len(rep.FallbackShards) != 0 {
		t.Fatalf("mirror failover burned host fallback: %v", rep.FallbackShards)
	}
	if rep.ShardRetries[0] == 0 {
		t.Fatal("dead primary produced no retries")
	}
}

// Cancelling the coordinator query must cancel every in-flight worker
// request end to end: the error surfaces promptly and the workers'
// scheduler in-flight gauges return to zero.
func TestClusterCancellationPropagates(t *testing.T) {
	rg := clusterRig(t)
	// Park every worker on its first device read, so q1 is still scanning
	// on all of them when the cancel fires.
	gates := make([]*faults.Gate, len(rg.wdbs))
	for d, w := range rg.wdbs {
		gates[d] = faults.NewGate()
		gates[d].Install(w.Flash)
		defer gates[d].Release()
	}
	defer rg.calm()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := rg.coord.RunTPCH(ctx, 1)
		done <- err
	}()
	for d, g := range gates {
		select {
		case <-g.Entered():
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d never reached its device", d)
		}
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled cluster query did not return")
	}
	// The reads in flight complete; the workers must not scan on.
	for _, g := range gates {
		g.Release()
	}

	// The workers saw their scatter requests die: nothing stays in flight.
	deadline := time.Now().Add(10 * time.Second)
	for d, wo := range rg.wobs {
		for wo.Reg.Gauge("sched_inflight").Value() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("worker %d sched_inflight stuck at %d after cancel",
					d, wo.Reg.Gauge("sched_inflight").Value())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// A pre-cancelled context must not scatter at all.
func TestClusterPreCancelled(t *testing.T) {
	rg := clusterRig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := rg.coord.RunTPCH(ctx, 6); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The coordinator-mode HTTP endpoint must stream merged, rendered results
// with the strategy on the trailer, end to end over real sockets.
func TestClusterServerEndpoint(t *testing.T) {
	rg := clusterRig(t)
	srv := server.New(server.Config{DB: rg.src, Coordinator: rg.coord})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/tpch?q=6")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"done":true`) ||
		!strings.Contains(string(body), `"strategy":"merge-aggregate"`) {
		t.Fatalf("coordinator response lacks trailer fields: %s", body)
	}
}

// One query, one ID: the coordinator sends its query ID on every scatter
// RPC and the workers adopt it, so a worker's trailer names the query the
// coordinator's response does.
func TestClusterQueryIDReachesWorkers(t *testing.T) {
	rg := clusterRig(t)
	// tap stands in for worker 0 and keeps the trailers it streams.
	worker0 := server.New(server.Config{DB: rg.wdbs[0]})
	var mu sync.Mutex
	var trailers []string
	tap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		worker0.ServeHTTP(rec, r)
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		mu.Lock()
		trailers = append(trailers, lines[len(lines)-1])
		mu.Unlock()
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	}))
	defer tap.Close()
	coord, err := cluster.New(cluster.Config{
		Nodes: []cluster.Node{{URL: tap.URL}, {URL: rg.urls[1]}, {URL: rg.urls[2]}},
		Store: rg.src.Store,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(server.Config{DB: rg.src, Coordinator: coord}))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/tpch?q=6")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
	}
	id := resp.Header.Get("X-Query-ID")
	if id == "" || !strings.Contains(string(body), `"id":"`+id+`"`) {
		t.Fatalf("coordinator response does not carry its X-Query-ID %q: %s", id, body)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(trailers) != 1 || !strings.Contains(trailers[0], `"id":"`+id+`"`) {
		t.Fatalf("worker trailers %q, want one carrying the coordinator's id %q", trailers, id)
	}
}
