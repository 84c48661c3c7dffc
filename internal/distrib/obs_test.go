package distrib

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// TestClusterObservability runs a scatter-gather query on an observed
// cluster with a retaining recorder on the context, and checks the
// scatter/shard/merge spans, the forks, and per-device flash metrics.
func TestClusterObservability(t *testing.T) {
	src, _ := setup(t)
	c := NewCluster(2)
	c.HeapScale = 1000 / 0.005
	if err := c.Partition(src); err != nil {
		t.Fatal(err)
	}
	o := c.EnableObservability()

	def, err := tpch.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	lc := obs.NewLifecycle("q6")
	lc.Retain()
	if _, _, err := c.RunQueryCtx(obs.WithLifecycle(context.Background(), lc), func() plan.Node { return def.Build() }); err != nil {
		t.Fatal(err)
	}
	wall := lc.Finish()

	shardTids := make(map[int]bool)
	var merges, queries int
	for _, s := range lc.Spans() {
		switch {
		case strings.HasPrefix(s.Name, "shard "):
			shardTids[s.Tid] = true
		case s.Name == "merge" && s.State == obs.StateMerge:
			merges++
		case s.Name == "query":
			queries++
		}
	}
	if len(shardTids) != 2 {
		t.Fatalf("shard lanes = %v, want one per device", shardTids)
	}
	if merges != 1 {
		t.Fatalf("merge spans = %d, want 1", merges)
	}
	if queries != 2 { // one core query per device, each under its shard
		t.Fatalf("query spans = %d, want 2", queries)
	}

	// The coordinator's own time is scatter_wait + merge (+ glue); the
	// shards' time hangs under it, one fork each, and stays out of it.
	states := lc.Breakdown()
	if states["scatter_wait"] <= 0 || states["merge"] <= 0 {
		t.Fatalf("coordinator states = %v, want scatter_wait and merge", states)
	}
	for _, leaked := range []string{"rowsel", "read", "device_read", "systolic", "swissknife"} {
		if states[leaked] != 0 {
			t.Fatalf("coordinator %s = %d: a shard's time leaked into the parent (%v)", leaked, states[leaked], states)
		}
	}
	if lc.Attributed()+lc.Unattributed() != wall || lc.Open() != 0 {
		t.Fatalf("coordinator Σstates %v + unattributed %v != wall %v (open %d)", lc.Attributed(), lc.Unattributed(), wall, lc.Open())
	}
	forks := lc.Forks()
	if len(forks) != 2 {
		t.Fatalf("forks = %d, want one per shard", len(forks))
	}
	for _, f := range forks {
		if fs := f.Breakdown(); fs["rowsel"] <= 0 || f.Attributed()+f.Unattributed() != f.Wall() || f.Open() != 0 {
			t.Fatalf("fork %s: states %v, wall %v, open %d", f.Name, fs, f.Wall(), f.Open())
		}
	}

	// Flash traffic is labeled per device.
	snap := o.Reg.Snapshot()
	for d := 0; d < 2; d++ {
		p, ok := snap.Get("flash_pages_read_total",
			"device", strconv.Itoa(d), "requester", "aquoman")
		if !ok || p.Value <= 0 {
			t.Fatalf("device %d aquoman pages = %+v, %v", d, p, ok)
		}
	}
	if p, ok := snap.Get("cluster_queries_total", "strategy", "merge-aggregate"); !ok || p.Value != 1 {
		t.Fatalf("cluster_queries_total = %+v, %v", p, ok)
	}
	for d := 0; d < 2; d++ {
		if p, ok := snap.Get("cluster_scatter_total", "node", strconv.Itoa(d)); !ok || p.Value != 1 {
			t.Fatalf("cluster_scatter_total{node=%d} = %+v, %v", d, p, ok)
		}
	}
}
