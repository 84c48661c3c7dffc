package distrib

import (
	"strconv"
	"testing"

	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// TestClusterObservability runs a scatter-gather query on an observed
// cluster and checks the shard/merge spans and per-device flash metrics.
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
	if _, _, err := c.RunQuery(func() plan.Node { return def.Build() }); err != nil {
		t.Fatal(err)
	}

	spans := o.Tracer.Spans()
	shardTids := make(map[int]bool)
	var merges, queries int
	for _, s := range spans {
		switch s.Stage {
		case obs.StageShard:
			shardTids[s.Tid] = true
		case obs.StageMerge:
			merges++
		case obs.StageQuery:
			queries++
		}
	}
	if len(shardTids) != 2 {
		t.Fatalf("shard lanes = %v, want one per device", shardTids)
	}
	if merges != 1 {
		t.Fatalf("merge spans = %d, want 1", merges)
	}
	if queries < 3 { // scatter root + one core query per device
		t.Fatalf("query spans = %d, want >= 3", queries)
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
