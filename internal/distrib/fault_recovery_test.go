package distrib

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/tpch"
)

// newFaultCluster builds a fresh 4-device cluster, separate from the
// shared fixture so injected faults cannot leak into other tests.
func newFaultCluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster(4)
	c.HeapScale = 1000 / 0.005
	if err := c.LoadTPCH(0.005, 42); err != nil {
		t.Fatalf("LoadTPCH: %v", err)
	}
	return c
}

func sameBatch(t *testing.T, label string, got, want *engine.Batch) {
	t.Helper()
	tpch.AssertBatchesEqual(t, label, got, want)
}

// The acceptance scenario: a seeded fault schedule across a 4-device
// cluster — a budget-exhausting transient burst on device 1, a dead
// device 2, and background absorbable transients on device 3 — must
// produce byte-identical q1/q3/q6 results, with the retries and the
// mirror degradation visible in the Report and the obs metrics.
func TestClusterFaultRecoveryByteIdentical(t *testing.T) {
	c := newFaultCluster(t)
	o := c.EnableObservability()

	queries := []int{1, 3, 6}
	clean := make(map[int]*engine.Batch)
	for _, q := range queries {
		def, err := tpch.Get(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := c.RunQuery(def.Build)
		if err != nil {
			t.Fatalf("fault-free q%d: %v", q, err)
		}
		clean[q] = b
	}

	// Device 1: the first page any reader asks for fails its first 12 read
	// attempts transiently. The first shard execution exhausts the
	// page-read budget on it (5 attempts) and the host resume fails the
	// same way (5 more); the shard-level re-run then sees the tail of the
	// burst absorbed by flash-level retries. The burst is pinned to one
	// page because a batch read goes on to its other pages after one
	// fails: a burst counted over all attempts would be spent inside the
	// first batch.
	inj1 := faults.New(faults.Config{})
	var (
		burst     int
		burstFile string
		burstPage int64 = -1
	)
	inj1.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if burstPage < 0 {
			burstFile, burstPage = file, page
		}
		if file == burstFile && page == burstPage && burst < 12 {
			burst++
			return faults.Transient, true
		}
		return 0, false
	}
	c.Devices[1].SetFaults(inj1)
	// Device 2: dead for the duration — every shard degrades to its
	// host-side mirror.
	inj2 := faults.New(faults.Config{})
	inj2.KillDevice()
	c.Devices[2].SetFaults(inj2)
	// Device 3: background transients, all absorbed below the budget.
	inj3 := faults.New(faults.Config{Seed: 5, PTransient: 0.05, TransientRepeat: 1})
	c.Devices[3].SetFaults(inj3)
	defer func() {
		for _, d := range c.Devices {
			d.SetFaults(nil)
		}
	}()

	for i, q := range queries {
		def, _ := tpch.Get(q)
		b, rep, err := c.RunQuery(def.Build)
		if err != nil {
			t.Fatalf("faulted q%d: %v", q, err)
		}
		sameBatch(t, "q"+strconv.Itoa(q), b, clean[q])
		if !rep.Degraded(2) {
			t.Fatalf("q%d: dead device 2 did not degrade: %+v", q, rep.DegradedShards)
		}
		if rep.ShardRetries[2] == 0 {
			t.Fatalf("q%d: shard 2 degraded without a same-device retry", q)
		}
		if i == 0 && rep.ShardRetries[1] == 0 {
			t.Fatalf("q%d: transient burst on device 1 did not trigger a shard retry", q)
		}
		if rep.Degraded(1) || rep.Degraded(3) {
			t.Fatalf("q%d: absorbable devices degraded: %+v", q, rep.DegradedShards)
		}
		found := false
		for _, note := range rep.PerDevice[2].Notes {
			if strings.Contains(note, "degraded to host-side mirror") {
				found = true
			}
		}
		if !found {
			t.Fatalf("q%d: device 2 report lacks degradation note: %q", q, rep.PerDevice[2].Notes)
		}
	}

	// Recovery must be visible in the metrics registry and flash stats.
	if v := o.Reg.Counter("cluster_degraded_nodes", "node", "2").Value(); v != int64(len(queries)) {
		t.Fatalf("degradation counter = %d, want %d", v, len(queries))
	}
	if v := o.Reg.Counter("cluster_node_retries", "node", "1").Value(); v == 0 {
		t.Fatal("retry counter for device 1 is zero")
	}
	if c.Devices[3].Stats().TotalReadRetries() == 0 {
		t.Fatal("device 3 absorbed no transients despite the seeded schedule")
	}
	if inj2.Counts().Total(faults.DeviceStuck) == 0 {
		t.Fatal("dead device injected no stuck faults")
	}
}

// Without a host-side mirror a permanently dead device is a typed,
// attributable failure.
func TestClusterDeadDeviceWithoutMirror(t *testing.T) {
	c := NewCluster(2)
	c.DisableHostMirror = true
	c.HeapScale = 1000 / 0.002
	if err := c.LoadTPCH(0.002, 7); err != nil {
		t.Fatalf("LoadTPCH: %v", err)
	}
	inj := faults.New(faults.Config{})
	inj.KillDevice()
	c.Devices[1].SetFaults(inj)
	defer c.Devices[1].SetFaults(nil)

	def, err := tpch.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = c.RunQuery(def.Build)
	if err == nil {
		t.Fatal("query over a dead unmirrored shard succeeded")
	}
	var se *ShardError
	if !errors.As(err, &se) || se.Shard != 1 || se.Tier != "device" {
		t.Fatalf("err = %v, want *ShardError on shard 1, tier device", err)
	}
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != faults.DeviceStuck {
		t.Fatalf("err = %v, want wrapped DeviceStuck fault", err)
	}
}
