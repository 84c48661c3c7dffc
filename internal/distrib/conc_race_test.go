package distrib

import (
	"strconv"
	"sync"
	"testing"

	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/tpch"
)

// Mirror degradation must be safe under concurrent queries: several
// goroutines scatter over the same cluster while device 2 is dead, every
// query degrades that shard to its host-side mirror, and every result
// stays cell-exact. Run under -race this is the regression test for the
// retry→degradation machinery's shared state (per-device mirrors, report
// wiring, obs counters).
func TestConcurrentMirrorDegradationRace(t *testing.T) {
	c := NewCluster(3)
	c.HeapScale = 1000 / 0.005
	if err := c.LoadTPCH(0.005, 21); err != nil {
		t.Fatalf("LoadTPCH: %v", err)
	}
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

	inj := faults.New(faults.Config{})
	inj.KillDevice()
	c.Devices[2].SetFaults(inj)
	defer c.Devices[2].SetFaults(nil)

	const rounds = 4
	var wg sync.WaitGroup
	for _, q := range queries {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(q, r int) {
				defer wg.Done()
				def, _ := tpch.Get(q)
				b, rep, err := c.RunQuery(def.Build)
				if err != nil {
					t.Errorf("round %d q%d: %v", r, q, err)
					return
				}
				tpch.AssertBatchesEqual(errTB{t, "round " + strconv.Itoa(r) + " q" + strconv.Itoa(q)},
					"", b, clean[q])
				if !rep.Degraded(2) {
					t.Errorf("round %d q%d: dead device 2 not degraded", r, q)
				}
			}(q, r)
		}
	}
	wg.Wait()

	want := int64(len(queries) * rounds)
	if v := o.Reg.Counter("cluster_degraded_nodes", "node", "2").Value(); v != want {
		t.Fatalf("degradation counter = %d, want %d", v, want)
	}
}

// errTB adapts concurrent assertion failures to t.Errorf: goroutines must
// not call t.Fatalf (it exits the wrong goroutine), so batch mismatches
// are reported as non-fatal errors with a per-query prefix instead.
type errTB struct {
	t      *testing.T
	prefix string
}

func (e errTB) Helper() {}
func (e errTB) Fatalf(format string, args ...interface{}) {
	e.t.Errorf(e.prefix+": "+format, args...)
}
