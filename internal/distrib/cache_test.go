package distrib

import (
	"testing"

	"aquoman/internal/tpch"
)

// One shared cache across all shard devices: every shard stores
// identically named column files with different rows, so any partition
// aliasing in the cache would silently corrupt results. Cached cluster
// runs must match uncached runs cell-exactly, with the budget honored
// and repeat runs hitting. The cache goes on a cluster of the test's
// own, so the shared one stays uncached.
func TestClusterSharedCachePartitionIsolation(t *testing.T) {
	src, shared := setup(t)
	c := NewCluster(3)
	c.HeapScale = shared.HeapScale
	if err := c.Partition(src); err != nil {
		t.Fatal(err)
	}
	def, err := tpch.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := c.RunQuery(def.Build)
	if err != nil {
		t.Fatal(err)
	}

	const budget = 4 << 20
	cache := c.EnableCache(budget)
	for run := 0; run < 2; run++ {
		got, _, err := c.RunQuery(def.Build)
		if err != nil {
			t.Fatalf("cached run %d: %v", run, err)
		}
		if got.NumRows() != want.NumRows() || len(got.Cols) != len(want.Cols) {
			t.Fatalf("cached run %d shape: %dx%d vs %dx%d",
				run, got.NumRows(), len(got.Cols), want.NumRows(), len(want.Cols))
		}
		for ci := range want.Cols {
			for r := range want.Cols[ci] {
				if got.Cols[ci][r] != want.Cols[ci][r] {
					t.Fatalf("cached run %d: col %d row %d = %d, want %d (partition aliasing?)",
						run, ci, r, got.Cols[ci][r], want.Cols[ci][r])
				}
			}
		}
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Fatal("second cluster run never hit the shared cache")
	}
	if st.Bytes > budget {
		t.Fatalf("resident %d bytes exceeds shared budget %d", st.Bytes, budget)
	}
	if st.Misses == 0 {
		t.Fatal("no misses recorded — cache was bypassed?")
	}
}
