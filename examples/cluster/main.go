// Cluster: the paper's Sec. IX future work — distributed execution over
// multiple AQUOMAN SSDs. A TPC-H data set is co-partitioned (orders +
// lineitem by order, dimensions replicated) across a cluster; the devices
// offload their partitions at once, each through its own in-storage
// pipeline, and distrib.Scatter merges the partial aggregates.
package main

import (
	"fmt"
	"log"

	"aquoman/internal/distrib"
	"aquoman/internal/flash"
	"aquoman/internal/tpch"
)

func main() {
	const sf = 0.005
	const devices = 4
	c := distrib.NewCluster(devices)
	c.HeapScale = 1000 / sf
	log.Printf("generating and partitioning TPC-H SF %g across %d AQUOMAN SSDs...", sf, devices)
	if err := c.LoadTPCH(sf, 42); err != nil {
		log.Fatal(err)
	}
	for d := 0; d < devices; d++ {
		li := c.Stores[d].MustTable("lineitem")
		o := c.Stores[d].MustTable("orders")
		fmt.Printf("device %d: %6d orders, %6d lineitems\n", d, o.NumRows, li.NumRows)
	}

	for _, q := range []int{1, 5, 6, 12} {
		def, err := tpch.Get(q)
		if err != nil {
			log.Fatal(err)
		}
		res, rep, err := c.RunQuery(def.Build)
		if err != nil {
			log.Fatalf("q%d: %v", q, err)
		}
		fmt.Printf("\n=== q%d (%s): %d rows, strategy %s, cluster offload %.0f%% ===\n",
			q, def.Name, res.NumRows(), rep.Strategy, rep.OffloadFraction()*100)
		for d, r := range rep.PerDevice {
			if r == nil {
				continue
			}
			fmt.Printf("  device %d: %5.2f MB in-storage, %d task(s), fully=%v\n",
				d, float64(r.Flash.BytesRead(flash.Aquoman))/1e6,
				len(r.AquomanTrace.Tasks), r.FullyOffloaded)
		}
		if q == 1 {
			fmt.Print(res.Render(5))
		}
	}

	// A query the cluster cannot distribute falls back with a clear reason.
	def, _ := tpch.Get(18)
	if _, _, err := c.RunQuery(def.Build); err != nil {
		fmt.Printf("\nq18 rejected as expected: %v\n", err)
	}
}
