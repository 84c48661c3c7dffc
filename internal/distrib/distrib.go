// Package distrib implements the paper's stated future work (Sec. IX):
// distributed execution of queries whose data is spread over multiple
// AQUOMAN SSDs.
//
// Fact tables (orders and lineitem, which are co-clustered on the order
// key) are horizontally partitioned round-robin by order; dimension tables
// are replicated, the standard star-schema layout. Each partition
// rematerializes its local FK RowID indices, so every shard store is a
// fully self-contained AQUOMAN disk (ExtractShard).
//
// Queries distribute through one Scatter (scatter.go): Derive (merge.go)
// rewrites the query into its per-shard partial, every partition runs it
// at once through its ladder of Shard tiers, and the coordinator merges
// the partials gathered in shard order. Root aggregations merge by
// aggregate-specific combination (SUM/COUNT re-sum, MIN/MAX re-min/max,
// AVG is decomposed into SUM+COUNT partials); row-returning plans
// concatenate. Plans with nested aggregation or scalar subqueries over a
// partitioned table are rejected (they would need a second shuffle), and
// plans touching only replicated tables run on one shard.
//
// A Shard is where a partition's partial is computed. This package has
// the local one (a store this process holds) and the in-process front end:
// a Cluster of N devices whose ladders are {device d, host-side mirror d}.
// internal/cluster adds the HTTP worker Shard and the networked front end.
package distrib

import (
	"context"
	"fmt"
	"strconv"

	"aquoman/internal/col"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/sched"
	"aquoman/internal/tpch"
)

// PartitionedTables lists the co-clustered fact tables split across
// devices; everything else is replicated.
var PartitionedTables = map[string]bool{"orders": true, "lineitem": true}

// Cluster is a set of AQUOMAN SSDs holding one distributed data set.
type Cluster struct {
	Stores  []*col.Store
	Devices []*flash.Device

	// Mirrors holds per-shard host-side copies of the partitioned data on
	// separate fault-free devices (built by Partition unless
	// DisableHostMirror): the second tier of each shard's ladder, where a
	// shard whose SSD keeps failing re-runs its work.
	Mirrors       []*col.Store
	MirrorDevices []*flash.Device
	// DisableHostMirror skips mirror construction (halves load cost and
	// memory; permanent shard faults then fail with a *ShardError).
	DisableHostMirror bool

	// DRAMBytes per device; HeapScale as in the single-device runtime.
	DRAMBytes int64
	HeapScale float64

	// Obs (optional) collects cluster-wide metrics. Spans and per-state time
	// go to the obs.Lifecycle on RunQueryCtx's context: each shard attempt
	// a fork of it, on its own trace lane.
	Obs *obs.Observer

	// cache (optional, see EnableCache) is shared by every shard device
	// through per-device partitions of one byte budget.
	cache *sched.PageCache
}

// NewCluster returns an empty cluster of n devices.
func NewCluster(n int) *Cluster {
	c := &Cluster{DRAMBytes: mem.DefaultCapacity, HeapScale: 1}
	for i := 0; i < n; i++ {
		dev := flash.NewDevice()
		c.Devices = append(c.Devices, dev)
		c.Stores = append(c.Stores, col.NewStore(dev))
	}
	return c
}

// NumDevices returns the cluster size.
func (c *Cluster) NumDevices() int { return len(c.Stores) }

// EnableObservability attaches a fresh Observer to the cluster and binds
// every device's flash counters into its registry under a device label.
func (c *Cluster) EnableObservability() *obs.Observer {
	o := obs.New()
	c.Obs = o
	for i, dev := range c.Devices {
		dev.Observe(o.Reg, "device", strconv.Itoa(i))
	}
	return o
}

// EnableCache installs one shared single-flight LRU page cache of
// maxBytes across all shard devices (and host mirrors). Every device gets
// its own partition of the shared budget, so identically named column
// files on different shards cannot alias each other's pages. Mirrors
// created by a later Partition call join the same cache automatically.
func (c *Cluster) EnableCache(maxBytes int64) *sched.PageCache {
	c.cache = sched.NewPageCache(maxBytes)
	if c.Obs != nil {
		c.cache.Observe(c.Obs.Reg)
	}
	c.applyCache()
	return c.cache
}

// CacheStats snapshots the shared cache (zero value when none installed).
func (c *Cluster) CacheStats() sched.CacheStats {
	if c.cache == nil {
		return sched.CacheStats{}
	}
	return c.cache.Stats()
}

func (c *Cluster) applyCache() {
	if c.cache == nil {
		return
	}
	for i, dev := range c.Devices {
		dev.SetPageCache(c.cache.Partition("dev" + strconv.Itoa(i)))
	}
	for i, dev := range c.MirrorDevices {
		if dev != nil {
			dev.SetPageCache(c.cache.Partition("mirror" + strconv.Itoa(i)))
		}
	}
}

// LoadTPCH generates a TPC-H data set and partitions it across the
// cluster: orders row r goes to device r % N, lineitem follows its order,
// and the six dimension tables are replicated.
func (c *Cluster) LoadTPCH(sf float64, seed int64) error {
	src := col.NewStore(flash.NewDevice())
	if err := tpch.Gen(src, tpch.Config{SF: sf, Seed: seed}); err != nil {
		return err
	}
	return c.Partition(src)
}

// Partition distributes an existing TPC-H store across the cluster.
func (c *Cluster) Partition(src *col.Store) error {
	n := c.NumDevices()
	if !c.DisableHostMirror {
		c.Mirrors = make([]*col.Store, n)
		c.MirrorDevices = make([]*flash.Device, n)
		for d := 0; d < n; d++ {
			c.MirrorDevices[d] = flash.NewDevice()
			c.Mirrors[d] = col.NewStore(c.MirrorDevices[d])
		}
	}

	for d := 0; d < n; d++ {
		targets := []*col.Store{c.Stores[d]}
		if c.Mirrors != nil {
			targets = append(targets, c.Mirrors[d])
		}
		for _, dst := range targets {
			if err := ExtractShard(dst, src, d, n); err != nil {
				return err
			}
		}
	}
	// Mirror devices created above join the shared cache (no-op when no
	// cache is installed).
	c.applyCache()
	return nil
}

// ExtractShard copies shard d of an n-way partitioning of src into dst:
// orders row r goes to shard r % n, lineitem follows its order via the
// materialized order RowID, dimension tables are replicated in full, and
// the shard's FK RowID indices are rematerialized locally so dst is a
// fully self-contained AQUOMAN store. The same function feeds the
// in-process cluster's devices, the networked workers started with
// `aquoman-serve -partition d/n`, and the coordinator's host-fallback
// shards, which is what keeps all three byte-identical.
func ExtractShard(dst, src *col.Store, d, n int) error {
	if n < 1 || d < 0 || d >= n {
		return fmt.Errorf("distrib: shard %d/%d out of range", d, n)
	}
	// Device of each orders row, and of each lineitem row via its
	// materialized order RowID.
	li, err := src.Table("lineitem")
	if err != nil {
		return err
	}
	liOrderRow, err := li.MustColumn(col.RowIDColumnName("l_orderkey")).ReadAll(flash.Host)
	if err != nil {
		return err
	}
	for _, name := range src.Tables() {
		tab := src.MustTable(name)
		var keep []int
		switch name {
		case "orders":
			for r := 0; r < tab.NumRows; r++ {
				if r%n == d {
					keep = append(keep, r)
				}
			}
		case "lineitem":
			for r := 0; r < tab.NumRows; r++ {
				if int(liOrderRow[r])%n == d {
					keep = append(keep, r)
				}
			}
		default:
			keep = nil // replicate all rows
		}
		if err := copyTable(dst, tab, keep); err != nil {
			return fmt.Errorf("distrib: shard %d table %s: %w", d, name, err)
		}
	}
	if err := rematerialize(dst); err != nil {
		return fmt.Errorf("distrib: shard %d: %w", d, err)
	}
	return nil
}

// copyTable copies the declared (non-RowID-index) columns of tab into
// dst, keeping only the given rows (nil = all rows).
func copyTable(dst *col.Store, tab *col.Table, keep []int) error {
	var defs []col.ColDef
	for _, cd := range tab.Cols {
		if cd.Typ == col.RowID {
			continue // rematerialized locally
		}
		defs = append(defs, cd)
	}
	b := dst.NewTable(col.Schema{Name: tab.Name, Cols: defs})
	nRows := tab.NumRows
	if keep != nil {
		nRows = len(keep)
	}
	// Seed dictionaries with the source's full domain so that every
	// partition assigns identical codes even when it lacks some values —
	// merged partial aggregates compare codes directly.
	for _, cd := range defs {
		if cd.Typ == col.Dict {
			b.SeedDictionary(cd.Name, tab.MustColumn(cd.Name).Dict())
		}
	}
	for _, cd := range defs {
		ci := tab.MustColumn(cd.Name)
		vals, err := ci.ReadAll(flash.Host)
		if err != nil {
			return err
		}
		if keep != nil {
			sel := make([]int64, len(keep))
			for i, r := range keep {
				sel[i] = vals[r]
			}
			vals = sel
		}
		if !cd.Typ.IsString() {
			b.AppendColumnValues(cd.Name, vals)
			continue
		}
		strs, err := ci.Strs(nil, vals, flash.Host)
		if err != nil {
			return err
		}
		b.AppendColumnStrings(cd.Name, strs)
	}
	b.SetNumRows(nRows)
	_, err := b.Finalize()
	return err
}

// rematerialize rebuilds the local FK RowID indices of a partitioned
// TPC-H store.
func rematerialize(s *col.Store) error {
	type fk struct{ fact, col, dim, pk string }
	fks := []fk{
		{"nation", "n_regionkey", "region", "r_regionkey"},
		{"supplier", "s_nationkey", "nation", "n_nationkey"},
		{"customer", "c_nationkey", "nation", "n_nationkey"},
		{"partsupp", "ps_partkey", "part", "p_partkey"},
		{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
		{"orders", "o_custkey", "customer", "c_custkey"},
		{"lineitem", "l_orderkey", "orders", "o_orderkey"},
		{"lineitem", "l_partkey", "part", "p_partkey"},
		{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
	}
	for _, f := range fks {
		fact, err := s.Table(f.fact)
		if err != nil {
			return err
		}
		dim, err := s.Table(f.dim)
		if err != nil {
			return err
		}
		if err := col.MaterializeFK(fact, f.col, dim, f.pk); err != nil {
			return err
		}
	}
	li, err := s.Table("lineitem")
	if err != nil {
		return err
	}
	ps, err := s.Table("partsupp")
	if err != nil {
		return err
	}
	return tpch.MaterializePartSuppIndex(li, ps)
}

// shardRetries is how many times a fault-failed shard is re-run on the same
// store before the ladder moves to the host-side mirror.
const shardRetries = 1

// RunQuery executes the plan produced by build across the cluster. build
// must return a fresh tree per call and be safe to call concurrently: each
// device binds its own copy while its siblings run.
func (c *Cluster) RunQuery(build func() plan.Node) (*engine.Batch, *Report, error) {
	return c.RunQueryCtx(nil, build)
}

// RunQueryCtx is RunQuery under ctx: one Scatter over a {device, host-side
// mirror} ladder per shard, merged on device 0's store. A nil ctx never
// cancels.
func (c *Cluster) RunQueryCtx(ctx context.Context, build func() plan.Node) (*engine.Batch, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	local := func(name string, s *col.Store) Shard {
		return NewLocalShard(name, s, c.DRAMBytes, c.HeapScale, c.Obs)
	}
	tiers := make([][]Shard, c.NumDevices())
	for d, s := range c.Stores {
		tiers[d] = []Shard{local("device", s)}
		if c.Mirrors != nil && c.Mirrors[d] != nil {
			tiers[d] = append(tiers[d], local("host-side mirror", c.Mirrors[d]))
		}
	}
	return NewScatter(c.Stores[0], c.Obs, shardRetries, tiers).Run(ctx, 0, build)
}
