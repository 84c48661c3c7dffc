package distrib

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/core"
	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
)

// Shard is one place the partial of one partition can be computed — a
// store this process holds (LocalShard) or an aquoman-serve worker over
// HTTP (internal/cluster) — and the seam where tests substitute a fake.
type Shard interface {
	// Run computes the partial of w over this shard's partition and returns
	// its columns in w.Schema order. A local shard also returns its device
	// report.
	Run(ctx context.Context, w Work) ([][]int64, *core.Report, error)
	// Retryable reports whether a failed Run may succeed if repeated here or
	// on the partition's next tier; an error that is not ends the shard.
	Retryable(err error) bool
	// Local reports whether the shard is a host-side copy of the partition
	// rather than another worker.
	Local() bool
	// String names the tier in spans, notes and errors.
	String() string
}

// Work is what a Scatter hands every Shard of one query.
type Work struct {
	// Q names the query on the worker wire (/tpch?q=Q); local shards ignore it.
	Q int
	// Build returns a fresh tree per call; local shards derive and bind their
	// own partial from it.
	Build func() plan.Node
	// Schema is the partial schema the coordinator expects.
	Schema plan.Schema
}

// LocalShard is the Shard over a store this process holds: a cluster
// device, its host-side mirror, or a coordinator's fallback copy.
type LocalShard struct {
	name      string
	store     *col.Store
	dram      int64
	heapScale float64
	obs       *obs.Observer
}

// NewLocalShard returns the Shard named name over s; dram and heapScale
// configure its AQUOMAN device as in the single-device runtime.
func NewLocalShard(name string, s *col.Store, dram int64, heapScale float64, o *obs.Observer) *LocalShard {
	return &LocalShard{name: name, store: s, dram: dram, heapScale: heapScale, obs: o}
}

// Exec runs p, already bound against the shard's store, on the AQUOMAN
// device over it. The query records into ctx's obs.Lifecycle — the shard
// attempt's fork under a Scatter; one of its own when ctx has none.
func (l *LocalShard) Exec(ctx context.Context, p plan.Node) (*engine.Batch, *core.Report, error) {
	ctx, _ = obs.Ensure(ctx, l.obs.Registry())
	return core.New(l.store, core.Config{
		DRAMBytes: l.dram,
		Compiler:  compiler.Config{HeapScale: l.heapScale},
		Ctx:       ctx,
	}).RunQuery(p)
}

func (l *LocalShard) Run(ctx context.Context, w Work) ([][]int64, *core.Report, error) {
	part, err := Derive(w.Build, l.store)
	if err != nil {
		return nil, nil, err
	}
	b, rep, err := l.Exec(ctx, part.Plan)
	if err != nil {
		return nil, nil, err
	}
	return b.Cols, rep, nil
}

// Retryable: only an injected device fault may clear; a plan or compile
// error fails the same way on every copy.
func (l *LocalShard) Retryable(err error) bool {
	var fe *faults.Error
	return errors.As(err, &fe)
}

func (l *LocalShard) Local() bool    { return true }
func (l *LocalShard) String() string { return l.name }

// Report describes how one query executed across the shards.
type Report struct {
	// Strategy is the distribution strategy (Strategy wording), or a
	// "local (...)" description when a coordinator ran the query whole.
	Strategy string
	// PerDevice holds the device report of each shard served by a local
	// tier (nil for shards that did not participate or were served remotely).
	PerDevice []*core.Report
	// ShardRetries counts same-tier re-runs per shard.
	ShardRetries []int
	// DegradedShards lists shards served by a tier past their first.
	DegradedShards []int
	// FallbackShards lists the subset of DegradedShards served by a
	// host-side copy of the partition (a cluster's mirror, a coordinator's
	// fallback shard) rather than by another worker.
	FallbackShards []int
	// Local is set when a coordinator ran the whole query on its replica
	// (non-distributable shape); LocalReason carries the rejection.
	Local       bool
	LocalReason string
}

// Degraded reports whether shard d was served by a tier past its first.
func (r *Report) Degraded(d int) bool { return slices.Contains(r.DegradedShards, d) }

// OffloadFraction returns the in-storage traffic share across the shards
// that ran locally.
func (r *Report) OffloadFraction() float64 {
	var host, aq int64
	for _, rep := range r.PerDevice {
		if rep == nil {
			continue
		}
		host += rep.Flash.BytesRead(flash.Host)
		aq += rep.Flash.BytesRead(flash.Aquoman)
	}
	if host+aq == 0 {
		return 0
	}
	return float64(aq) / float64(host+aq)
}

// ShardError is the typed failure of one shard: Tier is where the ladder
// stopped — its last tier once every attempt is spent, or the tier that
// returned an error not worth retrying. The cause (*faults.Error, a
// worker's *cluster.ProtocolError) stays reachable through errors.As.
type ShardError struct {
	Shard int
	Tier  string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("distrib: shard %d failed on %s: %v", e.Shard, e.Tier, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Scatter is the one scatter/gather: it runs a query's partial on every
// partition through that partition's failover ladder, all partitions at
// once, gathers the partials in shard order and merges them on the
// coordinator-side store. The in-process Cluster and the networked
// cluster.Coordinator differ only in the tiers they hand it.
type Scatter struct {
	store  *col.Store
	obs    *obs.Observer
	budget int
	tiers  [][]Shard
}

// NewScatter returns a Scatter that merges on store. tiers[d] is partition
// d's ladder, first choice first; each tier gets 1 + budget attempts.
func NewScatter(store *col.Store, o *obs.Observer, budget int, tiers [][]Shard) *Scatter {
	return &Scatter{store: store, obs: o, budget: budget, tiers: tiers}
}

// outcome is one partition's result, collected per goroutine and assembled
// in shard order so the report and the concatenation are deterministic.
type outcome struct {
	cols    [][]int64
	rep     *core.Report
	retries int
	tier    int // index of the tier that served
	err     error
}

// Run executes the query build produces (q names it on the worker wire;
// build must be safe to call concurrently). The partitions run under one
// cancel scope: the first shard to fail, or ctx dying, stops the rest. A
// context error is returned as it is — never retried, never a *ShardError —
// and the caller's own cancellation wins over whatever the torn-down scope
// made the shards return.
func (s *Scatter) Run(ctx context.Context, q int, build func() plan.Node) (*engine.Batch, *Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	part, err := Derive(build, s.store)
	if err != nil {
		return nil, nil, err
	}
	schema := part.Plan.Schema()
	n := len(s.tiers)
	rep := &Report{
		Strategy:     part.Strategy.String(),
		PerDevice:    make([]*core.Report, n),
		ShardRetries: make([]int, n),
	}
	reg := s.obs.Registry()
	reg.Counter("cluster_queries_total", "strategy", rep.Strategy).Inc()
	if part.Strategy == StratSingle {
		// Replicated-only data is complete on every shard; ask just one.
		n = 1
		rep.Strategy += " (shard 0)"
	}
	// The coordinator sits in scatter_wait while the shards run; each
	// attempt records into its own fork (see ladder), never into lc.
	lc := obs.LifecycleFrom(ctx)
	wait := lc.Begin(obs.StateScatterWait, "scatter", rep.Strategy)

	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]outcome, n)
	work := Work{Q: q, Build: build, Schema: schema}
	var wg sync.WaitGroup
	for d := range outs {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			outs[d] = s.ladder(sctx, lc, d, work)
			if outs[d].err != nil {
				cancel()
			}
		}(d)
	}
	wg.Wait()
	wait.End()

	var failed error
	gather := &plan.Materialized{S: schema, Label: "scatter-gather", Cols: make([][]int64, len(schema))}
	for d, out := range outs {
		// A sibling's "context canceled" is the scope being torn down, not
		// the reason it was: prefer the error that caused the teardown.
		if out.err != nil && (failed == nil || isCtxErr(failed) && !isCtxErr(out.err)) {
			failed = out.err
		}
		rep.PerDevice[d], rep.ShardRetries[d] = out.rep, out.retries
		if out.err == nil && out.tier > 0 {
			rep.DegradedShards = append(rep.DegradedShards, d)
			if s.tiers[d][out.tier].Local() {
				rep.FallbackShards = append(rep.FallbackShards, d)
			}
		}
		for ci, c := range out.cols {
			gather.Cols[ci] = append(gather.Cols[ci], c...)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if failed != nil {
		return nil, nil, failed
	}

	// A replicated-only shard ran the full plan: nothing was peeled, and
	// the merge below is the gather itself.
	defer lc.Begin(obs.StateMerge, "merge").End()
	var merged plan.Node = gather
	if part.group != nil {
		merged = MergePlan(part.group, gather)
	}
	merged = ReapplyChain(merged, part.chain)
	if err := plan.Bind(merged, s.store); err != nil {
		return nil, nil, err
	}
	eng := engine.New(s.store)
	eng.SetContext(ctx)
	out, err := eng.Run(merged)
	if err != nil {
		return nil, nil, err
	}
	return out, rep, nil
}

// ladder obtains partition d's partial by the one failover rule: every
// tier, in order, gets 1 + budget attempts; a success past the first tier
// is a degradation; an error the tier calls not retryable, or the last
// tier's last failure, ends the shard with a *ShardError. Every attempt
// records into its own fork of lc, on trace lane d+2, and counts into
// cluster_scatter_total; re-runs and degradations count into
// cluster_node_retries and cluster_degraded_nodes.
func (s *Scatter) ladder(ctx context.Context, lc *obs.Lifecycle, d int, w Work) (out outcome) {
	node, reg := strconv.Itoa(d), s.obs.Registry()
	for ti, tier := range s.tiers[d] {
		for try := 0; try <= s.budget; try++ {
			if err := ctx.Err(); err != nil {
				out.err = err
				return out
			}
			label := "shard " + node
			if ti > 0 {
				label += " (" + tier.String() + ")"
			}
			if try > 0 {
				label += " retry " + strconv.Itoa(try)
				out.retries++
				reg.Counter("cluster_node_retries", "node", node).Inc()
			}
			reg.Counter("cluster_scatter_total", "node", node).Inc()
			fork := lc.Fork(label, d+2)
			shard := fork.Begin(obs.StateHost, label)
			cols, rep, err := tier.Run(obs.WithLifecycle(ctx, fork), w)
			shard.End()
			fork.Finish()
			if err == nil {
				if ti > 0 {
					reg.Counter("cluster_degraded_nodes", "node", node).Inc()
					if rep != nil {
						rep.Notes = append(rep.Notes, fmt.Sprintf("shard %d degraded to %s after: %v", d, tier, out.err))
					}
				}
				out.cols, out.rep, out.tier, out.err = cols, rep, ti, nil
				return out
			}
			if ctx.Err() != nil || isCtxErr(err) {
				out.err = err
				return out
			}
			out.err = &ShardError{Shard: d, Tier: tier.String(), Err: err}
			if !tier.Retryable(err) {
				return out
			}
		}
	}
	return out
}
