// Package cluster is the networked front end of distrib.Scatter, and the
// repo's answer to the paper's "multiple AQUOMAN SSDs" future work at
// rack scale. A Coordinator owns a full replica of a TPC-H store, views it
// as partitioned across N `aquoman-serve` worker nodes (shard d = orders
// row r where r % N == d, lineitem co-located, dimensions replicated —
// exactly distrib.ExtractShard's layout), and hands the one scatter/gather
// a ladder per node: the worker's URL, its mirror URL if configured, and a
// coordinator-local host-fallback shard — a locally partitioned copy of
// the node's data — so a SIGKILLed worker costs availability of nothing
// but that node's offload bandwidth. What this package adds to Scatter is
// the HTTP Shard (client.go: the `/tpch?partial=1` NDJSON wire and its
// typed *ProtocolError) and one policy: a query whose shape cannot
// distribute (nested aggregation, scalar subqueries over partitioned
// tables — distrib.Classify's rejections) runs whole on the coordinator's
// full replica, so every TPC-H query remains answerable.
//
// Cancellation is end to end: the query context is threaded into every
// worker HTTP request (killing in-flight scatter RPCs the moment the
// client disconnects), into fallback/local execution's page-read and
// operator checkpoints, and into the merge.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"aquoman/internal/col"
	"aquoman/internal/distrib"
	"aquoman/internal/engine"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/tpch"
)

// Node is one worker of the cluster: a base URL (scheme://host:port) of
// an `aquoman-serve` process holding this node's partition, plus an
// optional mirror URL holding a replica of the same partition.
type Node struct {
	URL    string
	Mirror string
}

// Config parameterizes a Coordinator.
type Config struct {
	// Nodes lists the workers; node d must serve shard d of a
	// len(Nodes)-way partitioning (aquoman-serve -partition d/N over the
	// same generator parameters).
	Nodes []Node
	// Store is the coordinator's full local replica: it binds and
	// classifies plans, renders merged results, runs non-distributable
	// queries, and seeds the host-fallback shards.
	Store *col.Store
	// Client issues the scatter RPCs (http.DefaultClient when nil;
	// per-query deadlines ride on the request context, not the client).
	Client *http.Client
	// RetryBudget is how many times a failed attempt is repeated on the
	// same tier before moving down the ladder (default 1; negative
	// disables same-tier retries).
	RetryBudget int
	// DisableFallback skips building coordinator-local fallback shards
	// (saves one partition copy per node; a node whose every URL fails is
	// then a hard *distrib.ShardError).
	DisableFallback bool
	// DRAMBytes and HeapScale configure local (fallback and
	// non-distributable) execution as in the single-device runtime.
	DRAMBytes int64
	HeapScale float64
	// Obs (optional) receives the cluster counters:
	// cluster_queries_total{strategy}, cluster_scatter_total,
	// cluster_node_retries, cluster_degraded_nodes (all labeled by node).
	Obs *obs.Observer
}

// Coordinator scatters queries across the cluster and merges partials.
// Safe for concurrent use: per-query state lives on the stack and the
// shard stores are read-only after New.
type Coordinator struct {
	cfg Config
	// replica runs the shapes distrib.Classify rejects whole on cfg.Store.
	replica *distrib.LocalShard
	scatter *distrib.Scatter
}

// New builds a Coordinator over cfg. Node d's ladder is its URL, its
// mirror URL if any, and — unless DisableFallback — a host-fallback shard
// extracted from cfg.Store.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no worker nodes configured")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("cluster: coordinator needs a local store replica")
	}
	switch {
	case cfg.RetryBudget == 0:
		cfg.RetryBudget = 1
	case cfg.RetryBudget < 0:
		cfg.RetryBudget = 0
	}
	if cfg.DRAMBytes == 0 {
		cfg.DRAMBytes = mem.DefaultCapacity
	}
	if cfg.HeapScale == 0 {
		cfg.HeapScale = 1
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	local := func(name string, s *col.Store) *distrib.LocalShard {
		return distrib.NewLocalShard(name, s, cfg.DRAMBytes, cfg.HeapScale, cfg.Obs)
	}
	n := len(cfg.Nodes)
	tiers := make([][]distrib.Shard, n)
	for d, node := range cfg.Nodes {
		tiers[d] = []distrib.Shard{&worker{client: client, url: node.URL}}
		if node.Mirror != "" {
			tiers[d] = append(tiers[d], &worker{client: client, url: node.Mirror})
		}
		if !cfg.DisableFallback {
			shard := col.NewStore(flash.NewDevice())
			if err := distrib.ExtractShard(shard, cfg.Store, d, n); err != nil {
				return nil, fmt.Errorf("cluster: fallback shard %d: %w", d, err)
			}
			tiers[d] = append(tiers[d], local("host fallback", shard))
		}
	}
	return &Coordinator{
		cfg:     cfg,
		replica: local("replica", cfg.Store),
		scatter: distrib.NewScatter(cfg.Store, cfg.Obs, cfg.RetryBudget, tiers),
	}, nil
}

// RunTPCH executes TPC-H query q (1..22) across the cluster: scatter the
// per-shard partial plan to every worker, gather the raw partials, merge
// through the Swissknife MERGE path, and re-apply the peeled
// OrderBy/Limit/Project chain. Non-distributable shapes run on the
// coordinator's local replica instead. ctx cancels every in-flight
// worker request and the local merge; a nil ctx never cancels.
func (c *Coordinator) RunTPCH(ctx context.Context, q int) (*engine.Batch, *distrib.Report, error) {
	def, err := tpch.Get(q)
	if err != nil {
		return nil, nil, err
	}
	return c.Run(ctx, q, def.Build)
}

// Run is the generalized entry: q names the query on the worker wire
// protocol (/tpch?q=...) and build must return a fresh plan tree per
// call — the same contract as distrib.Cluster.RunQuery. Workers derive
// their partial plan from q alone, so build must agree with the workers'
// notion of query q; the coordinator's own tiers (the expected schema, the
// fallback shards, the merge) all run build.
func (c *Coordinator) Run(ctx context.Context, q int, build func() plan.Node) (*engine.Batch, *distrib.Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	b, rep, err := c.scatter.Run(ctx, q, build)
	if !errors.Is(err, distrib.ErrNotDistributable) {
		return b, rep, err
	}
	// The shape would need a second shuffle: run it whole on the
	// coordinator's full replica rather than rejecting the query.
	reason := err.Error()
	p := build()
	if err := plan.Bind(p, c.cfg.Store); err != nil {
		return nil, nil, err
	}
	if b, _, err = c.replica.Exec(ctx, p); err != nil {
		return nil, nil, err
	}
	rep = &distrib.Report{
		Strategy:     "local (" + reason + ")",
		ShardRetries: make([]int, len(c.cfg.Nodes)),
		Local:        true,
		LocalReason:  reason,
	}
	c.cfg.Obs.Registry().Counter("cluster_queries_total", "strategy", rep.Strategy).Inc()
	return b, rep, nil
}
