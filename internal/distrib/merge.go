package distrib

import (
	"errors"
	"fmt"

	"aquoman/internal/col"
	"aquoman/internal/plan"
)

// Strategy is how a query distributes across partitions. The same
// classification drives the in-process multi-SSD cluster here and the
// networked coordinator in internal/cluster, so both sides of the wire
// derive identical per-shard plans from the same query.
type Strategy int

const (
	// StratSingle runs on one device (replicated tables only).
	StratSingle Strategy = iota
	// StratConcat concatenates per-device rows.
	StratConcat
	// StratMergeAgg re-aggregates per-device partial aggregates.
	StratMergeAgg
)

func (k Strategy) String() string {
	return [...]string{"replicated-only", "concat", "merge-aggregate"}[k]
}

// Peel walks the post-processing chain (OrderBy/Limit/Project) above the
// distributable core, returning the chain outermost-first and the core.
func Peel(n plan.Node) (chain []plan.Node, core plan.Node) {
	for {
		switch t := n.(type) {
		case *plan.OrderBy:
			chain = append(chain, t)
			n = t.Input
		case *plan.Limit:
			chain = append(chain, t)
			n = t.Input
		case *plan.Project:
			chain = append(chain, t)
			n = t.Input
		default:
			return chain, n
		}
	}
}

func touchesPartitioned(n plan.Node) bool {
	found := false
	plan.Walk(n, func(m plan.Node) {
		if s, ok := m.(*plan.Scan); ok && PartitionedTables[s.Table] {
			found = true
		}
	})
	return found
}

// Classify decides the distribution strategy for a plan. Trees that would
// need a second shuffle (nested aggregation, scalar subqueries or
// replicated-outer existence tests over partitioned tables) are rejected
// with a reasoned error; callers with a full local replica may fall back
// to single-node execution instead.
func Classify(root plan.Node) (Strategy, error) {
	if !touchesPartitioned(root) {
		return StratSingle, nil
	}
	_, coreNode := Peel(root)

	// Distribution-breaking constructs over partitioned data: nested
	// aggregation / scalar subqueries (they would need a second shuffle)
	// and existence tests whose outer side is replicated (per-device
	// existence would duplicate or drop rows).
	var reason error
	check := func(m plan.Node, isRoot bool) {
		switch t := m.(type) {
		case *plan.GroupBy:
			if !isRoot && touchesPartitioned(t) {
				reason = fmt.Errorf("distrib: nested aggregation over a partitioned table")
			}
		case *plan.ScalarJoin:
			if touchesPartitioned(t.Sub) {
				reason = fmt.Errorf("distrib: scalar subquery over a partitioned table")
			}
		case *plan.Join:
			switch t.Kind {
			case plan.SemiJoin, plan.AntiJoin, plan.LeftMarkJoin:
				if touchesPartitioned(t.R) && !touchesPartitioned(t.L) {
					reason = fmt.Errorf("distrib: %s join with a replicated outer and partitioned inner", t.Kind)
				}
			}
		}
	}
	plan.Walk(coreNode, func(m plan.Node) { check(m, m == coreNode) })
	if reason != nil {
		return 0, reason
	}

	if g, ok := coreNode.(*plan.GroupBy); ok {
		for _, a := range g.Aggs {
			if a.Func == plan.AggCountDistinct {
				return 0, fmt.Errorf("distrib: COUNT(DISTINCT) does not merge across devices")
			}
		}
		return StratMergeAgg, nil
	}
	return StratConcat, nil
}

// PartialAggs rewrites a group-by's aggregates into mergeable partials:
// AVG becomes SUM + COUNT columns.
func PartialAggs(g *plan.GroupBy) []plan.AggSpec {
	var out []plan.AggSpec
	for _, a := range g.Aggs {
		switch a.Func {
		case plan.AggAvg:
			out = append(out,
				plan.AggSpec{Func: plan.AggSum, Name: a.Name + "@sum", E: a.E, Typ: a.Typ},
				plan.AggSpec{Func: plan.AggCount, Name: a.Name + "@cnt", E: nil})
		default:
			out = append(out, a)
		}
	}
	return out
}

// ErrNotDistributable marks a Derive failure that is Classify's rejection
// of the query's shape (as opposed to a plan that does not bind): a caller
// holding a full replica may run such a query whole instead.
var ErrNotDistributable = errors.New("not distributable")

// Partial is a query in its distributed form, bound against one store.
type Partial struct {
	Strategy Strategy
	// Plan is the per-shard plan: the full tree for StratSingle, the peeled
	// core for StratConcat, and the core with mergeable partial aggregates
	// for StratMergeAgg.
	Plan plan.Node
	// chain (outermost first) and group are what the merge puts back: the
	// peeled OrderBy/Limit/Project nodes and the original group-by.
	chain []plan.Node
	group *plan.GroupBy
}

// Derive binds a fresh tree from build against s and rewrites it into its
// distributed form. It is the one place a query becomes (strategy, partial
// plan and — as Plan.Schema() — partial schema, peeled chain): Scatter derives against the
// coordinator's store to know what to expect and how to merge, every local
// Shard against its own partition to know what to run, and a networked
// worker (server's /tpch?partial=1) against its DB — which is what lets a
// coordinator trust that a worker given only a query number computed the
// same partial.
func Derive(build func() plan.Node, s *col.Store) (*Partial, error) {
	root := build()
	if err := plan.Bind(root, s); err != nil {
		return nil, err
	}
	strat, err := Classify(root)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrNotDistributable, err)
	}
	p := &Partial{Strategy: strat, Plan: root}
	if strat != StratSingle {
		p.chain, p.Plan = Peel(root)
	}
	if strat == StratMergeAgg {
		p.group = p.Plan.(*plan.GroupBy) // Classify merges only a group-by core
		p.Plan = &plan.GroupBy{Input: p.group.Input, Keys: p.group.Keys, Aggs: PartialAggs(p.group)}
		if err := plan.Bind(p.Plan, s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// MergePlan builds the coordinator-side re-aggregation over the
// concatenated partials, restoring the original output schema.
func MergePlan(g *plan.GroupBy, partial *plan.Materialized) plan.Node {
	var aggs []plan.AggSpec
	needsProject := false
	for _, a := range g.Aggs {
		switch a.Func {
		case plan.AggSum:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggSum, Name: a.Name, E: plan.C(a.Name), Typ: a.Typ})
		case plan.AggCount:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggSum, Name: a.Name, E: plan.C(a.Name), Typ: a.Typ})
		case plan.AggMin:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggMin, Name: a.Name, E: plan.C(a.Name), Typ: a.Typ})
		case plan.AggMax:
			aggs = append(aggs, plan.AggSpec{Func: plan.AggMax, Name: a.Name, E: plan.C(a.Name), Typ: a.Typ})
		case plan.AggAvg:
			needsProject = true
			aggs = append(aggs,
				plan.AggSpec{Func: plan.AggSum, Name: a.Name + "@sum", E: plan.C(a.Name + "@sum"), Typ: a.Typ},
				plan.AggSpec{Func: plan.AggSum, Name: a.Name + "@cnt", E: plan.C(a.Name + "@cnt")})
		}
	}
	merged := &plan.GroupBy{Input: partial, Keys: g.Keys, Aggs: aggs}
	if !needsProject {
		return merged
	}
	// Restore the declared schema: divide AVG sums by counts and drop the
	// helper columns.
	var exprs []plan.NamedExpr
	for _, k := range g.Keys {
		exprs = append(exprs, plan.NamedExpr{Name: k, E: plan.C(k)})
	}
	for _, a := range g.Aggs {
		if a.Func == plan.AggAvg {
			exprs = append(exprs, plan.NamedExpr{Name: a.Name, Typ: a.Typ,
				E: plan.DivE(plan.C(a.Name+"@sum"), plan.C(a.Name+"@cnt"))})
		} else {
			exprs = append(exprs, plan.NamedExpr{Name: a.Name, E: plan.C(a.Name), Typ: a.Typ})
		}
	}
	return &plan.Project{Input: merged, Exprs: exprs}
}

// ReapplyChain re-applies a peeled post-processing chain (outermost first,
// as returned by Peel) on top of the merged node, rebuilding fresh nodes
// so the chain can be bound against a different store.
func ReapplyChain(merged plan.Node, chain []plan.Node) plan.Node {
	for i := len(chain) - 1; i >= 0; i-- {
		switch t := chain[i].(type) {
		case *plan.OrderBy:
			merged = &plan.OrderBy{Input: merged, Keys: t.Keys}
		case *plan.Limit:
			merged = &plan.Limit{Input: merged, N: t.N}
		case *plan.Project:
			merged = &plan.Project{Input: merged, Exprs: t.Exprs}
		}
	}
	return merged
}
