package compiler

import (
	"context"
	"fmt"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
	"aquoman/internal/tabletask"
)

// Config tunes compilation.
type Config struct {
	// GroupCfg overrides the Aggregate-GroupBy hardware geometry.
	GroupCfg swissknife.GroupByConfig
	// HeapScale scales string-heap sizes to the modeled deployment scale
	// factor before the regex-accelerator fit test (the paper evaluates
	// SF-1000; generated stores are much smaller).
	HeapScale float64
	// MinFactRows is the smallest fact table worth a Table Task.
	MinFactRows int
}

// DefaultConfig models the paper's deployment: decisions taken as if the
// store were at SF-1000 relative to a generated SF-0.01 store.
func DefaultConfig() Config {
	return Config{HeapScale: 1, MinFactRows: 64}
}

func (c Config) withDefaults() Config {
	if c.HeapScale <= 0 {
		c.HeapScale = 1
	}
	if c.MinFactRows <= 0 {
		c.MinFactRows = 64
	}
	return c
}

// Unit is one offloaded subtree: a sequential Table-Task program whose
// final host output replaces the subtree via the Placeholder.
type Unit struct {
	Label string
	Tasks []*tabletask.Task
	// Replaced is the original (still executable) subtree; a suspension
	// mid-unit resumes by running it on the host.
	Replaced    plan.Node
	Placeholder *plan.Materialized
	// Finalize converts the last task's host result into the
	// placeholder's columns (AVG division, slot reordering, the TOPK
	// gather — a device read under the query's context).
	Finalize func(context.Context, *tabletask.Result) ([][]int64, error)
	// DRAMObjects lists intermediates to garbage-collect after the query.
	DRAMObjects []string
	FactTable   string
}

// Result is a compiled query: the rewritten plan plus its offload units.
type Result struct {
	Root  plan.Node
	Units []*Unit
	Notes []string
	// Codecs maps "table.column" to the storage codec of every column the
	// compiled tasks touch with a selector predicate (Explain annotation);
	// raw columns are omitted.
	Codecs map[string]string
}

// codecOf looks up a predicate column's codec annotation.
func (r *Result) codecOf(table, column string) string {
	return r.Codecs[table+"."+column]
}

// Explain renders the compiled Table-Task program the way the paper's
// Fig. 5 lists tabletask_0..n: one block per unit with each task's table,
// mask source, selector, streamed columns, gathers, operator and output.
func (r *Result) Explain() string {
	var sb strings.Builder
	if len(r.Units) == 0 {
		sb.WriteString("no offloadable units (host execution)\n")
	}
	for _, u := range r.Units {
		fmt.Fprintf(&sb, "unit %s (fact %s)\n", u.Label, u.FactTable)
		for i, t := range u.Tasks {
			fmt.Fprintf(&sb, "  tabletask_%d:\n", i)
			fmt.Fprintf(&sb, "    table    = %s\n", t.Table)
			switch t.MaskSrc.Kind {
			case tabletask.MaskDRAM:
				neg := ""
				if t.MaskSrc.Negate {
					neg = " (negated)"
				}
				fmt.Fprintf(&sb, "    maskSrc  = %s%s\n", t.MaskSrc.Name, neg)
			default:
				fmt.Fprintf(&sb, "    maskSrc  = full scan\n")
			}
			for _, and := range t.MaskAnd {
				neg := ""
				if and.Negate {
					neg = " (negated)"
				}
				fmt.Fprintf(&sb, "    maskAnd  = %s%s\n", and.Name, neg)
			}
			if t.RowSel != nil && len(t.RowSel.Preds) > 0 {
				for _, p := range t.RowSel.Preds {
					codec := ""
					if c := r.codecOf(t.Table, p.Column); c != "" {
						codec = " [" + c + "]"
					}
					fmt.Fprintf(&sb, "    rowSel   = %s: %s (%d CPs)%s\n", p.Column, p.Expr, p.CPs, codec)
				}
			}
			for _, rf := range t.RegexFilters {
				neg := ""
				if rf.Negate {
					neg = "not "
				}
				fmt.Fprintf(&sb, "    regex    = %s %slike %q\n", rf.Column, neg, rf.Pattern)
			}
			fmt.Fprintf(&sb, "    stream   = %v\n", t.Stream)
			for _, g := range t.Gathers {
				fmt.Fprintf(&sb, "    gather   = %s via %s %v\n", g.Name, g.BaseCol, g.Hops)
			}
			if t.Transform != nil {
				for oi, e := range t.Transform {
					marker := ""
					if oi == t.FilterOut {
						marker = "  (sub-predicate filter)"
					}
					fmt.Fprintf(&sb, "    out[%d]   = %s%s\n", oi, e, marker)
				}
			}
			op := t.Op.Kind.String()
			if t.Op.With != "" {
				op += " with " + t.Op.With
			}
			if t.Op.MaskTable != "" {
				op += " into mask(" + t.Op.MaskTable + ")"
			}
			if t.Op.Kind == tabletask.OpGroupBy {
				op += fmt.Sprintf(" keys=%d attrs=%d aggs=%v", t.Op.Keys, t.Op.Attrs, t.Op.Aggs)
			}
			if t.Op.Kind == tabletask.OpTopK {
				op += fmt.Sprintf(" k=%d", t.Op.K)
			}
			fmt.Fprintf(&sb, "    operator = %s\n", op)
			if t.Out.Kind == tabletask.ToDRAM {
				fmt.Fprintf(&sb, "    output   = AQUOMAN_MEM[%s]\n", t.Out.Name)
			} else {
				fmt.Fprintf(&sb, "    output   = Host\n")
			}
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// FullyOffloaded reports whether the residual host plan is only
// post-processing of a single unit's aggregated output (ORDER BY / LIMIT /
// projection over a Materialized node).
func (r *Result) FullyOffloaded() bool {
	if len(r.Units) != 1 {
		return false
	}
	n := r.Root
	for {
		switch t := n.(type) {
		case *plan.Materialized:
			return true
		case *plan.OrderBy:
			n = t.Input
		case *plan.Limit:
			n = t.Input
		case *plan.Project:
			n = t.Input
		default:
			return false
		}
	}
}

type compileCtx struct {
	store *col.Store
	cfg   Config
	units []*Unit
	notes []string
	seq   int
}

// Compile rewrites the bound plan, extracting offloadable units.
func Compile(root plan.Node, store *col.Store, cfg Config) (*Result, error) {
	c := &compileCtx{store: store, cfg: cfg.withDefaults()}
	newRoot := c.rewrite(root)
	r := &Result{Root: newRoot, Units: c.units, Notes: c.notes}
	r.Codecs = collectCodecs(store, c.units)
	return r, nil
}

// collectCodecs records the storage codec of every selector-predicate
// column so Explain can show which scans run on encoded data.
func collectCodecs(store *col.Store, units []*Unit) map[string]string {
	codecs := make(map[string]string)
	for _, u := range units {
		for _, t := range u.Tasks {
			if t.RowSel == nil {
				continue
			}
			tab, err := store.Table(t.Table)
			if err != nil {
				continue
			}
			for _, p := range t.RowSel.Preds {
				ci, err := tab.Column(p.Column)
				if err != nil || ci.Enc == nil {
					continue
				}
				codecs[t.Table+"."+p.Column] = ci.Codec().String()
			}
		}
	}
	return codecs
}

// rewrite is copy-on-write: the input tree stays executable so that a
// suspended unit can resume on the host from its original subtree.
func (c *compileCtx) rewrite(n plan.Node) plan.Node {
	if u, err := c.tryUnit(n); err == nil {
		u.Replaced = n
		c.units = append(c.units, u)
		return u.Placeholder
	} else if _, interesting := n.(*plan.GroupBy); interesting {
		c.notes = append(c.notes, fmt.Sprintf("group-by not offloaded: %v", err))
	}
	switch t := n.(type) {
	case *plan.Filter:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		return &cp
	case *plan.Project:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		return &cp
	case *plan.Join:
		cp := *t
		cp.L = c.rewrite(t.L)
		cp.R = c.rewrite(t.R)
		return &cp
	case *plan.GroupBy:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		return &cp
	case *plan.OrderBy:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		return &cp
	case *plan.Limit:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		return &cp
	case *plan.ScalarJoin:
		cp := *t
		cp.Input = c.rewrite(t.Input)
		cp.Sub = c.rewrite(t.Sub)
		return &cp
	default:
		return n
	}
}

// output describes one final-task output column.
type output struct {
	name string
	expr plan.Expr
}

func (c *compileCtx) tryUnit(n plan.Node) (*Unit, error) {
	switch t := n.(type) {
	case *plan.Limit:
		// LIMIT k over a single-key ORDER BY compiles to the TOPK
		// accelerator (Fig. 13): the stream carries (key, RowID) through
		// the VCAS chain and the host reconstructs the k result rows.
		return c.buildTopKUnit(t)
	case *plan.GroupBy:
		s, err := c.analyze(t.Input)
		if err != nil {
			return nil, err
		}
		return c.buildGroupByUnit(s, t)
	case *plan.Join, *plan.Filter, *plan.Project:
		s, err := c.analyze(n)
		if err != nil {
			return nil, err
		}
		// Row-returning units must earn their pass: some reduction or
		// computation has to happen in storage.
		worthwhile := len(s.residual) > 0
		for _, r := range s.refs {
			if r.filtered {
				worthwhile = true
			}
		}
		if !worthwhile {
			return nil, reject("pass-through subtree (no filters to push down)")
		}
		var outs []output
		for _, f := range n.Schema() {
			e, err := s.canonicalize(plan.C(f.Name), s.out)
			if err != nil {
				return nil, err
			}
			outs = append(outs, output{name: f.Name, expr: e})
		}
		return c.buildRowUnit(s, n, outs)
	default:
		return nil, reject("node %T is not an offload root", n)
	}
}

// buildTopKUnit compiles Limit(OrderBy(star)) with one sort key into a
// TOPK task: the pipeline keeps the k largest (key, RowID) pairs and the
// host gathers the result rows' remaining columns by RowID (k random
// reads for a k-row result).
func (c *compileCtx) buildTopKUnit(lim *plan.Limit) (*Unit, error) {
	ob, ok := lim.Input.(*plan.OrderBy)
	if !ok || len(ob.Keys) != 1 {
		return nil, reject("LIMIT without a single-key ORDER BY underneath")
	}
	s, err := c.analyze(ob.Input)
	if err != nil {
		return nil, err
	}
	keyExpr, err := s.canonicalize(plan.C(ob.Keys[0].Name), s.out)
	if err != nil {
		return nil, err
	}
	// Every output column must be a fact base column so the host can
	// reconstruct rows from RowIDs.
	schema := lim.Schema()
	factCols := make([]string, len(schema))
	for i, f := range schema {
		canon, err := s.canonicalize(plan.C(f.Name), s.out)
		if err != nil {
			return nil, err
		}
		cc, isCol := canon.(plan.Col)
		if !isCol {
			return nil, reject("TOPK output %q is computed (host cannot gather it by RowID)", f.Name)
		}
		r := s.colOf[cc.Name]
		if r.ref != s.fact || r.col == plan.RowIDCol {
			return nil, reject("TOPK output %q is not a fact base column", f.Name)
		}
		factCols[i] = r.col
	}
	u, err := c.newBuilder(s, "topk-"+s.fact.scan.Table)
	if err != nil {
		return nil, err
	}
	pending, selConsumed, err := u.reduceChildren(s.fact)
	if err != nil {
		return nil, err
	}
	task := &tabletask.Task{
		Name:      u.unit.Label + ":final",
		Table:     s.fact.scan.Table,
		FilterOut: tabletask.NoFilter,
		Op:        tabletask.OpSpec{Kind: tabletask.OpTopK, K: lim.N},
		Out:       tabletask.Output{Kind: tabletask.ToHost},
	}
	if !selConsumed {
		task.RowSel = &tabletask.Program{Preds: s.fact.selPreds}
		task.RegexFilters = s.fact.regexPreds
	}
	applyMasks(task, pending)
	// Inputs: the key's columns, the residual predicates' columns, and
	// the implicit @rowid, in deterministic order.
	needed := map[string]bool{}
	colsIn(keyExpr, needed)
	filter := append([]plan.Expr(nil), s.fact.postPreds...)
	filter = append(filter, s.residual...)
	for _, f := range filter {
		colsIn(f, needed)
	}
	var names []string
	for name := range needed {
		names = append(names, name)
	}
	sortStrings(names)
	var inSchema plan.Schema
	for _, name := range names {
		r, ok := s.colOf[name]
		if !ok || r.ref != s.fact {
			return nil, reject("TOPK key/predicate column %q is not on the fact table", name)
		}
		f := fieldFor(r)
		f.Name = name
		inSchema = append(inSchema, f)
		task.Stream = append(task.Stream, r.col)
	}
	inSchema = append(inSchema, plan.Field{Name: plan.RowIDCol, Typ: col.RowID})
	task.Stream = append(task.Stream, tabletask.RowIDCol)

	loweredKey, err := plan.Lower(keyExpr, inSchema)
	if err != nil {
		return nil, reject("TOPK key: %v", err)
	}
	if !ob.Keys[0].Desc {
		// TOPK keeps the largest keys; ascending order negates.
		loweredKey = systolic.Mul(loweredKey, systolic.C(-1))
	}
	task.Transform = []systolic.Expr{loweredKey, systolic.In(len(inSchema) - 1)}
	if len(filter) > 0 {
		lowered, err := plan.Lower(plan.And(filter...), inSchema)
		if err != nil {
			return nil, reject("TOPK residual: %v", err)
		}
		task.FilterOut = len(task.Transform)
		task.Transform = append(task.Transform, lowered)
	}
	u.unit.Tasks = append(u.unit.Tasks, task)

	fact := s.fact.tab
	u.unit.Placeholder = &plan.Materialized{S: schema, Label: u.unit.Label}
	u.unit.Finalize = func(ctx context.Context, res *tabletask.Result) ([][]int64, error) {
		if len(res.Cols) != 2 {
			return nil, fmt.Errorf("compiler: TOPK returned %d columns", len(res.Cols))
		}
		rowids := res.Cols[1]
		out := make([][]int64, len(schema))
		for i, name := range factCols {
			ci, err := fact.Column(name)
			if err != nil {
				return nil, err
			}
			vals, err := ci.Gather(ctx, rowids, flash.Host)
			if err != nil {
				return nil, err
			}
			out[i] = vals
		}
		return out, nil
	}
	return u.unit, nil
}

// unitBuilder accumulates one unit's tasks.
type unitBuilder struct {
	c     *compileCtx
	s     *star
	unit  *Unit
	objID int
}

func (u *unitBuilder) objName(kind string) string {
	u.objID++
	name := fmt.Sprintf("%s:%s%d", u.unit.Label, kind, u.objID)
	u.unit.DRAMObjects = append(u.unit.DRAMObjects, name)
	return name
}

func (c *compileCtx) newBuilder(s *star, label string) (*unitBuilder, error) {
	if s.fact.tab.NumRows < c.cfg.MinFactRows {
		return nil, reject("fact table %q too small to offload", s.fact.scan.Table)
	}
	c.seq++
	return &unitBuilder{
		c: c, s: s,
		unit: &Unit{Label: fmt.Sprintf("u%d-%s", c.seq, label), FactTable: s.fact.scan.Table},
	}, nil
}

func (c *compileCtx) buildGroupByUnit(s *star, g *plan.GroupBy) (*Unit, error) {
	u, err := c.newBuilder(s, "groupby-"+s.fact.scan.Table)
	if err != nil {
		return nil, err
	}
	var keys []output
	for _, k := range g.Keys {
		e, err := s.canonicalize(plan.C(k), s.out)
		if err != nil {
			return nil, err
		}
		keys = append(keys, output{name: k, expr: e})
	}
	// Expand aggregates into hardware slots.
	type slot struct {
		kind swissknife.AggKind
		expr plan.Expr
	}
	var slots []slot
	// Identical (kind, expression) accumulators share one hardware slot:
	// an AVG reuses its SUM's slot and all COUNT(*) accumulators share
	// one counter, which is how q1's 8 aggregates fit the 8 slots.
	slotIndex := map[string]int{}
	getSlot := func(kind swissknife.AggKind, in plan.Expr) int {
		key := kind.String()
		if in != nil {
			key += "|" + in.String()
		}
		if i, ok := slotIndex[key]; ok {
			return i
		}
		slots = append(slots, slot{kind, in})
		slotIndex[key] = len(slots) - 1
		return len(slots) - 1
	}
	type finalSpec struct {
		fn   plan.AggFunc
		slot int // value slot index
		cnt  int // count slot index (AVG)
	}
	var finals []finalSpec
	for _, a := range g.Aggs {
		in := a.E
		if in == nil {
			in = plan.I(1)
		}
		in, err = s.canonicalize(in, s.out)
		if err != nil {
			return nil, err
		}
		switch a.Func {
		case plan.AggSum:
			finals = append(finals, finalSpec{plan.AggSum, getSlot(swissknife.AggSum, in), -1})
		case plan.AggMin:
			finals = append(finals, finalSpec{plan.AggMin, getSlot(swissknife.AggMin, in), -1})
		case plan.AggMax:
			finals = append(finals, finalSpec{plan.AggMax, getSlot(swissknife.AggMax, in), -1})
		case plan.AggCount:
			finals = append(finals, finalSpec{plan.AggCount, getSlot(swissknife.AggCnt, nil), -1})
		case plan.AggAvg:
			finals = append(finals, finalSpec{plan.AggAvg,
				getSlot(swissknife.AggSum, in), getSlot(swissknife.AggCnt, nil)})
		case plan.AggCountDistinct:
			return nil, reject("COUNT(DISTINCT) is not a Swissknife operator")
		default:
			return nil, reject("aggregate %s not offloadable", a.Func)
		}
	}
	if len(slots) > swissknife.MaxAggSlots {
		return nil, reject("%d aggregate slots exceed the %d per-group slots",
			len(slots), swissknife.MaxAggSlots)
	}
	// Assemble final-task outputs: keys, then one output per slot.
	outs := keys
	cntInput := plan.Expr(plan.Col{Name: plan.RowIDCol})
	if len(keys) > 0 {
		cntInput = keys[0].expr
	} else {
		// COUNT(*) beside other aggregates counts over the first column
		// they read, which the task streams anyway: @rowid is streamed
		// only when no fact column is.
		read := map[string]bool{}
		for _, sl := range slots {
			if sl.expr != nil {
				colsIn(sl.expr, read)
			}
		}
		var names []string
		for name := range read {
			names = append(names, name)
		}
		if sortStrings(names); len(names) > 0 {
			cntInput = plan.Col{Name: names[0]}
		}
	}
	aggKinds := make([]swissknife.AggKind, 0, len(slots))
	for i, sl := range slots {
		e := sl.expr
		if e == nil {
			e = cntInput
		}
		outs = append(outs, output{name: fmt.Sprintf("@agg%d", i), expr: e})
		aggKinds = append(aggKinds, sl.kind)
	}
	if err := u.emitAll(outs, len(keys), aggKinds); err != nil {
		return nil, err
	}
	// Finalize: map slots back to the plan's aggregate columns.
	nk := len(keys)
	u.unit.Placeholder = &plan.Materialized{S: g.Schema(), Label: u.unit.Label}
	u.unit.Finalize = func(_ context.Context, res *tabletask.Result) ([][]int64, error) {
		nRows := res.NumRows()
		cols := make([][]int64, len(g.Schema()))
		for i := 0; i < nk; i++ {
			cols[i] = res.Cols[i]
		}
		for fi, f := range finals {
			dst := make([]int64, nRows)
			src := res.Cols[nk+f.slot]
			switch f.fn {
			case plan.AggAvg:
				cnt := res.Cols[nk+f.cnt]
				for r := 0; r < nRows; r++ {
					if cnt[r] != 0 {
						dst[r] = src[r] / cnt[r]
					}
				}
			default:
				copy(dst, src)
			}
			cols[nk+fi] = dst
		}
		return cols, nil
	}
	return u.unit, nil
}

func (c *compileCtx) buildRowUnit(s *star, replaced plan.Node, outs []output) (*Unit, error) {
	u, err := c.newBuilder(s, "rows-"+s.fact.scan.Table)
	if err != nil {
		return nil, err
	}
	if err := u.emitAll(outs, -1, nil); err != nil {
		return nil, err
	}
	u.unit.Placeholder = &plan.Materialized{S: replaced.Schema(), Label: u.unit.Label}
	u.unit.Finalize = func(_ context.Context, res *tabletask.Result) ([][]int64, error) {
		if len(res.Cols) != len(replaced.Schema()) {
			return nil, fmt.Errorf("compiler: unit returned %d columns, schema has %d",
				len(res.Cols), len(replaced.Schema()))
		}
		return res.Cols, nil
	}
	return u.unit, nil
}

// emitAll produces the reduction tasks and the final task. numKeys == -1
// means a row-returning NOP unit; numKeys == 0 a scalar aggregate.
func (u *unitBuilder) emitAll(outs []output, numKeys int, aggs []swissknife.AggKind) error {
	pending, selConsumed, err := u.reduceChildren(u.s.fact)
	if err != nil {
		return err
	}

	// Resolve every column the final task touches.
	needed := map[string]bool{}
	for _, o := range outs {
		colsIn(o.expr, needed)
	}
	filter := append(append([]plan.Expr(nil), u.s.fact.postPreds...), u.s.residual...)
	for _, f := range filter {
		colsIn(f, needed)
	}
	task := &tabletask.Task{
		Name:      u.unit.Label + ":final",
		Table:     u.s.fact.scan.Table,
		FilterOut: tabletask.NoFilter,
	}
	if !selConsumed {
		task.RowSel = &tabletask.Program{Preds: u.s.fact.selPreds}
		task.RegexFilters = u.s.fact.regexPreds
	}
	applyMasks(task, pending)

	var schema plan.Schema
	index := map[string]int{}
	addInput := func(name string) error {
		if _, ok := index[name]; ok {
			return nil
		}
		r, ok := u.s.colOf[name]
		if !ok {
			return reject("final task cannot resolve column %q", name)
		}
		if r.ref.inSemi {
			return reject("column %q belongs to an existence-test subtree", name)
		}
		if r.ref == u.s.fact {
			index[name] = len(schema)
			f := fieldFor(r)
			f.Name = name
			schema = append(schema, f)
			task.Stream = append(task.Stream, r.col)
			return nil
		}
		ga, err := u.gatherFor(name, r)
		if err != nil {
			return err
		}
		index[name] = len(schema)
		f := fieldFor(r)
		f.Name = name
		schema = append(schema, f)
		// Gathers are appended after all streams; record and fix order
		// below.
		task.Gathers = append(task.Gathers, ga)
		return nil
	}
	// Streams must precede gathers in the input layout; add fact columns
	// first, then dimension columns.
	var factNames, dimNames []string
	for name := range needed {
		r, ok := u.s.colOf[name]
		if !ok {
			return reject("unknown column %q", name)
		}
		if r.ref == u.s.fact {
			factNames = append(factNames, name)
		} else {
			dimNames = append(dimNames, name)
		}
	}
	sortStrings(factNames)
	sortStrings(dimNames)
	for _, name := range factNames {
		if err := addInput(name); err != nil {
			return err
		}
	}
	if len(factNames) == 0 {
		// Guarantee at least one streamed input (COUNT-only tasks).
		index[plan.RowIDCol] = len(schema)
		schema = append(schema, plan.Field{Name: plan.RowIDCol, Typ: col.RowID})
		task.Stream = append(task.Stream, tabletask.RowIDCol)
	}
	for _, name := range dimNames {
		if err := addInput(name); err != nil {
			return err
		}
	}

	// Lower the outputs (and optional filter) over the input schema.
	for _, o := range outs {
		lowered, err := plan.Lower(o.expr, schema)
		if err != nil {
			return reject("output %q: %v", o.name, err)
		}
		task.Transform = append(task.Transform, lowered)
	}
	if len(filter) > 0 {
		lowered, err := plan.Lower(plan.And(filter...), schema)
		if err != nil {
			return reject("residual predicate: %v", err)
		}
		task.FilterOut = len(task.Transform)
		task.Transform = append(task.Transform, lowered)
	}

	switch {
	case numKeys < 0:
		task.Op = tabletask.OpSpec{Kind: tabletask.OpNop}
		task.Out = tabletask.Output{Kind: tabletask.ToHost}
	case numKeys == 0:
		task.Op = tabletask.OpSpec{Kind: tabletask.OpAggregate, Aggs: aggs}
		task.Out = tabletask.Output{Kind: tabletask.ToHost}
	default:
		hwKeys := numKeys
		attrs := 0
		if hwKeys > swissknife.GroupIDBytes/4 {
			hwKeys = swissknife.GroupIDBytes / 4
			attrs = numKeys - hwKeys
		}
		task.Op = tabletask.OpSpec{Kind: tabletask.OpGroupBy, Keys: hwKeys,
			Attrs: attrs, Aggs: aggs, GroupCfg: u.c.cfg.GroupCfg}
		task.Out = tabletask.Output{Kind: tabletask.ToHost}
	}
	u.unit.Tasks = append(u.unit.Tasks, task)
	return nil
}

// gatherFor builds the RowID chase from the fact to a dimension column.
func (u *unitBuilder) gatherFor(name string, r resolved) (tabletask.Gather, error) {
	if r.col == plan.RowIDCol {
		return tabletask.Gather{}, reject("dimension @rowid %q is not gatherable", name)
	}
	// Path fact -> ... -> r.ref via parent pointers.
	var path []*tableRef
	for cur := r.ref; cur != nil; cur = cur.parent {
		path = append([]*tableRef{cur}, path...)
		if cur == u.s.fact {
			break
		}
	}
	if len(path) == 0 || path[0] != u.s.fact {
		return tabletask.Gather{}, reject("no join path from %q to %q",
			u.s.fact.scan.Table, r.ref.scan.Table)
	}
	for _, step := range path[1:] {
		if !step.fkOnParent {
			return tabletask.Gather{}, reject(
				"column %q sits behind a reversed join edge (no RowID index)", name)
		}
	}
	ga := tabletask.Gather{Name: name, BaseCol: col.RowIDColumnName(path[1].edgeFK)}
	for i := 1; i < len(path); i++ {
		hop := tabletask.GatherHop{Table: path[i].scan.Table}
		if i+1 < len(path) {
			hop.Column = col.RowIDColumnName(path[i+1].edgeFK)
		} else {
			hop.Column = r.col
		}
		ga.Hops = append(ga.Hops, hop)
	}
	return ga, nil
}

// reduceChildren emits the dimension/semijoin reduction tasks for ref and
// returns the pending mask sources over ref's table plus whether ref's
// own selector predicates were consumed by an emitted task.
func (u *unitBuilder) reduceChildren(ref *tableRef) ([]tabletask.MaskSource, bool, error) {
	var pending []tabletask.MaskSource
	selConsumed := false
	for _, child := range ref.children {
		switch {
		case child.edgeKind == plan.SemiJoin || child.edgeKind == plan.AntiJoin:
			src, err := u.emitExistenceMask(ref, child)
			if err != nil {
				return nil, false, err
			}
			pending = append(pending, src)

		case !child.subtreeFiltered():
			// Unfiltered N:1 dimension: referential integrity guarantees
			// every fact row matches (Sec. VI-D optimization) — no task.
			continue

		default:
			dName, err := u.emitDimTable(child)
			if err != nil {
				return nil, false, err
			}
			// Parent-side merge task: stream (fk, rowid), merge with the
			// dimension's (pk, rowid) table, leave a mask.
			fkCol, err := ref.tab.Column(child.edgeFK)
			if err != nil {
				return nil, false, err
			}
			op := tabletask.OpSortMerge
			if fkCol.Sorted {
				op = tabletask.OpMerge
			}
			task := &tabletask.Task{
				Name:      u.unit.Label + ":merge-" + child.scan.Table,
				Table:     ref.scan.Table,
				Stream:    []string{child.edgeFK, tabletask.RowIDCol},
				FilterOut: tabletask.NoFilter,
				Op:        tabletask.OpSpec{Kind: op, With: dName, FreeWith: true},
				Out:       tabletask.Output{Kind: tabletask.ToDRAM, Name: u.objName("mask")},
			}
			if !selConsumed && (len(ref.selPreds) > 0 || len(ref.regexPreds) > 0) {
				task.RowSel = &tabletask.Program{Preds: ref.selPreds}
				task.RegexFilters = ref.regexPreds
				selConsumed = true
			}
			applyMasks(task, pending)
			u.unit.Tasks = append(u.unit.Tasks, task)
			pending = []tabletask.MaskSource{{Kind: tabletask.MaskDRAM, Name: task.Out.Name}}
		}
	}
	return pending, selConsumed, nil
}

// emitDimTable emits the Table Task leaving a dimension's filtered
// (pk, rowid) table in DRAM, returning the object name.
func (u *unitBuilder) emitDimTable(dim *tableRef) (string, error) {
	childPending, selConsumed, err := u.reduceChildren(dim)
	if err != nil {
		return "", err
	}
	pkCol, err := dim.tab.Column(dim.edgePK)
	if err != nil {
		return "", err
	}
	task := &tabletask.Task{
		Name:      u.unit.Label + ":dim-" + dim.scan.Table,
		Table:     dim.scan.Table,
		Stream:    []string{dim.edgePK, tabletask.RowIDCol},
		FilterOut: tabletask.NoFilter,
		Out:       tabletask.Output{Kind: tabletask.ToDRAM, Name: u.objName("dim")},
	}
	if pkCol.Sorted {
		task.Op = tabletask.OpSpec{Kind: tabletask.OpNop}
	} else {
		task.Op = tabletask.OpSpec{Kind: tabletask.OpSort}
	}
	if !selConsumed {
		task.RowSel = &tabletask.Program{Preds: dim.selPreds}
		task.RegexFilters = dim.regexPreds
	}
	applyMasks(task, childPending)
	if err := u.addPostFilter(task, dim, []string{dim.edgePK, tabletask.RowIDCol}); err != nil {
		return "", err
	}
	u.unit.Tasks = append(u.unit.Tasks, task)
	return task.Out.Name, nil
}

// emitExistenceMask emits the Table Task realizing a semi/anti join:
// stream the child's FK RowID column (with the child's filters) and
// materialize a mask over the parent's rows.
func (u *unitBuilder) emitExistenceMask(parent, child *tableRef) (tabletask.MaskSource, error) {
	childPending, selConsumed, err := u.reduceChildren(child)
	if err != nil {
		return tabletask.MaskSource{}, err
	}
	ridCol := col.RowIDColumnName(child.edgeFK)
	if !child.tab.HasColumn(ridCol) {
		return tabletask.MaskSource{}, reject("existence test lacks RowID index %q on %q",
			ridCol, child.scan.Table)
	}
	task := &tabletask.Task{
		Name:      u.unit.Label + ":exists-" + child.scan.Table,
		Table:     child.scan.Table,
		Stream:    []string{ridCol},
		FilterOut: tabletask.NoFilter,
		Op: tabletask.OpSpec{Kind: tabletask.OpMask,
			MaskTable: parent.scan.Table},
		Out: tabletask.Output{Kind: tabletask.ToDRAM, Name: u.objName("exists")},
	}
	if !selConsumed {
		task.RowSel = &tabletask.Program{Preds: child.selPreds}
		task.RegexFilters = child.regexPreds
	}
	applyMasks(task, childPending)
	if err := u.addPostFilter(task, child, []string{ridCol}); err != nil {
		return tabletask.MaskSource{}, err
	}
	u.unit.Tasks = append(u.unit.Tasks, task)
	return tabletask.MaskSource{
		Kind: tabletask.MaskDRAM, Name: task.Out.Name,
		Negate: child.edgeKind == plan.AntiJoin,
	}, nil
}

// addPostFilter lowers a table's same-table multi-column conjuncts into
// the task's transformer sub-predicate. keep lists the data columns the
// task already streams (they become transform outputs 0..len-1).
func (u *unitBuilder) addPostFilter(task *tabletask.Task, ref *tableRef, keep []string) error {
	if len(ref.postPreds) == 0 {
		return nil
	}
	// Input schema: the kept columns plus any predicate columns.
	var schema plan.Schema
	for _, k := range keep {
		if k == tabletask.RowIDCol {
			schema = append(schema, plan.Field{Name: plan.RowIDCol, Typ: col.RowID})
			continue
		}
		r := resolved{ref: ref, col: k}
		if ci, err := ref.tab.Column(k); err == nil {
			r.info = ci
		}
		f := fieldFor(r)
		f.Name = k
		schema = append(schema, f)
	}
	needed := map[string]bool{}
	pred := plan.And(ref.postPreds...)
	colsIn(pred, needed)
	rename := map[string]string{}
	for name := range needed {
		r, ok := u.s.colOf[name]
		if !ok || r.ref != ref {
			return reject("post-filter column %q is not on table %q", name, ref.scan.Table)
		}
		rename[name] = r.col
		found := false
		for _, f := range schema {
			if f.Name == r.col {
				found = true
				break
			}
		}
		if !found {
			f := fieldFor(r)
			f.Name = r.col
			schema = append(schema, f)
			task.Stream = append(task.Stream, r.col)
		}
	}
	lowered, err := plan.Lower(renameToField(pred, rename), schema)
	if err != nil {
		return reject("post-filter on %q: %v", ref.scan.Table, err)
	}
	// Transform: pass the kept columns through, append the predicate.
	for i := range keep {
		task.Transform = append(task.Transform, systolic.In(i))
	}
	task.FilterOut = len(task.Transform)
	task.Transform = append(task.Transform, lowered)
	return nil
}

func applyMasks(task *tabletask.Task, pending []tabletask.MaskSource) {
	if len(pending) == 0 {
		return
	}
	task.MaskSrc = pending[0]
	task.MaskSrc.Kind = tabletask.MaskDRAM
	task.MaskAnd = pending[1:]
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
