package engine

import (
	"fmt"

	"aquoman/internal/col"
	"aquoman/internal/plan"
	"aquoman/internal/regexcc"
	"aquoman/internal/systolic"
)

// evalExpr evaluates a plan expression over every row of the batch. The
// normal path lowers through plan.Lower — the same semantics the offload
// path executes on the PE array — and evaluates the lowered tree a column
// tile at a time through the kernel's lane loops. Only Text (string-heap)
// predicates take a host-only step first, which materializes them into
// temporary integer columns.
func (e *Engine) evalExpr(b *Batch, ex plan.Expr) ([]int64, error) {
	lowered, err := plan.Lower(ex, b.Schema)
	if err != nil {
		if _, ok := err.(*plan.TextError); !ok {
			return nil, err
		}
		b2, ex2, merr := e.materializeText(b, ex)
		if merr != nil {
			return nil, merr
		}
		lowered, err = plan.Lower(ex2, b2.Schema)
		if err != nil {
			return nil, err
		}
		b = b2
	}
	out := make([]int64, b.NumRows())
	systolic.EvalCols(lowered, b.Cols, out)
	return out, nil
}

// materializeText rewrites Text-dependent subexpressions into references
// to freshly computed integer columns (appended to a widened copy of the
// batch), accounting the string-heap reads as "text" work.
func (e *Engine) materializeText(b *Batch, ex plan.Expr) (*Batch, plan.Expr, error) {
	wide := &Batch{Schema: append(plan.Schema{}, b.Schema...), Cols: append([][]int64(nil), b.Cols...)}
	// textCol resolves a Text column's strings, one per row, with one heap
	// read under the query's context (cancellable, device time the
	// query's), maps each through fn, and appends the results as a fresh
	// integer column. That string per row is the "text" work accounted here.
	tmp := 0
	textCol := func(name string, fn func(string) int64) (plan.Expr, error) {
		f, err := wide.Schema.Field(name)
		if err != nil {
			return nil, err
		}
		if f.Src == nil {
			return nil, fmt.Errorf("engine: column %q has no string source", name)
		}
		strs, err := f.Src.Strs(e.ctx, wide.Cols[wide.Schema.Index(name)], hostRequester)
		if err != nil {
			return nil, err
		}
		e.Stats.work("text", int64(len(strs)))
		vals := make([]int64, len(strs))
		for i, s := range strs {
			vals[i] = fn(s)
		}
		full := fmt.Sprintf("@text%d_%s", tmp, name)
		tmp++
		wide.Schema = append(wide.Schema, plan.Field{Name: full, Typ: col.Int64})
		wide.Cols = append(wide.Cols, vals)
		return plan.C(full), nil
	}
	isTrue := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}

	var rewrite func(plan.Expr) (plan.Expr, error)
	rewrite = func(x plan.Expr) (plan.Expr, error) {
		switch n := x.(type) {
		case plan.Like:
			f, err := wide.Schema.Field(n.Col)
			if err != nil {
				return nil, err
			}
			if f.Typ == col.Dict {
				return x, nil // dictionary LIKE lowers directly
			}
			pat := regexcc.Compile(n.Pattern)
			return textCol(n.Col, func(s string) int64 { return isTrue(pat.Match(s) != n.Negate) })
		case plan.SubstrCode:
			return textCol(n.Col, func(s string) int64 {
				start, end := n.Start-1, n.Start-1+n.Len
				if start < 0 || end > len(s) {
					return 0
				}
				return plan.PackString(s[start:end])
			})
		case plan.Bin:
			// Equality of a Text column against a literal.
			if c, okc := n.L.(plan.Col); okc {
				if f, err := wide.Schema.Field(c.Name); err == nil && f.Typ == col.Text {
					if s, oks := n.R.(plan.Str); oks {
						eq, err := textCol(c.Name, func(str string) int64 { return isTrue(str == s.V) })
						if err != nil || n.Op != plan.OpNE {
							return eq, err
						}
						return plan.Not{E: eq}, nil
					}
				}
			}
			l, err := rewrite(n.L)
			if err != nil {
				return nil, err
			}
			r, err := rewrite(n.R)
			if err != nil {
				return nil, err
			}
			return plan.Bin{Op: n.Op, L: l, R: r}, nil
		case plan.Not:
			inner, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			return plan.Not{E: inner}, nil
		case plan.InInts:
			inner, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			return plan.InInts{E: inner, Vs: n.Vs}, nil
		case plan.YearOf:
			inner, err := rewrite(n.E)
			if err != nil {
				return nil, err
			}
			return plan.YearOf{E: inner}, nil
		case plan.Case:
			cond, err := rewrite(n.Cond)
			if err != nil {
				return nil, err
			}
			th, err := rewrite(n.Then)
			if err != nil {
				return nil, err
			}
			el, err := rewrite(n.Else)
			if err != nil {
				return nil, err
			}
			return plan.Case{Cond: cond, Then: th, Else: el}, nil
		default:
			return x, nil
		}
	}
	ex2, err := rewrite(ex)
	if err != nil {
		return nil, nil, err
	}
	return wide, ex2, nil
}

// aggState is one group's accumulators.
type aggState struct {
	keys     []int64
	sums     []int64
	mins     []int64
	maxs     []int64
	counts   []int64
	distinct []map[int64]struct{}
}

func newAggState(nKeys int, aggs []plan.AggSpec) *aggState {
	g := &aggState{
		keys:     make([]int64, nKeys),
		sums:     make([]int64, len(aggs)),
		mins:     make([]int64, len(aggs)),
		maxs:     make([]int64, len(aggs)),
		counts:   make([]int64, len(aggs)),
		distinct: make([]map[int64]struct{}, len(aggs)),
	}
	for i := range g.mins {
		g.mins[i] = int64(^uint64(0) >> 1)
		g.maxs[i] = -g.mins[i] - 1
	}
	for i, a := range aggs {
		if a.Func == plan.AggCountDistinct {
			g.distinct[i] = make(map[int64]struct{})
		}
	}
	return g
}

// update folds one value into accumulator i.
func (g *aggState) update(i int, fn plan.AggFunc, v int64) {
	switch fn {
	case plan.AggSum, plan.AggAvg:
		g.sums[i] += v
		g.counts[i]++
	case plan.AggMin:
		if v < g.mins[i] {
			g.mins[i] = v
		}
		g.counts[i]++
	case plan.AggMax:
		if v > g.maxs[i] {
			g.maxs[i] = v
		}
		g.counts[i]++
	case plan.AggCount:
		g.counts[i]++
	case plan.AggCountDistinct:
		g.distinct[i][v] = struct{}{}
	}
}

func (e *Engine) execGroupBy(t *plan.GroupBy) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	keyIdx := make([]int, len(t.Keys))
	for i, k := range t.Keys {
		keyIdx[i] = in.Schema.Index(k)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("engine: group key %q missing", k)
		}
	}
	// Evaluate aggregate input expressions once, column-wise.
	argCols := make([][]int64, len(t.Aggs))
	for i, a := range t.Aggs {
		if a.E == nil {
			continue
		}
		vals, err := e.evalExpr(in, a.E)
		if err != nil {
			return nil, err
		}
		argCols[i] = vals
	}
	// One group table; order holds the keys in first-seen order, which is
	// the emission order.
	groups := make(map[string]*aggState)
	var order []string
	var kb []byte
	for r := 0; r < n; r++ {
		kb = packKey(kb, keyIdx, r, in.Cols)
		g, ok := groups[string(kb)]
		if !ok {
			g = newAggState(len(keyIdx), t.Aggs)
			for i, c := range keyIdx {
				g.keys[i] = in.Cols[c][r]
			}
			groups[string(kb)] = g
			order = append(order, string(kb))
		}
		for i, a := range t.Aggs {
			var v int64
			if argCols[i] != nil {
				v = argCols[i][r]
			}
			g.update(i, a.Func, v)
		}
	}
	e.Stats.work("agg", int64(n)*int64(len(t.Aggs)+1))

	out := NewBatch(t.Schema())
	nk := len(t.Keys)
	for c := range out.Cols {
		out.Cols[c] = make([]int64, 0, len(order))
	}
	// Scalar aggregation over zero rows still yields one row of zeros
	// (SQL: COUNT()=0; SUM() is NULL, rendered 0 here).
	if len(order) == 0 && nk == 0 {
		for c := range out.Cols {
			out.Cols[c] = append(out.Cols[c], 0)
		}
	}
	for _, key := range order {
		g := groups[key]
		for i := 0; i < nk; i++ {
			out.Cols[i] = append(out.Cols[i], g.keys[i])
		}
		for i, a := range t.Aggs {
			var v int64
			switch a.Func {
			case plan.AggSum:
				v = g.sums[i]
			case plan.AggAvg:
				if g.counts[i] > 0 {
					v = g.sums[i] / g.counts[i]
				}
			case plan.AggMin:
				v = g.mins[i]
			case plan.AggMax:
				v = g.maxs[i]
			case plan.AggCount:
				v = g.counts[i]
			case plan.AggCountDistinct:
				v = int64(len(g.distinct[i]))
			}
			out.Cols[nk+i] = append(out.Cols[nk+i], v)
		}
	}
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}
