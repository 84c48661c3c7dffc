package engine

import (
	"fmt"

	"aquoman/internal/col"
	"aquoman/internal/plan"
	"aquoman/internal/regexcc"
	"aquoman/internal/swissknife"
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

func (e *Engine) execGroupBy(t *plan.GroupBy) (*Batch, error) {
	in, err := e.exec(t.Input)
	if err != nil {
		return nil, err
	}
	keyCols := make([][]int64, len(t.Keys))
	for i, k := range t.Keys {
		c := in.Schema.Index(k)
		if c < 0 {
			return nil, fmt.Errorf("engine: group key %q missing", k)
		}
		keyCols[i] = in.Cols[c]
	}
	// The Swissknife's group table maps each row's key tuple to a group id
	// in first-seen order, which is the emission order; each aggregate is
	// then one pass over its argument column.
	tab := swissknife.NewTable(len(keyCols))
	ids := make([]int32, in.NumRows())
	tab.FindCols(keyCols, nil, 0, ids)
	e.Stats.work("agg", int64(len(ids))*int64(len(t.Aggs)+1))

	out := NewBatch(t.Schema())
	nk := len(t.Keys)
	copy(out.Cols, tab.Keys())
	for i, a := range t.Aggs {
		var vals []int64 // an argument column, evaluated once; none for COUNT(*)
		if a.E != nil {
			if vals, err = e.evalExpr(in, a.E); err != nil {
				return nil, err
			}
		}
		out.Cols[nk+i] = hostAggregate(a.Func, vals, ids, tab.Len())
	}
	// Scalar aggregation over zero rows still yields one row of zeros
	// (SQL: COUNT()=0; SUM() is NULL, rendered 0 here).
	if tab.Len() == 0 && nk == 0 {
		for c := range out.Cols {
			out.Cols[c] = []int64{0}
		}
	}
	e.Stats.alloc(out)
	e.Stats.free(in)
	return out, nil
}

// hostAggKinds maps each host aggregate but COUNT(DISTINCT) to the
// Swissknife accumulator it folds with (AVG is SUM, divided at the end).
var hostAggKinds = map[plan.AggFunc]swissknife.AggKind{
	plan.AggSum: swissknife.AggSum, plan.AggAvg: swissknife.AggSum, plan.AggMin: swissknife.AggMin,
	plan.AggMax: swissknife.AggMax, plan.AggCount: swissknife.AggCnt,
}

// hostAggregate folds one aggregate's argument column into one value for
// each of the groups with the Swissknife's kernels; ids maps each row to its
// group. vals is nil only for COUNT(*).
func hostAggregate(fn plan.AggFunc, vals []int64, ids []int32, groups int) []int64 {
	out := make([]int64, groups)
	if fn == plan.AggCountDistinct {
		// A (group, value) pair is new exactly once.
		seen, pair := swissknife.NewTable(2), make([]int64, 2)
		for r, id := range ids {
			pair[0], pair[1] = int64(id), vals[r]
			if _, added := seen.Find(pair); added {
				out[id]++
			}
		}
		return out
	}
	kind := hostAggKinds[fn]
	for g := range out {
		out[g] = kind.Identity()
	}
	swissknife.Fold(kind, out, vals, ids)
	if fn == plan.AggAvg {
		rows := make([]int64, groups)
		swissknife.Fold(swissknife.AggCnt, rows, nil, ids)
		for g, n := range rows {
			out[g] /= n
		}
	}
	return out
}
