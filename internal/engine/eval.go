package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"aquoman/internal/col"
	"aquoman/internal/plan"
	"aquoman/internal/regexcc"
	"aquoman/internal/systolic"
)

// evalExpr evaluates a plan expression over every row of the batch. The
// normal path lowers through plan.Lower — the same semantics the offload
// path executes on the PE array — and only Text (string-heap) predicates
// take the host-only path, which materializes them into temporary integer
// columns first.
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
	n := b.NumRows()
	out := make([]int64, n)
	e.parallelRanges(n, func(_, lo, hi int) {
		row := make([]int64, len(b.Cols))
		for r := lo; r < hi; r++ {
			for c := range b.Cols {
				row[c] = b.Cols[c][r]
			}
			out[r] = systolic.EvalExpr(lowered, row)
		}
	})
	return out, nil
}

// textWork evaluates a string-heap loop over [0, n) rows in parallel
// morsels. Each worker accumulates its row count privately; the partials
// merge into a single synchronized Stats.work("text") call after the
// barrier, so workers never contend on (or race over) the shared map.
func (e *Engine) textWork(n int, fn func(lo, hi int)) {
	nWorkers := e.threads
	if nWorkers < 1 {
		nWorkers = 1
	}
	counts := make([]int64, nWorkers+1)
	e.parallelRanges(n, func(w, lo, hi int) {
		fn(lo, hi)
		counts[w] += int64(hi - lo)
	})
	var total int64
	for _, c := range counts {
		total += c
	}
	e.Stats.work("text", total)
}

// materializeText rewrites Text-dependent subexpressions into references
// to freshly computed integer columns (appended to a widened copy of the
// batch), accounting the string-heap reads as "text" work. The per-row
// heap lookups run in parallel morsels (the HeapReader is immutable
// after construction and regexcc patterns are stateless).
func (e *Engine) materializeText(b *Batch, ex plan.Expr) (*Batch, plan.Expr, error) {
	wide := &Batch{Schema: append(plan.Schema{}, b.Schema...), Cols: append([][]int64(nil), b.Cols...)}
	tmp := 0
	addCol := func(name string, vals []int64) string {
		full := fmt.Sprintf("@text%d_%s", tmp, name)
		tmp++
		wide.Schema = append(wide.Schema, plan.Field{Name: full, Typ: col.Int64})
		wide.Cols = append(wide.Cols, vals)
		return full
	}
	// textField loads a Text column's heap — under the query's context, so
	// the read is cancellable and its device time is the query's — and
	// returns it with the column's heap offsets.
	textField := func(name string) (*col.HeapReader, []int64, error) {
		f, err := wide.Schema.Field(name)
		if err != nil {
			return nil, nil, err
		}
		if f.Src == nil {
			return nil, nil, fmt.Errorf("engine: column %q has no string source", name)
		}
		vals, err := wide.Col(name)
		if err != nil {
			return nil, nil, err
		}
		heap, err := f.Src.NewHeapReaderCtx(e.ctx, hostRequester)
		return heap, vals, err
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
			heap, offs, err := textField(n.Col)
			if err != nil {
				return nil, err
			}
			pat := regexcc.Compile(n.Pattern)
			vals := make([]int64, len(offs))
			e.textWork(len(offs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if pat.Match(heap.Str(offs[i])) != n.Negate {
						vals[i] = 1
					}
				}
			})
			return plan.C(addCol(n.Col, vals)), nil
		case plan.SubstrCode:
			heap, offs, err := textField(n.Col)
			if err != nil {
				return nil, err
			}
			vals := make([]int64, len(offs))
			e.textWork(len(offs), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					s := heap.Str(offs[i])
					start := n.Start - 1
					end := start + n.Len
					if start < 0 || end > len(s) {
						continue
					}
					vals[i] = plan.PackString(s[start:end])
				}
			})
			return plan.C(addCol(n.Col, vals)), nil
		case plan.Bin:
			// Equality of a Text column against a literal.
			if c, okc := n.L.(plan.Col); okc {
				if f, err := wide.Schema.Field(c.Name); err == nil && f.Typ == col.Text {
					if s, oks := n.R.(plan.Str); oks {
						heap, offs, err := textField(c.Name)
						if err != nil {
							return nil, err
						}
						vals := make([]int64, len(offs))
						e.textWork(len(offs), func(lo, hi int) {
							for i := lo; i < hi; i++ {
								if heap.Str(offs[i]) == s.V {
									vals[i] = 1
								}
							}
						})
						eqCol := plan.C(addCol(c.Name, vals))
						if n.Op == plan.OpNE {
							return plan.Not{E: eqCol}, nil
						}
						return eqCol, nil
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
	firstRow int
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

// merge folds another partial into g.
func (g *aggState) merge(o *aggState, aggs []plan.AggSpec) {
	if o.firstRow < g.firstRow {
		g.firstRow = o.firstRow
	}
	for i, a := range aggs {
		switch a.Func {
		case plan.AggSum, plan.AggAvg, plan.AggCount:
			g.sums[i] += o.sums[i]
			g.counts[i] += o.counts[i]
		case plan.AggMin:
			if o.mins[i] < g.mins[i] {
				g.mins[i] = o.mins[i]
			}
			g.counts[i] += o.counts[i]
		case plan.AggMax:
			if o.maxs[i] > g.maxs[i] {
				g.maxs[i] = o.maxs[i]
			}
			g.counts[i] += o.counts[i]
		case plan.AggCountDistinct:
			for v := range o.distinct[i] {
				g.distinct[i][v] = struct{}{}
			}
		}
	}
}

// sortGroupsByFirstRow restores the sequential first-seen emission order.
func sortGroupsByFirstRow(order []string, groups map[string]*aggState) {
	sort.SliceStable(order, func(a, b int) bool {
		return groups[order[a]].firstRow < groups[order[b]].firstRow
	})
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
	// Morsel-parallel partial aggregation: each worker owns a range and a
	// private group table; partials merge afterwards, and the output is
	// re-ordered by first-seen row so the result is identical to the
	// sequential scan.
	nWorkers := e.threads
	if nWorkers < 1 {
		nWorkers = 1
	}
	partGroups := make([]map[string]*aggState, nWorkers+1)
	partOrder := make([][]string, nWorkers+1)
	e.parallelRanges(n, func(w, lo, hi int) {
		groups := make(map[string]*aggState)
		var order []string
		var kb []byte
		for r := lo; r < hi; r++ {
			kb = kb[:0]
			for _, c := range keyIdx {
				var tmp [8]byte
				binary.LittleEndian.PutUint64(tmp[:], uint64(in.Cols[c][r]))
				kb = append(kb, tmp[:]...)
			}
			g, ok := groups[string(kb)]
			if !ok {
				g = newAggState(len(keyIdx), t.Aggs)
				g.firstRow = r
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
		partGroups[w] = groups
		partOrder[w] = order
	})
	groups := make(map[string]*aggState)
	var order []string
	for w := 0; w < len(partGroups); w++ {
		if partGroups[w] == nil {
			continue
		}
		for _, key := range partOrder[w] {
			pg := partGroups[w][key]
			g, ok := groups[key]
			if !ok {
				groups[key] = pg
				order = append(order, key)
				continue
			}
			g.merge(pg, t.Aggs)
		}
	}
	sortGroupsByFirstRow(order, groups)
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
