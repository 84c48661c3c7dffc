// Oracle is a deliberately naive in-memory reference executor used by the
// differential test harness. It snapshots every table (including decoded
// string content) into plain Go maps before any fault injection starts,
// then evaluates bound plan trees with straightforward tree-walking
// semantics: real string comparisons instead of dictionary-code
// arithmetic, a recursive LIKE matcher instead of the regex accelerator,
// calendar math via the time package instead of the systolic year
// polynomial. Agreement with the pipeline is therefore evidence, not
// construction: the two executors share only the plan algebra.
package tpch

import (
	"fmt"
	"sort"
	"strconv"

	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
)

// Oracle holds a fault-immune snapshot of a store.
type Oracle struct {
	tables map[string]*oraTable
	// dicts/texts decode Dict codes and Text heap offsets per source
	// column without touching flash again.
	dicts map[*col.ColumnInfo][]string
	texts map[*col.ColumnInfo]map[int64]string
}

type oraTable struct {
	rows int
	cols map[string][]int64
}

// OraBatch is the oracle's result: a schema plus column vectors.
type OraBatch struct {
	Schema plan.Schema
	Cols   [][]int64
}

// NumRows returns the row count.
func (b *OraBatch) NumRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// NewOracle snapshots every table of the store into memory. Call it
// before attaching a fault injector: the snapshot reads flash normally.
func NewOracle(s *col.Store) (*Oracle, error) {
	o := &Oracle{
		tables: make(map[string]*oraTable),
		dicts:  make(map[*col.ColumnInfo][]string),
		texts:  make(map[*col.ColumnInfo]map[int64]string),
	}
	for _, name := range s.Tables() {
		tab, err := s.Table(name)
		if err != nil {
			return nil, err
		}
		ot := &oraTable{rows: tab.NumRows, cols: make(map[string][]int64)}
		for _, def := range tab.Cols {
			ci, err := tab.Column(def.Name)
			if err != nil {
				return nil, err
			}
			vals, err := ci.ReadAll(flash.Host)
			if err != nil {
				return nil, fmt.Errorf("oracle snapshot %s.%s: %w", name, def.Name, err)
			}
			ot.cols[def.Name] = vals
			switch def.Typ {
			case col.Dict:
				o.dicts[ci] = ci.Dict()
			case col.Text:
				strs, err := ci.Strs(nil, vals, flash.Host)
				if err != nil {
					return nil, fmt.Errorf("oracle snapshot %s.%s heap: %w", name, def.Name, err)
				}
				m := make(map[int64]string, len(vals))
				for i, v := range vals {
					m[v] = strs[i]
				}
				o.texts[ci] = m
			}
		}
		o.tables[name] = ot
	}
	return o, nil
}

// decode turns a stored value of a string column into its content using
// only the snapshot.
func (o *Oracle) decode(src *col.ColumnInfo, v int64) (string, error) {
	if d, ok := o.dicts[src]; ok {
		if v < 0 || int(v) >= len(d) {
			return "", fmt.Errorf("oracle: dict code %d out of range", v)
		}
		return d[v], nil
	}
	if m, ok := o.texts[src]; ok {
		s, ok := m[v]
		if !ok {
			return "", fmt.Errorf("oracle: heap offset %d not in snapshot", v)
		}
		return s, nil
	}
	return "", fmt.Errorf("oracle: column not snapshotted")
}

// Run evaluates a bound plan tree against the snapshot.
func (o *Oracle) Run(n plan.Node) (*OraBatch, error) { return o.exec(n) }

func (o *Oracle) exec(n plan.Node) (*OraBatch, error) {
	switch t := n.(type) {
	case *plan.Scan:
		return o.execScan(t)
	case *plan.Filter:
		in, err := o.exec(t.Input)
		if err != nil {
			return nil, err
		}
		out := &OraBatch{Schema: in.Schema, Cols: make([][]int64, len(in.Cols))}
		for r := 0; r < in.NumRows(); r++ {
			v, err := o.eval(in, r, t.Pred)
			if err != nil {
				return nil, err
			}
			if v != 0 {
				for c := range in.Cols {
					out.Cols[c] = append(out.Cols[c], in.Cols[c][r])
				}
			}
		}
		return out, nil
	case *plan.Project:
		in, err := o.exec(t.Input)
		if err != nil {
			return nil, err
		}
		out := &OraBatch{Schema: t.Schema(), Cols: make([][]int64, len(t.Exprs))}
		for i, ne := range t.Exprs {
			vals := make([]int64, in.NumRows())
			for r := range vals {
				v, err := o.eval(in, r, ne.E)
				if err != nil {
					return nil, err
				}
				vals[r] = v
			}
			out.Cols[i] = vals
		}
		return out, nil
	case *plan.Join:
		return o.execJoin(t)
	case *plan.GroupBy:
		return o.execGroupBy(t)
	case *plan.OrderBy:
		return o.execOrderBy(t)
	case *plan.Limit:
		in, err := o.exec(t.Input)
		if err != nil {
			return nil, err
		}
		if in.NumRows() <= t.N {
			return in, nil
		}
		out := &OraBatch{Schema: in.Schema, Cols: make([][]int64, len(in.Cols))}
		for c := range in.Cols {
			out.Cols[c] = in.Cols[c][:t.N]
		}
		return out, nil
	case *plan.ScalarJoin:
		sub, err := o.exec(t.Sub)
		if err != nil {
			return nil, err
		}
		if sub.NumRows() != 1 || len(sub.Cols) != 1 {
			return nil, fmt.Errorf("oracle: scalar subquery yields %dx%d", sub.NumRows(), len(sub.Cols))
		}
		in, err := o.exec(t.Input)
		if err != nil {
			return nil, err
		}
		out := &OraBatch{Schema: t.Schema(), Cols: make([][]int64, len(in.Cols)+1)}
		copy(out.Cols, in.Cols)
		bc := make([]int64, in.NumRows())
		for i := range bc {
			bc[i] = sub.Cols[0][0]
		}
		out.Cols[len(in.Cols)] = bc
		return out, nil
	case *plan.Materialized:
		if t.Cols == nil {
			return nil, fmt.Errorf("oracle: materialized node %q has no data", t.Label)
		}
		return &OraBatch{Schema: t.S, Cols: t.Cols}, nil
	default:
		return nil, fmt.Errorf("oracle: unknown node %T", n)
	}
}

func (o *Oracle) execScan(t *plan.Scan) (*OraBatch, error) {
	ot, ok := o.tables[t.Table]
	if !ok {
		return nil, fmt.Errorf("oracle: table %q not snapshotted", t.Table)
	}
	out := &OraBatch{Schema: t.Schema(), Cols: make([][]int64, len(t.Cols))}
	for i, name := range t.Cols {
		if name == plan.RowIDCol {
			ids := make([]int64, ot.rows)
			for r := range ids {
				ids[r] = int64(r)
			}
			out.Cols[i] = ids
			continue
		}
		vals, ok := ot.cols[name]
		if !ok {
			return nil, fmt.Errorf("oracle: no column %s.%s", t.Table, name)
		}
		out.Cols[i] = vals
	}
	return out, nil
}

// tupleKey serializes a key tuple for hash maps.
func tupleKey(cols [][]int64, idx []int, row int) string {
	k := ""
	for _, c := range idx {
		k += strconv.FormatInt(cols[c][row], 10) + "|"
	}
	return k
}

func (o *Oracle) execJoin(t *plan.Join) (*OraBatch, error) {
	left, err := o.exec(t.L)
	if err != nil {
		return nil, err
	}
	right, err := o.exec(t.R)
	if err != nil {
		return nil, err
	}
	lIdx := make([]int, len(t.LKeys))
	for i, k := range t.LKeys {
		lIdx[i] = left.Schema.Index(k)
	}
	rIdx := make([]int, len(t.RKeys))
	for i, k := range t.RKeys {
		rIdx[i] = right.Schema.Index(k)
	}
	ht := make(map[string][]int)
	for r := 0; r < right.NumRows(); r++ {
		k := tupleKey(right.Cols, rIdx, r)
		ht[k] = append(ht[k], r)
	}
	combined := append(append(plan.Schema{}, left.Schema...), right.Schema...)
	wide := &OraBatch{Schema: combined, Cols: make([][]int64, len(combined))}
	match := func(lr, rr int) (bool, error) {
		if t.Extra == nil {
			return true, nil
		}
		// Evaluate the extra predicate on a one-row concatenated batch.
		for c := range left.Cols {
			wide.Cols[c] = left.Cols[c][lr : lr+1]
		}
		for c := range right.Cols {
			wide.Cols[len(left.Cols)+c] = right.Cols[c][rr : rr+1]
		}
		v, err := o.eval(wide, 0, t.Extra)
		return v != 0, err
	}
	out := &OraBatch{Schema: t.Schema(), Cols: make([][]int64, len(t.Schema()))}
	emit := func(lr, rr int, matched int64) {
		c := 0
		for ; c < len(left.Cols); c++ {
			out.Cols[c] = append(out.Cols[c], left.Cols[c][lr])
		}
		if t.Kind == plan.InnerJoin || t.Kind == plan.LeftMarkJoin {
			for rc := range right.Cols {
				var v int64
				if rr >= 0 {
					v = right.Cols[rc][rr]
				}
				out.Cols[c] = append(out.Cols[c], v)
				c++
			}
		}
		if t.Kind == plan.LeftMarkJoin {
			out.Cols[c] = append(out.Cols[c], matched)
		}
	}
	for lr := 0; lr < left.NumRows(); lr++ {
		cands := ht[tupleKey(left.Cols, lIdx, lr)]
		any := false
		for _, rr := range cands {
			ok, err := match(lr, rr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			any = true
			switch t.Kind {
			case plan.InnerJoin, plan.LeftMarkJoin:
				emit(lr, rr, 1)
			case plan.SemiJoin:
				emit(lr, -1, 1)
			}
			if t.Kind == plan.SemiJoin || t.Kind == plan.AntiJoin {
				break
			}
		}
		if !any && (t.Kind == plan.AntiJoin || t.Kind == plan.LeftMarkJoin) {
			emit(lr, -1, 0)
		}
	}
	return out, nil
}

// oraGroup is one group's accumulators.
type oraGroup struct {
	keys   []int64
	sums   []int64
	mins   []int64
	maxs   []int64
	counts []int64
	seen   []map[int64]struct{}
}

func (o *Oracle) execGroupBy(t *plan.GroupBy) (*OraBatch, error) {
	in, err := o.exec(t.Input)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(t.Keys))
	for i, k := range t.Keys {
		keyIdx[i] = in.Schema.Index(k)
		if keyIdx[i] < 0 {
			return nil, fmt.Errorf("oracle: group key %q missing", k)
		}
	}
	groups := make(map[string]*oraGroup)
	var order []string
	const maxInt64 = int64(^uint64(0) >> 1)
	for r := 0; r < in.NumRows(); r++ {
		key := tupleKey(in.Cols, keyIdx, r)
		g, ok := groups[key]
		if !ok {
			g = &oraGroup{
				keys:   make([]int64, len(keyIdx)),
				sums:   make([]int64, len(t.Aggs)),
				mins:   make([]int64, len(t.Aggs)),
				maxs:   make([]int64, len(t.Aggs)),
				counts: make([]int64, len(t.Aggs)),
				seen:   make([]map[int64]struct{}, len(t.Aggs)),
			}
			for i := range g.mins {
				g.mins[i], g.maxs[i] = maxInt64, -maxInt64-1
			}
			for i := range t.Aggs {
				g.seen[i] = make(map[int64]struct{})
			}
			for i, c := range keyIdx {
				g.keys[i] = in.Cols[c][r]
			}
			groups[key] = g
			order = append(order, key)
		}
		for i, a := range t.Aggs {
			var v int64
			if a.E != nil {
				v, err = o.eval(in, r, a.E)
				if err != nil {
					return nil, err
				}
			}
			switch a.Func {
			case plan.AggSum, plan.AggAvg:
				g.sums[i] += v
				g.counts[i]++
			case plan.AggMin:
				if v < g.mins[i] {
					g.mins[i] = v
				}
			case plan.AggMax:
				if v > g.maxs[i] {
					g.maxs[i] = v
				}
			case plan.AggCount:
				g.counts[i]++
			case plan.AggCountDistinct:
				g.seen[i][v] = struct{}{}
			}
		}
	}
	out := &OraBatch{Schema: t.Schema(), Cols: make([][]int64, len(t.Schema()))}
	nk := len(t.Keys)
	if len(order) == 0 && nk == 0 {
		// Scalar aggregation over zero rows yields one row of zeros.
		for c := range out.Cols {
			out.Cols[c] = []int64{0}
		}
		return out, nil
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
				v = int64(len(g.seen[i]))
			}
			out.Cols[nk+i] = append(out.Cols[nk+i], v)
		}
	}
	return out, nil
}

func (o *Oracle) execOrderBy(t *plan.OrderBy) (*OraBatch, error) {
	in, err := o.exec(t.Input)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	type keyInfo struct {
		col  []int64
		desc bool
		text *col.ColumnInfo
	}
	keys := make([]keyInfo, len(t.Keys))
	for i, k := range t.Keys {
		ci := in.Schema.Index(k.Name)
		if ci < 0 {
			return nil, fmt.Errorf("oracle: sort key %q missing", k.Name)
		}
		f := in.Schema[ci]
		keys[i] = keyInfo{col: in.Cols[ci], desc: k.Desc}
		if f.Typ == col.Text && f.Src != nil {
			keys[i].text = f.Src
		}
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := idx[a], idx[b]
		for _, k := range keys {
			va, vb := k.col[ra], k.col[rb]
			if k.text != nil {
				sa, errA := o.decode(k.text, va)
				sb, errB := o.decode(k.text, vb)
				if sortErr == nil {
					if errA != nil {
						sortErr = errA
					} else if errB != nil {
						sortErr = errB
					}
				}
				if sa == sb {
					continue
				}
				if k.desc {
					return sa > sb
				}
				return sa < sb
			}
			if va == vb {
				continue
			}
			if k.desc {
				return va > vb
			}
			return va < vb
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	out := &OraBatch{Schema: in.Schema, Cols: make([][]int64, len(in.Cols))}
	for c := range in.Cols {
		dst := make([]int64, n)
		for i, r := range idx {
			dst[i] = in.Cols[c][r]
		}
		out.Cols[c] = dst
	}
	return out, nil
}

// eval computes an expression for row r of batch b.
func (o *Oracle) eval(b *OraBatch, r int, e plan.Expr) (int64, error) {
	switch n := e.(type) {
	case plan.Col:
		i := b.Schema.Index(n.Name)
		if i < 0 {
			return 0, fmt.Errorf("oracle: unknown column %q", n.Name)
		}
		return b.Cols[i][r], nil
	case plan.Int:
		return n.V, nil
	case plan.Str:
		return 0, fmt.Errorf("oracle: bare string literal %q", n.V)
	case plan.Bin:
		return o.evalBin(b, r, n)
	case plan.Not:
		v, err := o.eval(b, r, n.E)
		if err != nil {
			return 0, err
		}
		return b01(v == 0), nil
	case plan.InInts:
		v, err := o.eval(b, r, n.E)
		if err != nil {
			return 0, err
		}
		for _, w := range n.Vs {
			if v == w {
				return 1, nil
			}
		}
		return 0, nil
	case plan.InStrs:
		s, err := o.colStr(b, r, n.Col)
		if err != nil {
			return 0, err
		}
		for _, w := range n.Vs {
			if s == w {
				return 1, nil
			}
		}
		return 0, nil
	case plan.Like:
		s, err := o.colStr(b, r, n.Col)
		if err != nil {
			return 0, err
		}
		return b01(likeMatch(s, n.Pattern) != n.Negate), nil
	case plan.SubstrCode:
		s, err := o.colStr(b, r, n.Col)
		if err != nil {
			return 0, err
		}
		start := n.Start - 1
		end := start + n.Len
		if start < 0 || end > len(s) {
			return 0, nil
		}
		var v int64
		for i := start; i < end; i++ {
			v = v<<8 | int64(s[i])
		}
		return v, nil
	case plan.YearOf:
		d, err := o.eval(b, r, n.E)
		if err != nil {
			return 0, err
		}
		return int64(col.DateYear(d)), nil
	case plan.Case:
		c, err := o.eval(b, r, n.Cond)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return o.eval(b, r, n.Then)
		}
		return o.eval(b, r, n.Else)
	default:
		return 0, fmt.Errorf("oracle: unknown expr %T", e)
	}
}

func (o *Oracle) evalBin(b *OraBatch, r int, n plan.Bin) (int64, error) {
	// String comparisons: compare decoded content, not codes.
	if s, ok := n.R.(plan.Str); ok {
		c, okc := n.L.(plan.Col)
		if !okc {
			return 0, fmt.Errorf("oracle: string comparison needs a column: %s", n)
		}
		v, err := o.colStr(b, r, c.Name)
		if err != nil {
			return 0, err
		}
		return strCmp(n.Op, v, s.V)
	}
	if s, ok := n.L.(plan.Str); ok {
		c, okc := n.R.(plan.Col)
		if !okc {
			return 0, fmt.Errorf("oracle: string comparison needs a column: %s", n)
		}
		v, err := o.colStr(b, r, c.Name)
		if err != nil {
			return 0, err
		}
		return strCmp(flipOp(n.Op), v, s.V)
	}
	l, err := o.eval(b, r, n.L)
	if err != nil {
		return 0, err
	}
	rv, err := o.eval(b, r, n.R)
	if err != nil {
		return 0, err
	}
	switch n.Op {
	case plan.OpAdd:
		return l + rv, nil
	case plan.OpSub:
		return l - rv, nil
	case plan.OpMul:
		return l * rv, nil
	case plan.OpDiv:
		if rv == 0 {
			return 0, nil
		}
		return l / rv, nil
	case plan.OpDecMul:
		return l * rv / col.DecimalScale, nil
	case plan.OpAnd:
		return b01(l != 0 && rv != 0), nil
	case plan.OpOr:
		return b01(l != 0 || rv != 0), nil
	case plan.OpEQ:
		return b01(l == rv), nil
	case plan.OpNE:
		return b01(l != rv), nil
	case plan.OpLT:
		return b01(l < rv), nil
	case plan.OpLE:
		return b01(l <= rv), nil
	case plan.OpGT:
		return b01(l > rv), nil
	case plan.OpGE:
		return b01(l >= rv), nil
	default:
		return 0, fmt.Errorf("oracle: unknown op %v", n.Op)
	}
}

// colStr resolves a string column's content for one row.
func (o *Oracle) colStr(b *OraBatch, r int, name string) (string, error) {
	i := b.Schema.Index(name)
	if i < 0 {
		return "", fmt.Errorf("oracle: unknown string column %q", name)
	}
	f := b.Schema[i]
	if f.Src == nil {
		return "", fmt.Errorf("oracle: column %q has no string source", name)
	}
	return o.decode(f.Src, b.Cols[i][r])
}

func strCmp(op plan.BinOp, a, b string) (int64, error) {
	switch op {
	case plan.OpEQ:
		return b01(a == b), nil
	case plan.OpNE:
		return b01(a != b), nil
	case plan.OpLT:
		return b01(a < b), nil
	case plan.OpLE:
		return b01(a <= b), nil
	case plan.OpGT:
		return b01(a > b), nil
	case plan.OpGE:
		return b01(a >= b), nil
	default:
		return 0, fmt.Errorf("oracle: bad string comparison %v", op)
	}
}

func flipOp(op plan.BinOp) plan.BinOp {
	switch op {
	case plan.OpLT:
		return plan.OpGT
	case plan.OpGT:
		return plan.OpLT
	case plan.OpLE:
		return plan.OpGE
	case plan.OpGE:
		return plan.OpLE
	default:
		return op
	}
}

func b01(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// likeMatch is a from-scratch SQL LIKE matcher ('%' any run, '_' one
// byte), recursive on purpose — it shares nothing with regexcc.
func likeMatch(s, pat string) bool {
	var m func(si, pi int) bool
	m = func(si, pi int) bool {
		if pi == len(pat) {
			return si == len(s)
		}
		switch pat[pi] {
		case '%':
			for k := si; k <= len(s); k++ {
				if m(k, pi+1) {
					return true
				}
			}
			return false
		case '_':
			return si < len(s) && m(si+1, pi+1)
		default:
			return si < len(s) && s[si] == pat[pi] && m(si+1, pi+1)
		}
	}
	return m(0, 0)
}
