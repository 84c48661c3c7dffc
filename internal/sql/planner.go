package sql

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/plan"
)

// CompileError marks a failure to turn SQL text into a bound plan —
// parse errors, unknown tables/columns, type mismatches. It lets callers
// (e.g. the HTTP server) distinguish a bad statement (the client's fault,
// 400) from an execution failure (the system's fault, 500). Error()
// returns the underlying message unchanged; use errors.As to detect it.
type CompileError struct {
	// Src is the offending SQL statement.
	Src string
	// Err is the underlying parse/plan/bind failure.
	Err error
}

func (e *CompileError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CompileError) Unwrap() error { return e.Err }

// Statement is one compiled SQL statement; exactly one field is set: the
// bound plan of a SELECT, or the storage-neutral form of one write (the
// façade executes those against the catalog, keeping this package free
// of any catalog dependency).
type Statement struct {
	Select plan.Node
	Create *CompiledCreate
	Insert *CompiledInsert
	Update *CompiledUpdate
	Delete *CompiledDelete
}

// Compile is the one SQL pipeline: it parses src and compiles it against
// the store's catalog, whatever kind of statement it is. All failures are
// reported as *CompileError.
func Compile(src string, store *col.Store) (*Statement, error) {
	st, err := compile(src, store)
	if err != nil {
		return nil, &CompileError{Src: src, Err: err}
	}
	return st, nil
}

func compile(src string, store *col.Store) (*Statement, error) {
	ast, err := parseStatement(src)
	if err != nil {
		return nil, err
	}
	out := &Statement{}
	switch n := ast.(type) {
	case *stmt:
		if out.Select, err = (&planner{store: store, st: n}).plan(); err == nil {
			err = plan.Bind(out.Select, store)
		}
	case *createStmt:
		out.Create, err = compileCreate(n)
	case *insertStmt:
		out.Insert, err = compileInsert(n, store)
	case *updateStmt:
		out.Update, err = compileUpdate(n, store)
	case *deleteStmt:
		out.Delete, err = compileDelete(n, store)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Plan is Compile for the read path: a bound plan tree ready for the
// engine or the AQUOMAN offload path; a write is rejected.
func Plan(src string, store *col.Store) (plan.Node, error) {
	st, err := Compile(src, store)
	if err != nil {
		return nil, err
	}
	if st.Select == nil {
		return nil, &CompileError{Src: src, Err: errors.New("sql: statement is a write, not a query — use the write path")}
	}
	return st.Select, nil
}

// CompileExec is Compile for the write path: a SELECT is rejected.
func CompileExec(src string, store *col.Store) (*Statement, error) {
	st, err := Compile(src, store)
	if err != nil {
		return nil, err
	}
	if st.Select != nil {
		return nil, &CompileError{Src: src, Err: errors.New("sql: SELECT is a query, not a write — use the query path")}
	}
	return st, nil
}

// binding is one FROM entry resolved against the catalog.
type binding struct {
	item fromItem
	tab  *col.Table
	// ref(colName) is how the rest of the plan refers to this table's
	// column (bare when globally unique, "alias.col" otherwise).
	refName map[string]string
	// used collects the storage columns the query touches.
	used map[string]bool
}

func (b *binding) aliasOrTable() string {
	if b.item.alias != "" {
		return b.item.alias
	}
	return b.item.table
}

// typed pairs a plan expression with its inferred type; literal marks
// unscaled integer literals awaiting decimal coercion.
type typed struct {
	e       plan.Expr
	typ     col.Type
	literal bool
}

type planner struct {
	store *col.Store
	st    *stmt

	binds []*binding
	// aggs are the extracted aggregate calls, deduplicated.
	aggs     []plan.AggSpec
	aggNames map[string]string // call signature -> output column name
	aggTypes map[string]col.Type
	// keySigs maps group-by expression signatures to key column names so
	// that SELECT/ORDER BY occurrences of the same expression resolve to
	// the key.
	keySigs map[string]string
}

func (p *planner) plan() (plan.Node, error) {
	if len(p.st.from) == 0 {
		return nil, fmt.Errorf("sql: no FROM tables")
	}
	// Resolve FROM bindings and column visibility.
	colOwners := map[string][]*binding{}
	for _, fi := range p.st.from {
		tab, err := p.store.Table(fi.table)
		if err != nil {
			return nil, err
		}
		b := &binding{item: fi, tab: tab, refName: map[string]string{}, used: map[string]bool{}}
		p.binds = append(p.binds, b)
		for _, cd := range tab.Cols {
			colOwners[cd.Name] = append(colOwners[cd.Name], b)
		}
	}
	for _, b := range p.binds {
		for _, cd := range b.tab.Cols {
			if len(colOwners[cd.Name]) == 1 && b.item.alias == "" {
				b.refName[cd.Name] = cd.Name
			} else {
				b.refName[cd.Name] = b.aliasOrTable() + "." + cd.Name
			}
		}
	}

	// Split WHERE into equi-join edges and filter conjuncts, marking
	// used columns along the way.
	var joinConds []aBin
	var filters []astExpr
	if p.st.where != nil {
		for _, conj := range astConjuncts(p.st.where) {
			if jb, ok := p.joinCond(conj); ok {
				joinConds = append(joinConds, jb)
				continue
			}
			filters = append(filters, conj)
		}
	}
	// Mark usage from every expression in the statement.
	exprs := []astExpr{}
	for _, s := range p.st.selects {
		exprs = append(exprs, s.expr)
	}
	exprs = append(exprs, p.st.groupBy...)
	if p.st.having != nil {
		exprs = append(exprs, p.st.having)
	}
	for _, o := range p.st.orderBy {
		exprs = append(exprs, o.expr)
	}
	exprs = append(exprs, filters...)
	for _, jc := range joinConds {
		exprs = append(exprs, jc.l, jc.r)
	}
	for _, e := range exprs {
		if err := p.markUsed(e); err != nil {
			return nil, err
		}
	}

	// Build the left-deep join tree in FROM order.
	root, err := p.joinTree(joinConds)
	if err != nil {
		return nil, err
	}
	if len(filters) > 0 {
		pred, err := p.boolExpr(astAndAll(filters))
		if err != nil {
			return nil, err
		}
		root = &plan.Filter{Input: root, Pred: pred}
	}
	return p.projectAndAggregate(root)
}

// boolExpr translates a row-level boolean predicate.
func (p *planner) boolExpr(e astExpr) (plan.Expr, error) {
	t, err := p.scalarExpr(e)
	if err != nil {
		return nil, err
	}
	return t.e, nil
}

// joinCond recognizes col = col across two different tables.
func (p *planner) joinCond(e astExpr) (aBin, bool) {
	b, ok := e.(aBin)
	if !ok || b.op != "=" {
		return aBin{}, false
	}
	lc, lok := b.l.(aCol)
	rc, rok := b.r.(aCol)
	if !lok || !rok {
		return aBin{}, false
	}
	lb, _, err1 := p.resolve(lc)
	rb, _, err2 := p.resolve(rc)
	if err1 != nil || err2 != nil || lb == rb {
		return aBin{}, false
	}
	return b, true
}

// resolve finds a column reference's owning binding and storage column.
func (p *planner) resolve(c aCol) (*binding, string, error) {
	if c.qual != "" {
		for _, b := range p.binds {
			if b.aliasOrTable() == c.qual {
				if !b.tab.HasColumn(c.name) && c.name != "@rowid" {
					return nil, "", fmt.Errorf("sql: table %q has no column %q", c.qual, c.name)
				}
				return b, c.name, nil
			}
		}
		return nil, "", fmt.Errorf("sql: unknown table alias %q", c.qual)
	}
	var found *binding
	for _, b := range p.binds {
		if b.tab.HasColumn(c.name) {
			if found != nil {
				return nil, "", fmt.Errorf("sql: ambiguous column %q (qualify it)", c.name)
			}
			found = b
		}
	}
	if found == nil {
		return nil, "", fmt.Errorf("sql: unknown column %q", c.name)
	}
	return found, c.name, nil
}

func (p *planner) markUsed(e astExpr) error {
	switch n := e.(type) {
	case aCol:
		b, sc, err := p.resolve(n)
		if err != nil {
			// Unresolvable names may be SELECT aliases (handled later in
			// HAVING/ORDER BY); ignore here.
			return nil
		}
		b.used[sc] = true
	case aBin:
		if err := p.markUsed(n.l); err != nil {
			return err
		}
		return p.markUsed(n.r)
	case aNot:
		return p.markUsed(n.e)
	case aIn:
		if err := p.markUsed(n.e); err != nil {
			return err
		}
		for _, it := range n.list {
			if err := p.markUsed(it); err != nil {
				return err
			}
		}
	case aBetween:
		if err := p.markUsed(n.e); err != nil {
			return err
		}
		if err := p.markUsed(n.lo); err != nil {
			return err
		}
		return p.markUsed(n.hi)
	case aLike:
		return p.markUsed(n.e)
	case aCase:
		if err := p.markUsed(n.cond); err != nil {
			return err
		}
		if err := p.markUsed(n.then); err != nil {
			return err
		}
		return p.markUsed(n.els)
	case aCall:
		if n.arg != nil {
			return p.markUsed(n.arg)
		}
	case aYear:
		return p.markUsed(n.e)
	case aSubstr:
		return p.markUsed(n.e)
	}
	return nil
}

// scanFor builds the (possibly renamed) scan of one binding.
func (p *planner) scanFor(b *binding) plan.Node {
	var cols []string
	for _, cd := range b.tab.Cols {
		if b.used[cd.Name] {
			cols = append(cols, cd.Name)
		}
	}
	if len(cols) == 0 {
		// A table joined purely for existence still needs its key; the
		// join conditions marked it used, so this means the table is
		// entirely unused — keep one column to stay well-formed.
		cols = []string{b.tab.Cols[0].Name}
	}
	scan := &plan.Scan{Table: b.item.table, Cols: cols}
	needRename := false
	for _, c := range cols {
		if b.refName[c] != c {
			needRename = true
		}
	}
	if !needRename {
		return scan
	}
	var exprs []plan.NamedExpr
	for _, c := range cols {
		exprs = append(exprs, plan.NamedExpr{Name: b.refName[c], E: plan.C(c)})
	}
	return &plan.Project{Input: scan, Exprs: exprs}
}

// joinTree connects the FROM tables left-deep using the equi-join edges.
func (p *planner) joinTree(conds []aBin) (plan.Node, error) {
	joined := map[*binding]bool{p.binds[0]: true}
	root := p.scanFor(p.binds[0])
	remaining := append([]aBin(nil), conds...)
	for _, b := range p.binds[1:] {
		var lkey, rkey string
		found := -1
		for i, jc := range remaining {
			lb, lc, _ := p.resolve(jc.l.(aCol))
			rb, rc, _ := p.resolve(jc.r.(aCol))
			switch {
			case joined[lb] && rb == b:
				lkey, rkey = lb.refName[lc], rb.refName[rc]
				found = i
			case joined[rb] && lb == b:
				lkey, rkey = rb.refName[rc], lb.refName[lc]
				found = i
			}
			if found >= 0 {
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("sql: no join condition connects table %q (cross joins unsupported)",
				b.aliasOrTable())
		}
		remaining = append(remaining[:found], remaining[found+1:]...)
		root = &plan.Join{Kind: plan.InnerJoin, L: root, R: p.scanFor(b),
			LKeys: []string{lkey}, RKeys: []string{rkey}}
		joined[b] = true
	}
	// Leftover join conditions between already-joined tables become
	// filters (e.g. q5's c_nationkey = s_nationkey).
	var extras []astExpr
	for _, jc := range remaining {
		extras = append(extras, jc)
	}
	if len(extras) > 0 {
		pred, err := p.boolExpr(astAndAll(extras))
		if err != nil {
			return nil, err
		}
		root = &plan.Filter{Input: root, Pred: pred}
	}
	return root, nil
}

// projectAndAggregate finishes the plan: group-by, having, select
// projection, order-by, limit.
func (p *planner) projectAndAggregate(root plan.Node) (plan.Node, error) {
	p.aggNames = map[string]string{}
	p.aggTypes = map[string]col.Type{}
	hasAgg := false
	for _, s := range p.st.selects {
		if containsAgg(s.expr) {
			hasAgg = true
		}
	}
	if p.st.having != nil && containsAgg(p.st.having) {
		hasAgg = true
	}

	if !hasAgg && len(p.st.groupBy) == 0 {
		// Pure projection. ORDER BY may reference either output aliases
		// (sort above the projection) or base columns dropped by it
		// (sort below).
		proj, err := p.selectProjection(nil)
		if err != nil {
			return nil, err
		}
		outNames := map[string]bool{}
		for _, ne := range proj {
			outNames[ne.Name] = true
		}
		allOut := true
		for _, o := range p.st.orderBy {
			name, err := p.orderRef(o.expr)
			if err != nil || !outNames[name] {
				allOut = false
			}
		}
		if allOut {
			root = &plan.Project{Input: root, Exprs: proj}
			return p.orderAndLimit(root, nil)
		}
		var err2 error
		root, err2 = p.orderAndLimit(root, nil)
		if err2 != nil {
			return nil, err2
		}
		return &plan.Project{Input: root, Exprs: proj}, nil
	}

	// Group keys: plain columns stay; computed keys go through a
	// pre-projection together with pass-through base columns.
	type key struct {
		name string
		expr astExpr
	}
	var keys []key
	p.keySigs = map[string]string{}
	needPre := false
	for i, g := range p.st.groupBy {
		if c, ok := g.(aCol); ok {
			b, sc, err := p.resolve(c)
			if err != nil {
				return nil, err
			}
			keys = append(keys, key{name: b.refName[sc], expr: g})
			p.keySigs[fmt.Sprintf("%#v", g)] = b.refName[sc]
			continue
		}
		needPre = true
		name := fmt.Sprintf("@key%d", i)
		keys = append(keys, key{name: name, expr: g})
		p.keySigs[fmt.Sprintf("%#v", g)] = name
	}
	if needPre {
		var exprs []plan.NamedExpr
		seen := map[string]bool{}
		for _, k := range keys {
			te, err := p.scalarExpr(k.expr)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, plan.NamedExpr{Name: k.name, E: te.e, Typ: te.typ})
			seen[k.name] = true
		}
		// Pass through every base column the aggregates reference.
		for _, b := range p.binds {
			for sc := range b.used {
				ref := b.refName[sc]
				if !seen[ref] {
					exprs = append(exprs, plan.NamedExpr{Name: ref, E: plan.C(ref)})
					seen[ref] = true
				}
			}
		}
		root = &plan.Project{Input: root, Exprs: exprs}
	}

	// Extract aggregates from SELECT and HAVING.
	for _, s := range p.st.selects {
		if err := p.extractAggs(s.expr); err != nil {
			return nil, err
		}
	}
	if p.st.having != nil {
		if err := p.extractAggs(p.st.having); err != nil {
			return nil, err
		}
	}
	keyNames := make([]string, len(keys))
	for i, k := range keys {
		keyNames[i] = k.name
	}
	root = &plan.GroupBy{Input: root, Keys: keyNames, Aggs: p.aggs}

	if p.st.having != nil {
		pred, err := p.postAggExpr(p.st.having, keyNames)
		if err != nil {
			return nil, err
		}
		root = &plan.Filter{Input: root, Pred: pred.e}
	}

	proj, err := p.selectProjection(keyNames)
	if err != nil {
		return nil, err
	}
	root = &plan.Project{Input: root, Exprs: proj}
	return p.orderAndLimit(root, keyNames)
}

// selectProjection builds the final output columns. keyNames is non-nil
// in the aggregated case.
func (p *planner) selectProjection(keyNames []string) ([]plan.NamedExpr, error) {
	var out []plan.NamedExpr
	for i, s := range p.st.selects {
		name := s.alias
		var te typed
		var err error
		if keyNames != nil {
			te, err = p.postAggExpr(s.expr, keyNames)
		} else {
			te, err = p.scalarExpr(s.expr)
		}
		if err != nil {
			return nil, err
		}
		if name == "" {
			if c, ok := te.e.(plan.Col); ok {
				name = c.Name
			} else {
				name = fmt.Sprintf("col%d", i+1)
			}
		}
		out = append(out, plan.NamedExpr{Name: name, E: te.e, Typ: te.typ})
	}
	return out, nil
}

func (p *planner) orderAndLimit(root plan.Node, keyNames []string) (plan.Node, error) {
	if len(p.st.orderBy) > 0 {
		var oks []plan.OrderKey
		for _, o := range p.st.orderBy {
			name, err := p.orderRef(o.expr)
			if err != nil {
				return nil, err
			}
			oks = append(oks, plan.OrderKey{Name: name, Desc: o.desc})
		}
		root = &plan.OrderBy{Input: root, Keys: oks}
	}
	if p.st.limit >= 0 {
		root = &plan.Limit{Input: root, N: p.st.limit}
	}
	return root, nil
}

// orderRef resolves an ORDER BY item to an output column name: a SELECT
// alias, an output column, or a positional index.
func (p *planner) orderRef(e astExpr) (string, error) {
	if n, ok := e.(aNum); ok {
		idx, err := strconv.Atoi(n.text)
		if err != nil || idx < 1 || idx > len(p.st.selects) {
			return "", fmt.Errorf("sql: bad ORDER BY position %q", n.text)
		}
		s := p.st.selects[idx-1]
		if s.alias != "" {
			return s.alias, nil
		}
		if c, ok := s.expr.(aCol); ok {
			return p.outputNameFor(c)
		}
		return fmt.Sprintf("col%d", idx), nil
	}
	if c, ok := e.(aCol); ok {
		// Prefer a SELECT alias of the same name; otherwise the column.
		for _, s := range p.st.selects {
			if s.alias == c.name && c.qual == "" {
				return c.name, nil
			}
		}
		return p.outputNameFor(c)
	}
	return "", fmt.Errorf("sql: ORDER BY expressions must be output columns, aliases, or positions")
}

func (p *planner) outputNameFor(c aCol) (string, error) {
	b, sc, err := p.resolve(c)
	if err != nil {
		return "", err
	}
	return b.refName[sc], nil
}

func containsAgg(e astExpr) bool {
	found := false
	walkAst(e, func(x astExpr) {
		if _, ok := x.(aCall); ok {
			found = true
		}
	})
	return found
}

func walkAst(e astExpr, fn func(astExpr)) {
	fn(e)
	switch n := e.(type) {
	case aBin:
		walkAst(n.l, fn)
		walkAst(n.r, fn)
	case aNot:
		walkAst(n.e, fn)
	case aIn:
		walkAst(n.e, fn)
		for _, it := range n.list {
			walkAst(it, fn)
		}
	case aBetween:
		walkAst(n.e, fn)
		walkAst(n.lo, fn)
		walkAst(n.hi, fn)
	case aLike:
		walkAst(n.e, fn)
	case aCase:
		walkAst(n.cond, fn)
		walkAst(n.then, fn)
		walkAst(n.els, fn)
	case aCall:
		if n.arg != nil {
			walkAst(n.arg, fn)
		}
	case aYear:
		walkAst(n.e, fn)
	case aSubstr:
		walkAst(n.e, fn)
	}
}

func astConjuncts(e astExpr) []astExpr {
	if b, ok := e.(aBin); ok && b.op == "AND" {
		return append(astConjuncts(b.l), astConjuncts(b.r)...)
	}
	return []astExpr{e}
}

func astAndAll(es []astExpr) astExpr {
	e := es[0]
	for _, n := range es[1:] {
		e = aBin{op: "AND", l: e, r: n}
	}
	return e
}

func aggSig(c aCall) string {
	var sb strings.Builder
	sb.WriteString(c.fn)
	if c.distinct {
		sb.WriteString("#d")
	}
	if c.arg != nil {
		fmt.Fprintf(&sb, "|%#v", c.arg)
	}
	return sb.String()
}

// extractAggs registers every aggregate call in e as an AggSpec.
func (p *planner) extractAggs(e astExpr) error {
	var outer error
	walkAst(e, func(x astExpr) {
		c, ok := x.(aCall)
		if !ok || outer != nil {
			return
		}
		sig := aggSig(c)
		if _, done := p.aggNames[sig]; done {
			return
		}
		name := fmt.Sprintf("@agg%d", len(p.aggs))
		spec := plan.AggSpec{Name: name}
		var argT typed
		if c.arg != nil {
			var err error
			argT, err = p.scalarExpr(c.arg)
			if err != nil {
				outer = err
				return
			}
			spec.E = argT.e
		}
		switch c.fn {
		case "SUM":
			spec.Func = plan.AggSum
			spec.Typ = argT.typ
		case "AVG":
			spec.Func = plan.AggAvg
			spec.Typ = argT.typ
		case "MIN":
			spec.Func = plan.AggMin
			spec.Typ = argT.typ
		case "MAX":
			spec.Func = plan.AggMax
			spec.Typ = argT.typ
		case "COUNT":
			if c.distinct {
				spec.Func = plan.AggCountDistinct
			} else {
				spec.Func = plan.AggCount
			}
			spec.Typ = col.Int64
		}
		if spec.Typ == 0 {
			spec.Typ = col.Int64
		}
		p.aggs = append(p.aggs, spec)
		p.aggNames[sig] = name
		p.aggTypes[sig] = spec.Typ
	})
	return outer
}

// postAggExpr translates an expression evaluated above the GroupBy:
// aggregate calls become references to their output columns, and group
// keys stay as columns.
func (p *planner) postAggExpr(e astExpr, keyNames []string) (typed, error) {
	// A SELECT/ORDER BY expression that textually matches a GROUP BY
	// expression resolves to that key column.
	if name, ok := p.keySigs[fmt.Sprintf("%#v", e)]; ok {
		return typed{e: plan.C(name), typ: col.Int64}, nil
	}
	if c, ok := e.(aCall); ok {
		sig := aggSig(c)
		name, ok := p.aggNames[sig]
		if !ok {
			return typed{}, fmt.Errorf("sql: aggregate not extracted")
		}
		return typed{e: plan.C(name), typ: p.aggTypes[sig]}, nil
	}
	if c, ok := e.(aCol); ok {
		// A group key or a SELECT alias of an aggregate.
		if c.qual == "" {
			for _, s := range p.st.selects {
				if s.alias == c.name {
					return p.postAggExpr(s.expr, keyNames)
				}
			}
		}
		ref, err := p.outputNameFor(c)
		if err != nil {
			return typed{}, err
		}
		for _, k := range keyNames {
			if k == ref {
				return typed{e: plan.C(ref), typ: p.refType(c)}, nil
			}
		}
		return typed{}, fmt.Errorf("sql: column %q is neither a group key nor an aggregate", c.name)
	}
	return p.combine(e, func(sub astExpr) (typed, error) {
		return p.postAggExpr(sub, keyNames)
	})
}

// scalarExpr translates a pre-aggregation (row-level) expression.
func (p *planner) scalarExpr(e astExpr) (typed, error) {
	if c, ok := e.(aCol); ok {
		b, sc, err := p.resolve(c)
		if err != nil {
			return typed{}, err
		}
		return typed{e: plan.C(b.refName[sc]), typ: p.colType(b, sc)}, nil
	}
	if _, ok := e.(aCall); ok {
		return typed{}, fmt.Errorf("sql: nested aggregate in a row-level expression")
	}
	return p.combine(e, p.scalarExpr)
}

func (p *planner) colType(b *binding, sc string) col.Type {
	if ci, err := b.tab.Column(sc); err == nil {
		return ci.Def.Typ
	}
	return col.Int64
}

func (p *planner) refType(c aCol) col.Type {
	b, sc, err := p.resolve(c)
	if err != nil {
		return col.Int64
	}
	return p.colType(b, sc)
}

// combine handles the structural cases shared by scalar and post-agg
// translation; sub translates child expressions.
func (p *planner) combine(e astExpr, sub func(astExpr) (typed, error)) (typed, error) {
	switch n := e.(type) {
	case aNum:
		if strings.Contains(n.text, ".") {
			return typed{e: plan.Dec(n.text), typ: col.Decimal}, nil
		}
		v, err := strconv.ParseInt(n.text, 10, 64)
		if err != nil {
			return typed{}, fmt.Errorf("sql: bad number %q", n.text)
		}
		return typed{e: plan.I(v), typ: col.Int64, literal: true}, nil
	case aStr:
		return typed{e: plan.S(n.s), typ: col.Dict}, nil
	case aDate:
		return typed{e: plan.I(n.days), typ: col.Date}, nil
	case aBin:
		return p.binExpr(n, sub)
	case aNot:
		inner, err := sub(n.e)
		if err != nil {
			return typed{}, err
		}
		return typed{e: plan.Not{E: inner.e}, typ: col.Bool}, nil
	case aBetween:
		v, err := sub(n.e)
		if err != nil {
			return typed{}, err
		}
		lo, err := sub(n.lo)
		if err != nil {
			return typed{}, err
		}
		hi, err := sub(n.hi)
		if err != nil {
			return typed{}, err
		}
		lo = coerce(lo, v.typ)
		hi = coerce(hi, v.typ)
		return typed{e: plan.Between(v.e, lo.e, hi.e), typ: col.Bool}, nil
	case aIn:
		return p.inExpr(n, sub)
	case aLike:
		c, ok := n.e.(aCol)
		if !ok {
			return typed{}, fmt.Errorf("sql: LIKE needs a column")
		}
		name, err := p.outputNameFor(c)
		if err != nil {
			return typed{}, err
		}
		return typed{e: plan.Like{Col: name, Pattern: n.pat, Negate: n.negate}, typ: col.Bool}, nil
	case aCase:
		cond, err := sub(n.cond)
		if err != nil {
			return typed{}, err
		}
		then, err := sub(n.then)
		if err != nil {
			return typed{}, err
		}
		els, err := sub(n.els)
		if err != nil {
			return typed{}, err
		}
		t := then.typ
		if then.literal && !els.literal {
			t = els.typ
			then = coerce(then, t)
		} else {
			els = coerce(els, t)
		}
		return typed{e: plan.Case{Cond: cond.e, Then: then.e, Else: els.e}, typ: t}, nil
	case aYear:
		inner, err := sub(n.e)
		if err != nil {
			return typed{}, err
		}
		return typed{e: plan.YearOf{E: inner.e}, typ: col.Int64}, nil
	case aSubstr:
		c, ok := n.e.(aCol)
		if !ok {
			return typed{}, fmt.Errorf("sql: SUBSTRING needs a column")
		}
		name, err := p.outputNameFor(c)
		if err != nil {
			return typed{}, err
		}
		return typed{e: plan.SubstrCode{Col: name, Start: n.start, Len: n.len}, typ: col.Int64}, nil
	default:
		return typed{}, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

// coerce rescales an unscaled integer literal to decimal context.
func coerce(t typed, want col.Type) typed {
	if want == col.Decimal && t.literal {
		if iv, ok := t.e.(plan.Int); ok {
			return typed{e: plan.I(iv.V * col.DecimalScale), typ: col.Decimal}
		}
	}
	return t
}

func (p *planner) binExpr(n aBin, sub func(astExpr) (typed, error)) (typed, error) {
	l, err := sub(n.l)
	if err != nil {
		return typed{}, err
	}
	r, err := sub(n.r)
	if err != nil {
		return typed{}, err
	}
	// Decimal coercion of untyped integer literals.
	if l.typ == col.Decimal {
		r = coerce(r, col.Decimal)
	}
	if r.typ == col.Decimal {
		l = coerce(l, col.Decimal)
	}
	bothDec := l.typ == col.Decimal && r.typ == col.Decimal
	switch n.op {
	case "AND":
		return typed{e: plan.And(l.e, r.e), typ: col.Bool}, nil
	case "OR":
		return typed{e: plan.Or(l.e, r.e), typ: col.Bool}, nil
	case "=":
		return typed{e: plan.EQ(l.e, r.e), typ: col.Bool}, nil
	case "<>":
		return typed{e: plan.NE(l.e, r.e), typ: col.Bool}, nil
	case "<":
		return typed{e: plan.LT(l.e, r.e), typ: col.Bool}, nil
	case "<=":
		return typed{e: plan.LE(l.e, r.e), typ: col.Bool}, nil
	case ">":
		return typed{e: plan.GT(l.e, r.e), typ: col.Bool}, nil
	case ">=":
		return typed{e: plan.GE(l.e, r.e), typ: col.Bool}, nil
	case "+":
		return typed{e: plan.Add(l.e, r.e), typ: resultType(l, r)}, nil
	case "-":
		return typed{e: plan.Sub(l.e, r.e), typ: resultType(l, r)}, nil
	case "*":
		if bothDec {
			return typed{e: plan.DecMul(l.e, r.e), typ: col.Decimal}, nil
		}
		return typed{e: plan.Mul(l.e, r.e), typ: resultType(l, r)}, nil
	case "/":
		if bothDec {
			// (a/b) at ×100 scale: a*100/b.
			return typed{e: plan.DivE(plan.Mul(l.e, plan.I(col.DecimalScale)), r.e),
				typ: col.Decimal}, nil
		}
		return typed{e: plan.DivE(l.e, r.e), typ: resultType(l, r)}, nil
	}
	return typed{}, fmt.Errorf("sql: unsupported operator %q", n.op)
}

func resultType(l, r typed) col.Type {
	if l.typ == col.Decimal || r.typ == col.Decimal {
		return col.Decimal
	}
	if l.literal {
		return r.typ
	}
	return l.typ
}

func (p *planner) inExpr(n aIn, sub func(astExpr) (typed, error)) (typed, error) {
	// String lists become InStrs over a column; integer lists InInts.
	if len(n.list) > 0 {
		if _, isStr := n.list[0].(aStr); isStr {
			c, ok := n.e.(aCol)
			if !ok {
				// SUBSTRING(...) IN ('..','..') packs the strings.
				if ss, isSub := n.e.(aSubstr); isSub {
					inner, err := sub(ss)
					if err != nil {
						return typed{}, err
					}
					var vs []int64
					for _, it := range n.list {
						vs = append(vs, plan.PackString(it.(aStr).s))
					}
					var e plan.Expr = plan.InInts{E: inner.e, Vs: vs}
					if n.negate {
						e = plan.Not{E: e}
					}
					return typed{e: e, typ: col.Bool}, nil
				}
				return typed{}, fmt.Errorf("sql: IN over strings needs a column")
			}
			name, err := p.outputNameFor(c)
			if err != nil {
				return typed{}, err
			}
			var vs []string
			for _, it := range n.list {
				s, ok := it.(aStr)
				if !ok {
					return typed{}, fmt.Errorf("sql: mixed IN list")
				}
				vs = append(vs, s.s)
			}
			var e plan.Expr = plan.InStrs{Col: name, Vs: vs}
			if n.negate {
				e = plan.Not{E: e}
			}
			return typed{e: e, typ: col.Bool}, nil
		}
	}
	inner, err := sub(n.e)
	if err != nil {
		return typed{}, err
	}
	var vs []int64
	for _, it := range n.list {
		t, err := sub(it)
		if err != nil {
			return typed{}, err
		}
		t = coerce(t, inner.typ)
		iv, ok := t.e.(plan.Int)
		if !ok {
			return typed{}, fmt.Errorf("sql: IN list items must be literals")
		}
		vs = append(vs, iv.V)
	}
	var e plan.Expr = plan.InInts{E: inner.e, Vs: vs}
	if n.negate {
		e = plan.Not{E: e}
	}
	return typed{e: e, typ: col.Bool}, nil
}
