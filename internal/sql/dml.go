package sql

// DML and DDL: CREATE TABLE / INSERT / UPDATE / DELETE.
//
// The write path reuses the SELECT machinery wherever a row-level
// expression appears: UPDATE ... SET and WHERE clauses compile through
// the same planner expression translator as query predicates, so every
// literal convention (DATE 'yyyy-mm-dd', ×100 decimals, dictionary
// strings) means the same thing on both sides of the engine. Statements
// enter through parseStatement and Compile like SELECTs do; the compiled
// forms below are the write fields of Statement.

import (
	"fmt"
	"strconv"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/plan"
)

// ---- parse-level AST ----

type colDefAST struct {
	name, typ string
}

type createStmt struct {
	table string
	cols  []colDefAST
}

type insertStmt struct {
	table string
	cols  []string // empty: full schema order (sans RowID companions)
	rows  [][]astExpr
}

type setItem struct {
	col  string
	expr astExpr
}

type updateStmt struct {
	table string
	sets  []setItem
	where astExpr
}

type deleteStmt struct {
	table string
	where astExpr
}

// ---- compiled forms ----

// CompiledCreate is a parsed CREATE TABLE ready for the catalog.
type CompiledCreate struct {
	Schema col.Schema
}

// CompiledInsert carries fully evaluated literal rows, split the way
// the catalog wants them: integer-family values by column, and string
// values (Text content, Dict members) by column.
type CompiledInsert struct {
	Table string
	N     int
	Ints  map[string][]col.Value
	Strs  map[string][]string
}

// CompiledDelete selects victim rows. Plan emits a single field, the
// table's @rowid, one row per victim at the executing snapshot.
type CompiledDelete struct {
	Table string
	Plan  plan.Node
}

// UpdateCol names one plan output field of a CompiledUpdate and the
// storage type its values carry.
type UpdateCol struct {
	Name string
	Typ  col.Type
}

// CompiledUpdate selects victim rows and computes their replacements.
// Plan emits @rowid first, then one field per entry of Cols: the SET
// expression for assigned columns and the old value for the rest
// (for Text columns the old value is its heap offset). Text columns
// assigned a string literal are carried in TextSets instead — their
// content is constant across victims and never flows through the plan.
type CompiledUpdate struct {
	Table    string
	Plan     plan.Node
	Cols     []UpdateCol
	TextSets map[string]string
}

// ---- parsing ----

func (p *parser) ident(what string) (string, error) {
	if !p.at(tokIdent, "") {
		return "", p.errf("expected %s", what)
	}
	return p.next().text, nil
}

func (p *parser) parseCreate() (*createStmt, error) {
	p.next() // CREATE
	if err := p.expect(tokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	st := &createStmt{}
	var err error
	if st.table, err = p.ident("table name"); err != nil {
		return nil, err
	}
	if err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		var cd colDefAST
		if cd.name, err = p.ident("column name"); err != nil {
			return nil, err
		}
		// Type names are plain identifiers except DATE, which the
		// lexer already claims as a keyword.
		if p.at(tokKeyword, "DATE") {
			p.next()
			cd.typ = "date"
		} else if cd.typ, err = p.ident("column type"); err != nil {
			return nil, err
		}
		st.cols = append(st.cols, cd)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseInsert() (*insertStmt, error) {
	p.next() // INSERT
	if err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	st := &insertStmt{}
	var err error
	if st.table, err = p.ident("table name"); err != nil {
		return nil, err
	}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.ident("column name")
			if err != nil {
				return nil, err
			}
			st.cols = append(st.cols, c)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []astExpr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.rows = append(st.rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (*updateStmt, error) {
	p.next() // UPDATE
	st := &updateStmt{}
	var err error
	if st.table, err = p.ident("table name"); err != nil {
		return nil, err
	}
	if err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		var it setItem
		if it.col, err = p.ident("column name"); err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		if it.expr, err = p.parseExpr(); err != nil {
			return nil, err
		}
		st.sets = append(st.sets, it)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		if st.where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseDelete() (*deleteStmt, error) {
	p.next() // DELETE
	if err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	st := &deleteStmt{}
	var err error
	if st.table, err = p.ident("table name"); err != nil {
		return nil, err
	}
	if p.accept(tokKeyword, "WHERE") {
		if st.where, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// ---- CREATE TABLE ----

var typeNames = map[string]col.Type{
	"int":     col.Int32,
	"int32":   col.Int32,
	"int64":   col.Int64,
	"bigint":  col.Int64,
	"date":    col.Date,
	"decimal": col.Decimal,
	"bool":    col.Bool,
	"boolean": col.Bool,
	"text":    col.Text,
	"varchar": col.Text,
	"string":  col.Text,
}

func compileCreate(st *createStmt) (*CompiledCreate, error) {
	sc := col.Schema{Name: st.table}
	for _, cd := range st.cols {
		typ, ok := typeNames[cd.typ]
		if !ok {
			return nil, fmt.Errorf("sql: unknown column type %q (want int, bigint, date, decimal, bool or text)", cd.typ)
		}
		sc.Cols = append(sc.Cols, col.ColDef{Name: cd.name, Typ: typ})
	}
	return &CompiledCreate{Schema: sc}, nil
}

// ---- INSERT ----

func compileInsert(st *insertStmt, store *col.Store) (*CompiledInsert, error) {
	tab, err := store.Table(st.table)
	if err != nil {
		return nil, err
	}
	cols := st.cols
	if len(cols) == 0 {
		// Unlisted columns default to schema order, skipping the
		// materialized RowID companions the merge re-derives.
		for _, cd := range tab.Cols {
			if cd.Typ != col.RowID {
				cols = append(cols, cd.Name)
			}
		}
	}
	defs := make([]col.ColDef, len(cols))
	seen := map[string]bool{}
	for i, name := range cols {
		def, ok := tab.Col(name)
		if !ok {
			return nil, fmt.Errorf("sql: table %q has no column %q", st.table, name)
		}
		if def.Typ == col.RowID {
			return nil, fmt.Errorf("sql: column %q is a materialized companion and cannot be inserted", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("sql: column %q listed twice", name)
		}
		seen[name] = true
		defs[i] = def
	}
	out := &CompiledInsert{
		Table: st.table,
		N:     len(st.rows),
		Ints:  map[string][]col.Value{},
		Strs:  map[string][]string{},
	}
	for _, def := range defs {
		if def.Typ.IsString() {
			out.Strs[def.Name] = make([]string, 0, out.N)
		} else {
			out.Ints[def.Name] = make([]col.Value, 0, out.N)
		}
	}
	for _, row := range st.rows {
		if len(row) != len(cols) {
			return nil, fmt.Errorf("sql: row has %d values, want %d", len(row), len(cols))
		}
		for i, e := range row {
			def := defs[i]
			if def.Typ.IsString() {
				s, ok := constStr(e)
				if !ok {
					return nil, fmt.Errorf("sql: column %q wants a string literal", def.Name)
				}
				out.Strs[def.Name] = append(out.Strs[def.Name], s)
				continue
			}
			v, err := constValue(e, def.Typ)
			if err != nil {
				return nil, fmt.Errorf("sql: column %q: %w", def.Name, err)
			}
			out.Ints[def.Name] = append(out.Ints[def.Name], v)
		}
	}
	return out, nil
}

// constStr unwraps a string literal.
func constStr(e astExpr) (string, bool) {
	s, ok := e.(aStr)
	return s.s, ok
}

// constValue folds a literal expression to a stored value of the given
// type: plain and negated integers, DATE literals, and decimal text
// scaled to ×100 fixed point. Anything non-constant is rejected —
// INSERT rows are literals, not computations.
func constValue(e astExpr, typ col.Type) (col.Value, error) {
	switch n := e.(type) {
	case aDate:
		if typ != col.Date {
			return 0, fmt.Errorf("date literal for %s column", typ)
		}
		return n.days, nil
	case aNum:
		return parseNum(n.text, typ)
	case aBin:
		// The parser encodes unary minus as 0 - x.
		if n.op == "-" {
			if z, ok := n.l.(aNum); ok && z.text == "0" {
				v, err := constValue(n.r, typ)
				if err != nil {
					return 0, err
				}
				return -v, nil
			}
		}
	}
	return 0, fmt.Errorf("value must be a literal")
}

func parseNum(text string, typ col.Type) (col.Value, error) {
	if typ == col.Decimal {
		whole, frac, _ := strings.Cut(text, ".")
		for len(frac) < 2 {
			frac += "0"
		}
		if len(frac) > 2 {
			return 0, fmt.Errorf("decimal %q has more than two fractional digits", text)
		}
		w, err := strconv.ParseInt(whole, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", text)
		}
		f, err := strconv.ParseInt(frac, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", text)
		}
		return w*col.DecimalScale + f, nil
	}
	if strings.Contains(text, ".") {
		return 0, fmt.Errorf("fractional value for %s column", typ)
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", text)
	}
	if !col.ValueInRange(typ, v) {
		return 0, fmt.Errorf("value %d out of range for %s", v, typ)
	}
	return v, nil
}

// ---- WHERE / UPDATE plans ----

// singleBind sets up a one-table planner so WHERE and SET expressions
// compile through the exact same translator as query predicates.
func singleBind(store *col.Store, table string) (*planner, *binding, error) {
	tab, err := store.Table(table)
	if err != nil {
		return nil, nil, err
	}
	b := &binding{
		item:    fromItem{table: table},
		tab:     tab,
		refName: map[string]string{},
		used:    map[string]bool{},
	}
	for _, cd := range tab.Cols {
		b.refName[cd.Name] = cd.Name
	}
	pl := &planner{store: store, binds: []*binding{b}}
	return pl, b, nil
}

// victimScan builds Scan→Filter over the binding's used columns plus
// the @rowid pseudo-column.
func victimScan(b *binding, pred plan.Expr, extra map[string]bool) plan.Node {
	var cols []string
	for _, cd := range b.tab.Cols {
		if b.used[cd.Name] || extra[cd.Name] {
			cols = append(cols, cd.Name)
		}
	}
	cols = append(cols, plan.RowIDCol)
	var node plan.Node = &plan.Scan{Table: b.item.table, Cols: cols}
	if pred != nil {
		node = &plan.Filter{Input: node, Pred: pred}
	}
	return node
}

func compileDelete(st *deleteStmt, store *col.Store) (*CompiledDelete, error) {
	pl, b, err := singleBind(store, st.table)
	if err != nil {
		return nil, err
	}
	var pred plan.Expr
	if st.where != nil {
		if err := pl.markUsed(st.where); err != nil {
			return nil, err
		}
		if pred, err = pl.boolExpr(st.where); err != nil {
			return nil, err
		}
	}
	root := &plan.Project{
		Input: victimScan(b, pred, nil),
		Exprs: []plan.NamedExpr{{Name: plan.RowIDCol, E: plan.C(plan.RowIDCol)}},
	}
	if err := plan.Bind(root, store); err != nil {
		return nil, err
	}
	return &CompiledDelete{Table: st.table, Plan: root}, nil
}

func compileUpdate(st *updateStmt, store *col.Store) (*CompiledUpdate, error) {
	pl, b, err := singleBind(store, st.table)
	if err != nil {
		return nil, err
	}
	// Classify the assignments.
	sets := map[string]typed{}
	textSets := map[string]string{}
	for _, it := range st.sets {
		def, ok := b.tab.Col(it.col)
		if !ok {
			return nil, fmt.Errorf("sql: table %q has no column %q", st.table, it.col)
		}
		if def.Typ == col.RowID {
			return nil, fmt.Errorf("sql: column %q is a materialized companion and cannot be assigned", it.col)
		}
		if _, dup := sets[it.col]; dup {
			return nil, fmt.Errorf("sql: column %q assigned twice", it.col)
		}
		if _, dup := textSets[it.col]; dup {
			return nil, fmt.Errorf("sql: column %q assigned twice", it.col)
		}
		switch def.Typ {
		case col.Text:
			s, ok := constStr(it.expr)
			if !ok {
				return nil, fmt.Errorf("sql: text column %q wants a string literal", it.col)
			}
			textSets[it.col] = s
		case col.Dict:
			// Dictionaries are fixed between loads: resolve the member
			// to its code now so an unknown value fails at compile time.
			s, ok := constStr(it.expr)
			if !ok {
				return nil, fmt.Errorf("sql: dictionary column %q wants a string literal", it.col)
			}
			ci := b.tab.MustColumn(it.col)
			code, ok := ci.Code(s)
			if !ok {
				return nil, fmt.Errorf("sql: %s.%s: value %q is not in the dictionary", st.table, it.col, s)
			}
			sets[it.col] = typed{e: plan.I(code), typ: col.Dict}
		default:
			if err := pl.markUsed(it.expr); err != nil {
				return nil, err
			}
			t, err := pl.scalarExpr(it.expr)
			if err != nil {
				return nil, err
			}
			t = coerce(t, def.Typ)
			if t.typ.IsString() {
				return nil, fmt.Errorf("sql: string value for %s column %q", def.Typ, it.col)
			}
			sets[it.col] = t
		}
	}
	var pred plan.Expr
	if st.where != nil {
		if err := pl.markUsed(st.where); err != nil {
			return nil, err
		}
		if pred, err = pl.boolExpr(st.where); err != nil {
			return nil, err
		}
	}
	// Plan output: @rowid, then the replacement value of every stored
	// column — assigned columns get their SET expression, the rest pass
	// the old value through (a heap offset for Text; RowID companions
	// are re-derived by the merge and skipped entirely).
	exprs := []plan.NamedExpr{{Name: plan.RowIDCol, E: plan.C(plan.RowIDCol)}}
	var outCols []UpdateCol
	passthrough := map[string]bool{}
	for _, cd := range b.tab.Cols {
		if cd.Typ == col.RowID {
			continue
		}
		if _, isText := textSets[cd.Name]; isText {
			continue
		}
		e, assigned := sets[cd.Name]
		if !assigned {
			e = typed{e: plan.C(cd.Name), typ: cd.Typ}
			passthrough[cd.Name] = true
		}
		exprs = append(exprs, plan.NamedExpr{Name: cd.Name, E: e.e})
		outCols = append(outCols, UpdateCol{Name: cd.Name, Typ: cd.Typ})
	}
	root := &plan.Project{Input: victimScan(b, pred, passthrough), Exprs: exprs}
	if err := plan.Bind(root, store); err != nil {
		return nil, err
	}
	return &CompiledUpdate{Table: st.table, Plan: root, Cols: outCols, TextSets: textSets}, nil
}
