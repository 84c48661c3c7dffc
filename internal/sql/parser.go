package sql

import (
	"fmt"
	"strconv"
	"strings"

	"aquoman/internal/col"
)

// ---- AST ----

type astExpr interface{ ast() }

type aCol struct{ qual, name string }
type aNum struct {
	text string
}
type aStr struct{ s string }
type aDate struct{ days int64 }
type aBin struct {
	op   string // + - * / = <> < <= > >= AND OR
	l, r astExpr
}
type aNot struct{ e astExpr }
type aIn struct {
	e      astExpr
	list   []astExpr
	negate bool
}
type aBetween struct{ e, lo, hi astExpr }
type aLike struct {
	e      astExpr
	pat    string
	negate bool
}
type aCase struct{ cond, then, els astExpr }
type aCall struct {
	fn       string // SUM AVG MIN MAX COUNT
	distinct bool
	arg      astExpr // nil for COUNT(*)
}
type aYear struct{ e astExpr }
type aSubstr struct {
	e          astExpr
	start, len int
}

func (aCol) ast()     {}
func (aNum) ast()     {}
func (aStr) ast()     {}
func (aDate) ast()    {}
func (aBin) ast()     {}
func (aNot) ast()     {}
func (aIn) ast()      {}
func (aBetween) ast() {}
func (aLike) ast()    {}
func (aCase) ast()    {}
func (aCall) ast()    {}
func (aYear) ast()    {}
func (aSubstr) ast()  {}

type selectItem struct {
	expr  astExpr
	alias string
}

type fromItem struct {
	table, alias string
}

type orderItem struct {
	expr astExpr
	desc bool
}

type stmt struct {
	selects []selectItem
	from    []fromItem
	where   astExpr
	groupBy []astExpr
	having  astExpr
	orderBy []orderItem
	limit   int
}

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

// parseStatement parses one statement of any kind — *stmt (SELECT),
// *createStmt, *insertStmt, *updateStmt or *deleteStmt. It holds the one
// lex call and the one optional-';' / trailing-input rule.
func parseStatement(src string) (any, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var st any
	switch {
	case p.at(tokKeyword, "SELECT"):
		st, err = p.parseSelect()
	case p.at(tokKeyword, "CREATE"):
		st, err = p.parseCreate()
	case p.at(tokKeyword, "INSERT"):
		st, err = p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		st, err = p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		st, err = p.parseDelete()
	default:
		err = p.errf("expected SELECT, CREATE, INSERT, UPDATE or DELETE")
	}
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("trailing input")
	}
	return st, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return p.errf("expected %q, found %q", text, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) parseSelect() (*stmt, error) {
	st := &stmt{limit: -1}
	if err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		item := selectItem{expr: e}
		if p.accept(tokKeyword, "AS") {
			if !p.at(tokIdent, "") {
				return nil, p.errf("expected alias")
			}
			item.alias = p.next().text
		} else if p.at(tokIdent, "") {
			item.alias = p.next().text
		}
		st.selects = append(st.selects, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	for {
		if !p.at(tokIdent, "") {
			return nil, p.errf("expected table name")
		}
		fi := fromItem{table: p.next().text}
		if p.accept(tokKeyword, "AS") {
			if !p.at(tokIdent, "") {
				return nil, p.errf("expected table alias")
			}
			fi.alias = p.next().text
		} else if p.at(tokIdent, "") {
			fi.alias = p.next().text
		}
		st.from = append(st.from, fi)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.where = e
	}
	if p.accept(tokKeyword, "GROUP") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.groupBy = append(st.groupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.having = e
	}
	if p.accept(tokKeyword, "ORDER") {
		if err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			oi := orderItem{expr: e}
			if p.accept(tokKeyword, "DESC") {
				oi.desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.orderBy = append(st.orderBy, oi)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		if !p.at(tokNumber, "") {
			return nil, p.errf("expected limit count")
		}
		n, err := strconv.Atoi(p.next().text)
		if err != nil || n < 0 {
			return nil, p.errf("bad limit")
		}
		st.limit = n
	}
	return st, nil
}

// Expression grammar (loosest first):
//
//	expr     := orTerm (OR orTerm)*
//	orTerm   := andTerm (AND andTerm)*
//	andTerm  := NOT andTerm | predicate
//	predicate:= additive [cmp additive | BETWEEN a AND b | [NOT] IN (...) | [NOT] LIKE '...']
//	additive := mult ((+|-) mult)*
//	mult     := unary ((*|/) unary)*
//	unary    := primary
//	primary  := literal | funcCall | column | '(' expr ')' | CASE ...
func (p *parser) parseExpr() (astExpr, error) {
	l, err := p.parseOrTerm()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseOrTerm()
		if err != nil {
			return nil, err
		}
		l = aBin{op: "OR", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseOrTerm() (astExpr, error) {
	l, err := p.parseAndTerm()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		r, err := p.parseAndTerm()
		if err != nil {
			return nil, err
		}
		l = aBin{op: "AND", l: l, r: r}
	}
	return l, nil
}

func (p *parser) parseAndTerm() (astExpr, error) {
	if p.accept(tokKeyword, "NOT") {
		e, err := p.parseAndTerm()
		if err != nil {
			return nil, err
		}
		return aNot{e: e}, nil
	}
	return p.parsePredicate()
}

func (p *parser) parsePredicate() (astExpr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := p.accept(tokKeyword, "NOT")
	switch {
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e astExpr = aBetween{e: l, lo: lo, hi: hi}
		if negate {
			e = aNot{e: e}
		}
		return e, nil
	case p.accept(tokKeyword, "IN"):
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var list []astExpr
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			list = append(list, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return aIn{e: l, list: list, negate: negate}, nil
	case p.accept(tokKeyword, "LIKE"):
		if !p.at(tokString, "") {
			return nil, p.errf("expected pattern string")
		}
		return aLike{e: l, pat: p.next().text, negate: negate}, nil
	}
	if negate {
		return nil, p.errf("dangling NOT")
	}
	for _, op := range []string{"<>", "!=", "<=", ">=", "=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return aBin{op: op, l: l, r: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (astExpr, error) {
	l, err := p.parseMult()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		default:
			return l, nil
		}
		// date +/- INTERVAL 'n' UNIT folds at parse time.
		if p.accept(tokKeyword, "INTERVAL") {
			d, err := p.parseInterval(l, op)
			if err != nil {
				return nil, err
			}
			l = d
			continue
		}
		r, err := p.parseMult()
		if err != nil {
			return nil, err
		}
		l = aBin{op: op, l: l, r: r}
	}
}

func (p *parser) parseInterval(base astExpr, op string) (astExpr, error) {
	d, ok := base.(aDate)
	if !ok {
		return nil, p.errf("INTERVAL arithmetic needs a date literal on the left")
	}
	if !p.at(tokString, "") {
		return nil, p.errf("expected interval quantity")
	}
	n, err := strconv.Atoi(p.next().text)
	if err != nil {
		return nil, p.errf("bad interval quantity")
	}
	if op == "-" {
		n = -n
	}
	unit := strings.ToUpper(p.next().text)
	y, m, day := dateParts(d.days)
	switch unit {
	case "YEAR":
		y += n
	case "MONTH":
		m += n
		for m > 12 {
			m -= 12
			y++
		}
		for m < 1 {
			m += 12
			y--
		}
	case "DAY":
		return aDate{days: d.days + int64(n)}, nil
	default:
		return nil, p.errf("unsupported interval unit %q", unit)
	}
	return aDate{days: col.DateValue(y, m, day)}, nil
}

func dateParts(days int64) (y, m, d int) {
	s := col.DateString(days)
	fmt.Sscanf(s, "%d-%d-%d", &y, &m, &d)
	return
}

func (p *parser) parseMult() (astExpr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		default:
			return l, nil
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = aBin{op: op, l: l, r: r}
	}
}

func (p *parser) parseUnary() (astExpr, error) {
	if p.accept(tokSymbol, "-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return aBin{op: "-", l: aNum{text: "0"}, r: e}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (astExpr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.next()
		return aNum{text: t.text}, nil
	case t.kind == tokString:
		p.next()
		return aStr{s: t.text}, nil
	case p.accept(tokSymbol, "("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept(tokKeyword, "DATE"):
		if !p.at(tokString, "") {
			return nil, p.errf("expected date string")
		}
		s := p.next().text
		days, err := col.ParseDate(s)
		if err != nil {
			return nil, p.errf("bad date literal %q", s)
		}
		return aDate{days: days}, nil
	case p.accept(tokKeyword, "CASE"):
		if err := p.expect(tokKeyword, "WHEN"); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		var els astExpr = aNum{text: "0"}
		if p.accept(tokKeyword, "ELSE") {
			els, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expect(tokKeyword, "END"); err != nil {
			return nil, err
		}
		return aCase{cond: cond, then: then, els: els}, nil
	case p.accept(tokKeyword, "EXTRACT"):
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "YEAR"); err != nil {
			return nil, err
		}
		if err := p.expect(tokKeyword, "FROM"); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return aYear{e: e}, nil
	case p.accept(tokKeyword, "SUBSTRING"):
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
		start, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ","); err != nil {
			return nil, err
		}
		length, err := p.parseIntLit()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return aSubstr{e: e, start: start, len: length}, nil
	case t.kind == tokKeyword && isAggKeyword(t.text):
		p.next()
		if err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		call := aCall{fn: t.text}
		if t.text == "COUNT" && p.accept(tokSymbol, "*") {
			// COUNT(*)
		} else {
			if p.accept(tokKeyword, "DISTINCT") {
				call.distinct = true
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.arg = arg
		}
		if err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return call, nil
	case t.kind == tokIdent:
		p.next()
		if p.accept(tokSymbol, ".") {
			if !p.at(tokIdent, "") {
				return nil, p.errf("expected column after %q.", t.text)
			}
			return aCol{qual: t.text, name: p.next().text}, nil
		}
		return aCol{name: t.text}, nil
	}
	return nil, p.errf("unexpected token %q", t.text)
}

func (p *parser) parseIntLit() (int, error) {
	if !p.at(tokNumber, "") {
		return 0, p.errf("expected integer")
	}
	return strconv.Atoi(p.next().text)
}

func isAggKeyword(s string) bool {
	switch s {
	case "SUM", "AVG", "MIN", "MAX", "COUNT":
		return true
	}
	return false
}
