// Package plan defines the logical query algebra: relational operator
// trees over expression ASTs. Both execution paths consume it — the host
// engine (internal/engine, the MonetDB stand-in) and the AQUOMAN offload
// compiler (internal/compiler) — and both lower expressions to the same
// systolic integer semantics, so host and in-storage execution agree
// bit-for-bit.
package plan

import (
	"fmt"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/regexcc"
	"aquoman/internal/systolic"
)

// Field is one column of an operator's output schema. String-typed fields
// carry their originating storage column so dictionary codes and heap
// offsets can be decoded anywhere downstream.
type Field struct {
	Name string
	Typ  col.Type
	// Src is the storage column for Dict/Text fields (nil otherwise).
	Src *col.ColumnInfo
}

// Schema is an ordered field list.
type Schema []Field

// Index returns the position of the named field, or -1.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Field returns the named field.
func (s Schema) Field(name string) (Field, error) {
	if i := s.Index(name); i >= 0 {
		return s[i], nil
	}
	return Field{}, fmt.Errorf("plan: no field %q in schema %s", name, s)
}

func (s Schema) String() string {
	names := make([]string, len(s))
	for i, f := range s {
		names[i] = f.Name
	}
	return "(" + strings.Join(names, ", ") + ")"
}

// Expr is a scalar expression over a schema. Comparisons and boolean
// operators yield 0/1. All expressions lower to systolic.Expr; evaluation
// everywhere uses the lowered form.
type Expr interface {
	expr()
	String() string
}

// Col references a field by name.
type Col struct{ Name string }

// Int is an integer literal (also used for Date and ×100 Decimal
// literals via the helpers below).
type Int struct{ V int64 }

// Str is a string literal compared against Dict/Text columns.
type Str struct{ V string }

// BinOp enumerates binary operators.
type BinOp int

const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv // integer division
	// OpDecMul multiplies two ×100 decimals, rescaling the result
	// (a*b/100), matching SQL decimal semantics under truncation.
	OpDecMul
	OpEQ
	OpNE
	OpLT
	OpLE
	OpGT
	OpGE
	OpAnd
	OpOr
)

func (o BinOp) String() string {
	return [...]string{"+", "-", "*", "/", "*dec", "=", "<>", "<", "<=", ">", ">=", "and", "or"}[o]
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Not negates a boolean expression.
type Not struct{ E Expr }

// InInts tests membership of E in a literal integer set.
type InInts struct {
	E  Expr
	Vs []int64
}

// InStrs tests membership of a string column in a literal string set.
type InStrs struct {
	Col string
	Vs  []string
}

// Like matches a string column against a SQL LIKE pattern.
type Like struct {
	Col     string
	Pattern string
	Negate  bool
}

// SubstrCode extracts bytes [Start, Start+Len) of a string column packed
// big-endian into an integer (SUBSTRING(c_phone, 1, 2) in q22; Start is
// 1-based as in SQL).
type SubstrCode struct {
	Col   string
	Start int
	Len   int
}

// YearOf extracts the calendar year of a Date expression
// (EXTRACT(YEAR FROM ...)).
type YearOf struct{ E Expr }

// Case selects Then where Cond is true, otherwise Else (SQL CASE WHEN).
type Case struct {
	Cond Expr
	Then Expr
	Else Expr
}

func (Col) expr()        {}
func (Int) expr()        {}
func (Str) expr()        {}
func (Bin) expr()        {}
func (Not) expr()        {}
func (InInts) expr()     {}
func (InStrs) expr()     {}
func (Like) expr()       {}
func (SubstrCode) expr() {}
func (YearOf) expr()     {}
func (Case) expr()       {}

func (e Col) String() string { return e.Name }
func (e Int) String() string { return fmt.Sprintf("%d", e.V) }
func (e Str) String() string { return fmt.Sprintf("%q", e.V) }
func (e Bin) String() string { return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R) }
func (e Not) String() string { return fmt.Sprintf("not(%s)", e.E) }
func (e InInts) String() string {
	return fmt.Sprintf("%s in %v", e.E, e.Vs)
}
func (e InStrs) String() string { return fmt.Sprintf("%s in %q", e.Col, e.Vs) }
func (e Like) String() string {
	neg := ""
	if e.Negate {
		neg = " not"
	}
	return fmt.Sprintf("%s%s like %q", e.Col, neg, e.Pattern)
}
func (e SubstrCode) String() string {
	return fmt.Sprintf("substr(%s,%d,%d)", e.Col, e.Start, e.Len)
}
func (e YearOf) String() string { return fmt.Sprintf("year(%s)", e.E) }
func (e Case) String() string {
	return fmt.Sprintf("case when %s then %s else %s end", e.Cond, e.Then, e.Else)
}

// Convenience constructors used by the TPC-H query definitions.

// C references a column.
func C(name string) Expr { return Col{Name: name} }

// I is an integer literal.
func I(v int64) Expr { return Int{V: v} }

// S is a string literal.
func S(v string) Expr { return Str{V: v} }

// Date is a "YYYY-MM-DD" literal.
func Date(s string) Expr { return Int{V: col.MustParseDate(s)} }

// Dec is a decimal literal: Dec("0.05") == 5 at ×100 scale.
func Dec(s string) Expr {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	parts := strings.SplitN(s, ".", 2)
	var units, cents int64
	fmt.Sscanf(parts[0], "%d", &units)
	if len(parts) == 2 {
		frac := parts[1]
		for len(frac) < 2 {
			frac += "0"
		}
		fmt.Sscanf(frac[:2], "%d", &cents)
	}
	v := units*100 + cents
	if neg {
		v = -v
	}
	return Int{V: v}
}

func bin(op BinOp, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }

// Arithmetic and comparison helpers.
func Add(l, r Expr) Expr    { return bin(OpAdd, l, r) }
func Sub(l, r Expr) Expr    { return bin(OpSub, l, r) }
func Mul(l, r Expr) Expr    { return bin(OpMul, l, r) }
func DivE(l, r Expr) Expr   { return bin(OpDiv, l, r) }
func DecMul(l, r Expr) Expr { return bin(OpDecMul, l, r) }
func EQ(l, r Expr) Expr     { return bin(OpEQ, l, r) }
func NE(l, r Expr) Expr     { return bin(OpNE, l, r) }
func LT(l, r Expr) Expr     { return bin(OpLT, l, r) }
func LE(l, r Expr) Expr     { return bin(OpLE, l, r) }
func GT(l, r Expr) Expr     { return bin(OpGT, l, r) }
func GE(l, r Expr) Expr     { return bin(OpGE, l, r) }

// And/Or fold multiple conjuncts/disjuncts.
func And(es ...Expr) Expr { return fold(OpAnd, es) }
func Or(es ...Expr) Expr  { return fold(OpOr, es) }

func fold(op BinOp, es []Expr) Expr {
	if len(es) == 0 {
		return I(1)
	}
	e := es[0]
	for _, n := range es[1:] {
		e = bin(op, e, n)
	}
	return e
}

// Between is lo <= e AND e <= hi (SQL BETWEEN is inclusive).
func Between(e, lo, hi Expr) Expr { return And(GE(e, lo), LE(e, hi)) }

// PackString packs up to 8 bytes of s big-endian into an int64 (the
// SubstrCode encoding).
func PackString(s string) int64 {
	var v int64
	for i := 0; i < len(s) && i < 8; i++ {
		v = v<<8 | int64(s[i])
	}
	return v
}

// yearExpr lowers EXTRACT(YEAR) to integer arithmetic valid for
// 1901–2099: day 0 is 1970-01-01, 731 days after 1968-01-01, and in that
// window every 4th year is leap, so year = 1968 + 4*(d+731)/1461.
func yearExpr(d systolic.Expr) systolic.Expr {
	return systolic.Add(
		systolic.Div(systolic.Mul(systolic.Add(d, systolic.C(731)), systolic.C(4)), systolic.C(1461)),
		systolic.C(1968))
}

// Lower compiles e against schema into a systolic expression over the
// schema's column indices. String predicates resolve through the fields'
// dictionaries; Text-column predicates cannot lower (they need the regex
// accelerator or host evaluation) and return ErrNeedsText.
func Lower(e Expr, schema Schema) (systolic.Expr, error) {
	l := lowerer{schema: schema}
	return l.lower(e)
}

// ErrNeedsText marks expressions that touch Text (string-heap) content
// and therefore cannot become pure integer dataflow.
type TextError struct{ Col string }

func (e *TextError) Error() string {
	return fmt.Sprintf("plan: expression needs string-heap content of column %q", e.Col)
}

type lowerer struct {
	schema Schema
}

func (l *lowerer) colIndex(name string) (int, Field, error) {
	i := l.schema.Index(name)
	if i < 0 {
		return 0, Field{}, fmt.Errorf("plan: unknown column %q in %s", name, l.schema)
	}
	return i, l.schema[i], nil
}

func (l *lowerer) lower(e Expr) (systolic.Expr, error) {
	switch n := e.(type) {
	case Col:
		i, _, err := l.colIndex(n.Name)
		if err != nil {
			return nil, err
		}
		return systolic.In(i), nil
	case Int:
		return systolic.C(n.V), nil
	case Str:
		return nil, fmt.Errorf("plan: bare string literal %q outside comparison", n.V)
	case Bin:
		return l.lowerBin(n)
	case Not:
		inner, err := l.lower(n.E)
		if err != nil {
			return nil, err
		}
		return systolic.Sub(systolic.C(1), inner), nil
	case InInts:
		inner, err := l.lower(n.E)
		if err != nil {
			return nil, err
		}
		return lowerMembership(inner, n.Vs), nil
	case InStrs:
		i, f, err := l.colIndex(n.Col)
		if err != nil {
			return nil, err
		}
		if f.Typ != col.Dict || f.Src == nil {
			return nil, &TextError{Col: n.Col}
		}
		var codes []int64
		for _, s := range n.Vs {
			if c, ok := f.Src.Code(s); ok {
				codes = append(codes, c)
			}
		}
		if len(codes) == 0 {
			return systolic.C(0), nil
		}
		return lowerMembership(systolic.In(i), codes), nil
	case Like:
		return l.lowerLike(n)
	case SubstrCode:
		return nil, &TextError{Col: n.Col}
	case YearOf:
		inner, err := l.lower(n.E)
		if err != nil {
			return nil, err
		}
		return yearExpr(inner), nil
	case Case:
		cond, err := l.lower(n.Cond)
		if err != nil {
			return nil, err
		}
		th, err := l.lower(n.Then)
		if err != nil {
			return nil, err
		}
		el, err := l.lower(n.Else)
		if err != nil {
			return nil, err
		}
		// cond*then + (1-cond)*else
		return systolic.Add(systolic.Mul(cond, th),
			systolic.Mul(systolic.Sub(systolic.C(1), cond), el)), nil
	default:
		return nil, fmt.Errorf("plan: cannot lower %T", e)
	}
}

func (l *lowerer) lowerBin(n Bin) (systolic.Expr, error) {
	// String equality against a Dict column becomes a code comparison.
	if sl, ok := n.R.(Str); ok {
		cl, okc := n.L.(Col)
		if !okc {
			return nil, fmt.Errorf("plan: string comparison needs a column: %s", n)
		}
		i, f, err := l.colIndex(cl.Name)
		if err != nil {
			return nil, err
		}
		if f.Typ != col.Dict || f.Src == nil {
			return nil, &TextError{Col: cl.Name}
		}
		code, found := f.Src.Code(sl.V)
		switch n.Op {
		case OpEQ:
			if !found {
				return systolic.C(0), nil
			}
			return systolic.EQ(systolic.In(i), systolic.C(code)), nil
		case OpNE:
			if !found {
				return systolic.C(1), nil
			}
			return systolic.Sub(systolic.C(1), systolic.EQ(systolic.In(i), systolic.C(code))), nil
		default:
			// Ordered string comparisons work because codes are assigned
			// in lexicographic order. When the literal is absent from the
			// dictionary, lo is the first code whose string exceeds it,
			// so <= and < collapse to "< lo", and > and >= to ">= lo".
			if found {
				return l.cmpLowered(n.Op, systolic.In(i), systolic.C(code))
			}
			lo, _ := f.Src.CodeRangeForPrefix(sl.V)
			switch n.Op {
			case OpLT, OpLE:
				return systolic.LT(systolic.In(i), systolic.C(lo)), nil
			case OpGT, OpGE:
				return systolic.Sub(systolic.C(1),
					systolic.LT(systolic.In(i), systolic.C(lo))), nil
			default:
				return nil, fmt.Errorf("plan: bad string comparison %s", n.Op)
			}
		}
	}
	if _, ok := n.L.(Str); ok {
		// Normalize literal-first comparisons: a op b == b flip(op) a.
		return l.lowerBin(Bin{Op: flipCmp(n.Op), L: n.R, R: n.L})
	}
	lhs, err := l.lower(n.L)
	if err != nil {
		return nil, err
	}
	rhs, err := l.lower(n.R)
	if err != nil {
		return nil, err
	}
	switch n.Op {
	case OpAdd:
		return systolic.Add(lhs, rhs), nil
	case OpSub:
		return systolic.Sub(lhs, rhs), nil
	case OpMul:
		return systolic.Mul(lhs, rhs), nil
	case OpDiv:
		return systolic.Div(lhs, rhs), nil
	case OpDecMul:
		return systolic.Div(systolic.Mul(lhs, rhs), systolic.C(col.DecimalScale)), nil
	case OpAnd:
		return systolic.Mul(lhs, rhs), nil
	case OpOr:
		// a or b == a + b - a*b for 0/1 operands.
		return systolic.Sub(systolic.Add(lhs, rhs), systolic.Mul(lhs, rhs)), nil
	default:
		return l.cmpLowered(n.Op, lhs, rhs)
	}
}

func (l *lowerer) cmpLowered(op BinOp, lhs, rhs systolic.Expr) (systolic.Expr, error) {
	switch op {
	case OpEQ:
		return systolic.EQ(lhs, rhs), nil
	case OpNE:
		return systolic.Sub(systolic.C(1), systolic.EQ(lhs, rhs)), nil
	case OpLT:
		return systolic.LT(lhs, rhs), nil
	case OpGT:
		return systolic.GT(lhs, rhs), nil
	case OpLE:
		return systolic.Sub(systolic.C(1), systolic.GT(lhs, rhs)), nil
	case OpGE:
		return systolic.Sub(systolic.C(1), systolic.LT(lhs, rhs)), nil
	default:
		return nil, fmt.Errorf("plan: bad comparison op %s", op)
	}
}

func flipCmp(op BinOp) BinOp {
	switch op {
	case OpLT:
		return OpGT
	case OpGT:
		return OpLT
	case OpLE:
		return OpGE
	case OpGE:
		return OpLE
	default:
		return op // EQ, NE symmetric
	}
}

func (l *lowerer) lowerLike(n Like) (systolic.Expr, error) {
	i, f, err := l.colIndex(n.Col)
	if err != nil {
		return nil, err
	}
	if f.Typ != col.Dict || f.Src == nil {
		return nil, &TextError{Col: n.Col}
	}
	pat := regexcc.Compile(n.Pattern)
	var e systolic.Expr
	if prefix, ok := pat.IsPrefix(); ok {
		lo, hi := f.Src.CodeRangeForPrefix(prefix)
		if lo >= hi {
			e = systolic.C(0)
		} else {
			// lo <= c < hi  ==  !(c < lo) * (c < hi)
			e = systolic.Mul(
				systolic.Sub(systolic.C(1), systolic.LT(systolic.In(i), systolic.C(lo))),
				systolic.LT(systolic.In(i), systolic.C(hi)))
		}
	} else {
		matches := pat.MatchDict(f.Src.Dict())
		var codes []int64
		for c, ok := range matches {
			if ok {
				codes = append(codes, int64(c))
			}
		}
		if len(codes) == 0 {
			e = systolic.C(0)
		} else {
			e = lowerMembership(systolic.In(i), codes)
		}
	}
	if n.Negate {
		e = systolic.Sub(systolic.C(1), e)
	}
	return e, nil
}

// lowerMembership builds an OR-of-equalities membership test, collapsing
// contiguous runs into range tests.
func lowerMembership(e systolic.Expr, vs []int64) systolic.Expr {
	sorted := append([]int64(nil), vs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	// Deduplicate so the disjoint-term sum stays 0/1.
	dedup := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			dedup = append(dedup, v)
		}
	}
	sorted = dedup
	var terms []systolic.Expr
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] <= sorted[j]+1 {
			j++
		}
		if j-i >= 2 {
			lo, hi := sorted[i], sorted[j]
			terms = append(terms, systolic.Mul(
				systolic.Sub(systolic.C(1), systolic.LT(e, systolic.C(lo))),
				systolic.Sub(systolic.C(1), systolic.GT(e, systolic.C(hi)))))
		} else {
			for k := i; k <= j; k++ {
				terms = append(terms, systolic.EQ(e, systolic.C(sorted[k])))
			}
		}
		i = j + 1
	}
	out := terms[0]
	for _, t := range terms[1:] {
		// Disjoint terms: plain sum stays 0/1.
		out = systolic.Add(out, t)
	}
	return out
}
