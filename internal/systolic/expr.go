package systolic

import "fmt"

// Expr is a row-transformation expression over the streamed input columns.
// The compiler lowers a set of output Exprs into PE programs; the host
// engine evaluates the same Exprs with EvalCols, through the lane loops the
// lowered PE chain runs, so offloaded and host execution agree bit-for-bit.
type Expr interface {
	exprNode()
	String() string
}

// Col references input column i (in the Table Reader's streaming order:
// leftmost column first).
type Col struct{ Index int }

// Const is an integer literal.
type Const struct{ V int64 }

// Bin applies an ALU operation to two subexpressions.
type Bin struct {
	Op   AluOp
	L, R Expr
}

func (Col) exprNode()   {}
func (Const) exprNode() {}
func (Bin) exprNode()   {}

func (c Col) String() string   { return fmt.Sprintf("c%d", c.Index) }
func (c Const) String() string { return fmt.Sprintf("%d", c.V) }
func (b Bin) String() string   { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// C builds a Const.
func C(v int64) Expr { return Const{V: v} }

// In builds a Col reference.
func In(i int) Expr { return Col{Index: i} }

// B builds a Bin.
func B(op AluOp, l, r Expr) Expr { return Bin{Op: op, L: l, R: r} }

// Add, Sub, Mul, Div, EQ, LT, GT are convenience constructors.
func Add(l, r Expr) Expr { return B(AluAdd, l, r) }
func Sub(l, r Expr) Expr { return B(AluSub, l, r) }
func Mul(l, r Expr) Expr { return B(AluMul, l, r) }
func Div(l, r Expr) Expr { return B(AluDiv, l, r) }
func EQ(l, r Expr) Expr  { return B(AluEQ, l, r) }
func LT(l, r Expr) Expr  { return B(AluLT, l, r) }
func GT(l, r Expr) Expr  { return B(AluGT, l, r) }

// EvalExpr evaluates e on one row whose input column values are in. It is
// the scalar reference the tests hold Machine and EvalCols to.
func EvalExpr(e Expr, in []int64) int64 {
	switch n := e.(type) {
	case Col:
		return in[n.Index]
	case Const:
		return n.V
	case Bin:
		return n.Op.Apply(EvalExpr(n.L, in), EvalExpr(n.R, in))
	default:
		panic(fmt.Sprintf("systolic: unknown expr %T", e))
	}
}

// evalTile is the number of rows EvalCols evaluates per walk of the tree:
// 8 KB per node buffer, so a typical expression's buffers stay in L1.
const evalTile = 1024

// EvalCols evaluates e over whole columns: out[r] is EvalExpr(e, row r),
// where row r holds cols[c][r] for every column c that e references (each
// at least len(out) long). It walks the tree once per tile of rows. A Col
// reads its column in place, a Const is a buffer holding the constant in
// every lane, and a Bin runs the Machine's lane loop into a buffer of its
// own; the buffers are reused from tile to tile. Unlike a Machine it has no
// register, PE or immediate limits, so it evaluates any Expr.
func EvalCols(e Expr, cols [][]int64, out []int64) {
	t := tileEval{size: min(evalTile, len(out))}
	t.eval(e, cols, out)
}

// Evaluator is EvalCols for one expression evaluated again and again, say
// over the chunks of a scan: its node buffers outlive the call, so a
// warmed-up Evaluator allocates nothing.
type Evaluator struct {
	e Expr
	t tileEval
}

// NewEvaluator returns an Evaluator of e.
func NewEvaluator(e Expr) *Evaluator { return &Evaluator{e: e, t: tileEval{size: evalTile}} }

// Eval sets out[r] to EvalExpr(e, row r), exactly as EvalCols(e, cols, out).
func (v *Evaluator) Eval(cols [][]int64, out []int64) { v.t.eval(v.e, cols, out) }

// tileEval holds EvalCols' node buffers. The walk visits the nodes in the
// same order every tile, so the i-th buffer it takes always belongs to the
// same node, and a Const's buffer is filled once, when it is made.
type tileEval struct {
	cols [][]int64
	size int // rows in the largest tile
	bufs [][]int64
	next int
}

// eval walks e over out's rows a tile at a time.
func (t *tileEval) eval(e Expr, cols [][]int64, out []int64) {
	t.cols = cols
	for lo := 0; lo < len(out); lo += evalTile {
		hi := min(lo+evalTile, len(out))
		t.next = 0
		copy(out[lo:hi], t.walk(e, lo, hi))
	}
}

func (t *tileEval) walk(e Expr, lo, hi int) []int64 {
	switch n := e.(type) {
	case Col:
		return t.cols[n.Index][lo:hi]
	case Const:
		return t.buf(n.V)[:hi-lo]
	case Bin:
		x, y := t.walk(n.L, lo, hi), t.walk(n.R, lo, hi)
		d := t.buf(0)[:hi-lo]
		n.Op.applyLanes(d, x, y)
		return d
	default:
		panic(fmt.Sprintf("systolic: unknown expr %T", e))
	}
}

// buf returns the next node's buffer, making it on the first tile with v
// in every lane.
func (t *tileEval) buf(v int64) []int64 {
	if t.next == len(t.bufs) {
		b := make([]int64, t.size)
		for i := range b {
			b[i] = v
		}
		t.bufs = append(t.bufs, b)
	}
	t.next++
	return t.bufs[t.next-1]
}

// MaxColIndex returns the largest input column index referenced by the
// expressions, or -1 if none.
func MaxColIndex(exprs []Expr) int {
	max := -1
	var walk func(Expr)
	walk = func(e Expr) {
		switch n := e.(type) {
		case Col:
			if n.Index > max {
				max = n.Index
			}
		case Bin:
			walk(n.L)
			walk(n.R)
		}
	}
	for _, e := range exprs {
		walk(e)
	}
	return max
}
