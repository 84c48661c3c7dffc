package systolic

import "math"

// Interval is an inclusive int64 range used for zone-map page pruning:
// evaluating a predicate expression over a page's [min,max] interval
// yields an interval that soundly over-approximates every per-row result.
// A page whose predicate interval is exactly [0,0] cannot contain a
// matching row and can be skipped without a flash read.
type Interval struct {
	Lo, Hi int64
}

// Top is the full int64 range (the sound answer when nothing tighter can
// be proven — e.g. when interval arithmetic would overflow, since the
// reference evaluator wraps natively).
func Top() Interval { return Interval{math.MinInt64, math.MaxInt64} }

// Point is the degenerate interval [v,v].
func Point(v int64) Interval { return Interval{v, v} }

// IsZero reports whether the interval is exactly [0,0] — i.e. the
// expression is provably false for every value in the inputs.
func (iv Interval) IsZero() bool { return iv.Lo == 0 && iv.Hi == 0 }

// EvalExprInterval evaluates e over input-column intervals. The result is
// sound with respect to EvalExpr: for any concrete row whose column j
// value lies in in[j], EvalExpr's result lies in the returned interval.
// Arithmetic that could overflow int64 returns Top, because EvalExpr
// wraps (two's complement) on overflow and the wrapped value can land
// anywhere.
func EvalExprInterval(e Expr, in []Interval) Interval {
	switch n := e.(type) {
	case Col:
		return in[n.Index]
	case Const:
		return Point(n.V)
	case Bin:
		return n.Op.applyInterval(EvalExprInterval(n.L, in), EvalExprInterval(n.R, in))
	default:
		return Top()
	}
}

func (a AluOp) applyInterval(x, y Interval) Interval {
	switch a {
	case AluAdd:
		lo, ov1 := addOv(x.Lo, y.Lo)
		hi, ov2 := addOv(x.Hi, y.Hi)
		if ov1 || ov2 {
			return Top()
		}
		return Interval{lo, hi}
	case AluSub:
		lo, ov1 := subOv(x.Lo, y.Hi)
		hi, ov2 := subOv(x.Hi, y.Lo)
		if ov1 || ov2 {
			return Top()
		}
		return Interval{lo, hi}
	case AluMul:
		// True products are monotone in each argument, so extremes over
		// the box sit at corners; any corner overflow forces Top.
		iv := Interval{math.MaxInt64, math.MinInt64}
		for _, p := range [4][2]int64{{x.Lo, y.Lo}, {x.Lo, y.Hi}, {x.Hi, y.Lo}, {x.Hi, y.Hi}} {
			v, ov := mulOv(p[0], p[1])
			if ov {
				return Top()
			}
			if v < iv.Lo {
				iv.Lo = v
			}
			if v > iv.Hi {
				iv.Hi = v
			}
		}
		return iv
	case AluDiv:
		// Division by zero yields 0 in Apply; once 0 is a possible
		// divisor the result set is irregular, so give up. With the
		// divisor sign fixed, x/y is monotone in each argument
		// (truncation toward zero) and corners bound the box. Go defines
		// MinInt64 / -1 = MinInt64, matching Apply, so no overflow case
		// exists.
		if y.Lo <= 0 && y.Hi >= 0 {
			return Top()
		}
		iv := Interval{math.MaxInt64, math.MinInt64}
		for _, p := range [4][2]int64{{x.Lo, y.Lo}, {x.Lo, y.Hi}, {x.Hi, y.Lo}, {x.Hi, y.Hi}} {
			v := p[0] / p[1]
			if v < iv.Lo {
				iv.Lo = v
			}
			if v > iv.Hi {
				iv.Hi = v
			}
		}
		return iv
	case AluEQ:
		if x.Lo == x.Hi && y.Lo == y.Hi && x.Lo == y.Lo {
			return Point(1)
		}
		if x.Hi < y.Lo || x.Lo > y.Hi {
			return Point(0)
		}
		return Interval{0, 1}
	case AluLT:
		if x.Hi < y.Lo {
			return Point(1)
		}
		if x.Lo >= y.Hi {
			return Point(0)
		}
		return Interval{0, 1}
	case AluGT:
		if x.Lo > y.Hi {
			return Point(1)
		}
		if x.Hi <= y.Lo {
			return Point(0)
		}
		return Interval{0, 1}
	default:
		return Top()
	}
}

func addOv(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, true
	}
	return s, false
}

func subOv(a, b int64) (int64, bool) {
	s := a - b
	if (a >= 0 && b < 0 && s < 0) || (a < 0 && b > 0 && s >= 0) {
		return 0, true
	}
	return s, false
}

func mulOv(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, false
	}
	if (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		return 0, true
	}
	p := a * b
	if p/b != a {
		return 0, true
	}
	return p, false
}

// empty is the canonical empty truth set.
var empty = Interval{1, 0}

// IsEmpty reports whether the interval holds no value (Lo > Hi).
func (iv Interval) IsEmpty() bool { return iv.Lo > iv.Hi }

// TruthInterval returns the exact set {v : EvalExpr(e, [v]) != 0} of a
// single-column predicate when that set is one closed interval, possibly
// empty (IsEmpty). It recognises the shapes predicates lower to: c0 lt,
// gt or eq a constant (the constant on either side), the complement
// 1 sub B, and the intersection B1 mul B2, where B, B1 and B2 are 0/1
// nodes it recognised itself. A complement is kept only while it is still
// one interval. Everything else reports false.
func TruthInterval(e Expr) (Interval, bool) {
	b, ok := e.(Bin)
	if !ok {
		return Interval{}, false
	}
	switch b.Op {
	case AluEQ, AluLT, AluGT:
		op, k, ok := colVsConst(b)
		if !ok {
			return Interval{}, false
		}
		switch {
		case op == AluEQ:
			return Point(k), true
		case op == AluLT && k == math.MinInt64, op == AluGT && k == math.MaxInt64:
			return empty, true
		case op == AluLT:
			return Interval{math.MinInt64, k - 1}, true
		default:
			return Interval{k + 1, math.MaxInt64}, true
		}
	case AluSub:
		if c, ok := b.L.(Const); !ok || c.V != 1 {
			return Interval{}, false
		}
		in, ok := TruthInterval(b.R)
		if !ok {
			return Interval{}, false
		}
		switch {
		case in.IsEmpty():
			return Top(), true
		case in == Top():
			return empty, true
		case in.Lo == math.MinInt64:
			return Interval{in.Hi + 1, math.MaxInt64}, true
		case in.Hi == math.MaxInt64:
			return Interval{math.MinInt64, in.Lo - 1}, true
		}
		return Interval{}, false
	case AluMul:
		x, ok1 := TruthInterval(b.L)
		y, ok2 := TruthInterval(b.R)
		if !ok1 || !ok2 {
			return Interval{}, false
		}
		iv := Interval{max(x.Lo, y.Lo), min(x.Hi, y.Hi)}
		if x.IsEmpty() || y.IsEmpty() || iv.IsEmpty() {
			return empty, true
		}
		return iv, true
	}
	return Interval{}, false
}

// colVsConst normalises a comparison of column 0 against a constant to
// c0 op k, flipping lt and gt when the constant is on the left.
func colVsConst(b Bin) (op AluOp, k int64, ok bool) {
	if c, isCol := b.L.(Col); isCol && c.Index == 0 {
		if k, isConst := b.R.(Const); isConst {
			return b.Op, k.V, true
		}
	}
	if c, isCol := b.R.(Col); isCol && c.Index == 0 {
		if k, isConst := b.L.(Const); isConst {
			switch b.Op {
			case AluLT:
				return AluGT, k.V, true
			case AluGT:
				return AluLT, k.V, true
			}
			return b.Op, k.V, true
		}
	}
	return 0, 0, false
}
