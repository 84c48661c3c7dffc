package systolic

import (
	"math"
	"math/rand"
	"testing"
)

func randIval(rng *rand.Rand) Interval {
	switch rng.Intn(5) {
	case 0:
		return Point(rng.Int63n(200) - 100)
	case 1:
		return Interval{math.MinInt64, math.MaxInt64}
	case 2:
		a := rng.Int63() - rng.Int63()
		b := rng.Int63() - rng.Int63()
		if a > b {
			a, b = b, a
		}
		return Interval{a, b}
	default:
		a := rng.Int63n(2000) - 1000
		return Interval{a, a + rng.Int63n(500)}
	}
}

func sampleIn(rng *rand.Rand, iv Interval) int64 {
	if iv.Lo == iv.Hi {
		return iv.Lo
	}
	span := uint64(iv.Hi) - uint64(iv.Lo)
	if span == math.MaxUint64 {
		return int64(rng.Uint64())
	}
	return int64(uint64(iv.Lo) + rng.Uint64()%(span+1))
}

func randIntervalExpr(rng *rand.Rand, depth int) Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(2) == 0 {
			return In(0)
		}
		return C(rng.Int63n(400) - 200)
	}
	op := []AluOp{AluAdd, AluSub, AluMul, AluDiv, AluEQ, AluLT, AluGT}[rng.Intn(7)]
	return B(op, randIntervalExpr(rng, depth-1), randIntervalExpr(rng, depth-1))
}

// TestEvalExprIntervalSound samples concrete values inside random input
// intervals and checks the concrete evaluation always lands inside the
// interval evaluation — the property zone-map pruning relies on.
func TestEvalExprIntervalSound(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5000; trial++ {
		e := randIntervalExpr(rng, 4)
		in := randIval(rng)
		iv := EvalExprInterval(e, []Interval{in})
		if iv.Lo > iv.Hi {
			t.Fatalf("expr %s over [%d,%d]: inverted interval [%d,%d]", e, in.Lo, in.Hi, iv.Lo, iv.Hi)
		}
		for k := 0; k < 30; k++ {
			v := sampleIn(rng, in)
			got := EvalExpr(e, []int64{v})
			if got < iv.Lo || got > iv.Hi {
				t.Fatalf("expr %s at %d (in [%d,%d]) = %d outside interval [%d,%d]",
					e, v, in.Lo, in.Hi, got, iv.Lo, iv.Hi)
			}
		}
	}
}

func TestEvalExprIntervalCases(t *testing.T) {
	col := In(0)
	cases := []struct {
		name string
		e    Expr
		in   Interval
		want Interval
	}{
		{"lt-true", LT(col, C(100)), Interval{0, 50}, Point(1)},
		{"lt-false", LT(col, C(100)), Interval{100, 200}, Point(0)},
		{"lt-maybe", LT(col, C(100)), Interval{50, 150}, Interval{0, 1}},
		{"gt-false", GT(col, C(10)), Interval{-5, 10}, Point(0)},
		{"eq-disjoint", EQ(col, C(7)), Interval{8, 20}, Point(0)},
		{"eq-point", EQ(col, C(7)), Point(7), Point(1)},
		{"range-and", Mul(GT(col, C(10)), LT(col, C(20))), Interval{30, 40}, Point(0)},
		{"add", Add(col, C(5)), Interval{0, 10}, Interval{5, 15}},
		{"overflow-top", Add(col, C(math.MaxInt64)), Interval{1, 2}, Top()},
		{"mul-overflow", Mul(col, C(math.MaxInt64)), Interval{2, 3}, Top()},
		{"div-zero-top", Div(C(10), col), Interval{-1, 1}, Top()},
		{"div", Div(col, C(2)), Interval{10, 21}, Interval{5, 10}},
	}
	for _, c := range cases {
		got := EvalExprInterval(c.e, []Interval{c.in})
		if got != c.want {
			t.Errorf("%s: %s over [%d,%d] = [%d,%d], want [%d,%d]",
				c.name, c.e, c.in.Lo, c.in.Hi, got.Lo, got.Hi, c.want.Lo, c.want.Hi)
		}
	}
}

func TestTruthIntervalCases(t *testing.T) {
	c0 := In(0)
	not := func(e Expr) Expr { return Sub(C(1), e) }
	cases := []struct {
		name string
		e    Expr
		want Interval
		ok   bool
	}{
		{"lt", LT(c0, C(24)), Interval{math.MinInt64, 23}, true},
		{"gt-const-left", GT(C(24), c0), Interval{math.MinInt64, 23}, true},
		{"ge", not(LT(c0, C(5))), Interval{5, math.MaxInt64}, true},
		{"le", not(GT(c0, C(7))), Interval{math.MinInt64, 7}, true},
		{"eq", EQ(C(3), c0), Point(3), true},
		{"between", Mul(not(LT(c0, C(5))), not(GT(c0, C(7)))), Interval{5, 7}, true},
		{"disjoint-and", Mul(LT(c0, C(5)), GT(c0, C(7))), Interval{1, 0}, true},
		{"lt-min", LT(c0, C(math.MinInt64)), Interval{1, 0}, true},
		{"gt-max", GT(c0, C(math.MaxInt64)), Interval{1, 0}, true},
		{"not-lt-min", not(LT(c0, C(math.MinInt64))), Top(), true},
		{"not-eq-min", not(EQ(c0, C(math.MinInt64))), Interval{math.MinInt64 + 1, math.MaxInt64}, true},
		{"not-eq-max", not(EQ(c0, C(math.MaxInt64))), Interval{math.MinInt64, math.MaxInt64 - 1}, true},
		{"ne", not(EQ(c0, C(3))), Interval{}, false},
		{"not-between", not(Mul(not(LT(c0, C(5))), LT(c0, C(9)))), Interval{}, false},
		{"in-list", Sub(Add(EQ(c0, C(1)), EQ(c0, C(2))), Mul(EQ(c0, C(1)), EQ(c0, C(2)))), Interval{}, false},
		{"two-minus", Sub(C(2), LT(c0, C(3))), Interval{}, false},
		{"col-vs-col", LT(c0, c0), Interval{}, false},
		{"other-col", LT(In(1), C(3)), Interval{}, false},
		{"arith", LT(Add(c0, C(1)), C(3)), Interval{}, false},
		{"const", C(1), Interval{}, false},
	}
	for _, c := range cases {
		got, ok := TruthInterval(c.e)
		if ok != c.ok || ok && got != c.want {
			t.Errorf("%s: TruthInterval(%s) = [%d,%d] %v, want [%d,%d] %v",
				c.name, c.e, got.Lo, got.Hi, ok, c.want.Lo, c.want.Hi, c.ok)
		}
	}
}

// truthEdges are the constants truth trees compare against: the int64
// edges, where k ± 1 would overflow, and a few ordinary values.
var truthEdges = []int64{math.MinInt64, math.MinInt64 + 1, -2, -1, 0, 1, 2, 24,
	math.MaxInt64 - 1, math.MaxInt64}

// truthTree builds a predicate over c0 from the bytes next hands out:
// comparisons of c0 against constants (either side), complements 1 sub B,
// intersections B1 mul B2, and now and then a shape TruthInterval must
// refuse. It appends every constant it uses to ks.
func truthTree(next func() int, depth int, ks *[]int64) Expr {
	k := func() Expr {
		v := truthEdges[next()%len(truthEdges)]
		if next()%4 == 0 {
			v = int64(int8(next()))
		}
		*ks = append(*ks, v)
		return C(v)
	}
	kind := next() % 8
	if depth == 0 {
		kind %= 3
	}
	switch kind {
	case 0, 1, 2:
		op := []AluOp{AluLT, AluGT, AluEQ}[kind]
		if next()%2 == 0 {
			return B(op, In(0), k())
		}
		return B(op, k(), In(0))
	case 3, 4:
		return Sub(C(1), truthTree(next, depth-1, ks))
	case 5, 6:
		return Mul(truthTree(next, depth-1, ks), truthTree(next, depth-1, ks))
	default:
		switch next() % 4 {
		case 0:
			return Sub(k(), truthTree(next, depth-1, ks))
		case 1:
			return Add(truthTree(next, depth-1, ks), truthTree(next, depth-1, ks))
		case 2:
			return LT(Add(In(0), k()), k())
		default:
			return k()
		}
	}
}

// checkTruthInterval holds TruthInterval(e) to EvalExpr: where it reports
// an interval, a value is in it exactly when the predicate holds. The
// predicate is constant between its constants, so probing each constant
// and its neighbours, the interval's ends and their neighbours, and the
// int64 edges covers every piece; random values are added on top.
func checkTruthInterval(t *testing.T, e Expr, ks []int64, rng *rand.Rand) bool {
	t.Helper()
	iv, ok := TruthInterval(e)
	if !ok {
		return false
	}
	probes := []int64{math.MinInt64, math.MaxInt64}
	near := func(v int64) {
		probes = append(probes, v)
		if v > math.MinInt64 {
			probes = append(probes, v-1)
		}
		if v < math.MaxInt64 {
			probes = append(probes, v+1)
		}
	}
	for _, k := range ks {
		near(k)
	}
	if !iv.IsEmpty() {
		near(iv.Lo)
		near(iv.Hi)
	}
	for i := 0; i < 16; i++ {
		probes = append(probes, int64(rng.Uint64()))
	}
	for _, v := range probes {
		want := EvalExpr(e, []int64{v}) != 0
		if got := v >= iv.Lo && v <= iv.Hi; got != want {
			t.Fatalf("TruthInterval(%s) = [%d,%d]: member(%d) = %v, EvalExpr says %v",
				e, iv.Lo, iv.Hi, v, got, want)
		}
	}
	return true
}

// TestTruthIntervalExact runs random truth trees through
// checkTruthInterval and checks that every comparison leaf is recognised.
func TestTruthIntervalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recognised := 0
	for trial := 0; trial < 20000; trial++ {
		next := func() int { return rng.Intn(256) }
		var ks []int64
		e := truthTree(next, rng.Intn(5), &ks)
		if checkTruthInterval(t, e, ks, rng) {
			recognised++
		}
		if b, isBin := e.(Bin); isBin && b.Op >= AluEQ {
			_, lcol := b.L.(Col)
			_, rcol := b.R.(Col)
			if _, ok := TruthInterval(e); !ok && lcol != rcol {
				t.Fatalf("comparison %s not recognised", e)
			}
		}
	}
	if recognised < 5000 {
		t.Fatalf("only %d of 20000 trees recognised: the generator misses the shapes", recognised)
	}
}

// FuzzTruthInterval holds TruthInterval to EvalExpr over truth trees the
// fuzzer shapes, with constants at the int64 edges.
func FuzzTruthInterval(f *testing.F) {
	f.Add(int64(1), []byte{5, 3, 0, 0, 0, 3, 1, 1, 9, 0})
	f.Add(int64(2), []byte{3, 1, 0, 1, 0})
	f.Add(int64(3), []byte{5, 0, 0, 0, 2, 1, 9, 1})
	f.Add(int64(4), []byte{7, 2, 3, 5, 8})
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(b)
		}
		var ks []int64
		e := truthTree(next, 6, &ks)
		checkTruthInterval(t, e, ks, rand.New(rand.NewSource(seed)))
	})
}
