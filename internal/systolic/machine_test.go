package systolic

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// exprGen builds expression sets from fuzz bytes: every leaf is a column,
// a constant at the int64 edges or a small one, or a subexpression built
// earlier (shared, so the compiler FORKs it). A constant dividend or a
// constant output, which the ISA cannot map, gets a column added to it.
type exprGen struct {
	data []byte
	nIn  int
	made []Expr
}

func (g *exprGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

var edgeConsts = []int64{0, 1, -1, math.MinInt64, math.MaxInt64, 2, -7, 100}

func (g *exprGen) expr(depth int) Expr {
	b := g.next()
	if depth == 0 || b%4 == 0 {
		switch b / 4 % 3 {
		case 0:
			return In(int(g.next()) % g.nIn)
		case 1:
			return C(edgeConsts[int(g.next())%len(edgeConsts)])
		default:
			if len(g.made) > 0 {
				return g.made[int(g.next())%len(g.made)]
			}
			return In(0)
		}
	}
	op, l := AluOp(b/4%7), g.expr(depth-1)
	if op == AluDiv {
		l = g.anchored(l)
	}
	e := B(op, l, g.expr(depth-1))
	g.made = append(g.made, e)
	return e
}

// anchored returns e, plus a column when e has none.
func (g *exprGen) anchored(e Expr) Expr {
	if MaxColIndex([]Expr{e}) < 0 {
		return Add(e, In(int(g.next())%g.nIn))
	}
	return e
}

// laneValues fills n rows of nIn columns, mixing the edge constants with
// arbitrary values.
func laneValues(rng *rand.Rand, nIn, n int) [][]int64 {
	cols := make([][]int64, nIn)
	for c := range cols {
		cols[c] = make([]int64, n)
		for r := range cols[c] {
			if rng.Intn(3) == 0 {
				cols[c][r] = edgeConsts[rng.Intn(len(edgeConsts))]
			} else {
				cols[c][r] = rng.Int63n(401) - 200
			}
		}
	}
	return cols
}

// FuzzMachineVsEvalExpr holds both lowered evaluators to the scalar
// reference. EvalCols must agree with EvalExpr row by row over column
// lengths on both sides of its tile boundaries, for every expression set,
// including those too wide for any register file. Then random expression
// sets of depth ≤ 5 over all seven ALU functions, compiled with the default
// register file and with a narrow one that forces widening and multi-PE
// pass forwarding, must agree with EvalExpr lane by lane over 1–32 lanes —
// and a second call with other inputs and another width must show no trace
// of the first.
func FuzzMachineVsEvalExpr(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for seed := int64(0); seed < 24; seed++ {
		shape := make([]byte, 64)
		rng.Read(shape)
		f.Add(shape, seed)
	}
	f.Fuzz(func(t *testing.T, shape []byte, seed int64) {
		g := &exprGen{data: shape}
		g.nIn = 1 + int(g.next())%4
		nOut := 1 + int(g.next())%4
		n1, n2 := 1+int(g.next())%32, 1+int(g.next())%32
		outs := make([]Expr, nOut)
		for i := range outs {
			outs[i] = g.anchored(g.expr(5))
		}
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{0, 1, evalTile - 1, evalTile, evalTile + 1, rng.Intn(3*evalTile + 1)} {
			checkEvalCols(t, outs, laneValues(rng, g.nIn, n))
		}
		for _, cfg := range []Config{DefaultConfig(), {IMem: 3, NumRegs: 2}} {
			m, err := Compile(outs, g.nIn, cfg)
			if err != nil && strings.Contains(err.Error(), "register pressure") {
				return // more live values than even the widest register file
			}
			if err != nil {
				t.Fatalf("Compile(%v): %v", outs, err)
			}
			ma := NewMachine(m)
			for _, n := range []int{n1, n2} {
				in := laneValues(rng, g.nIn, n)
				got, err := ma.RunVec(in)
				if err != nil {
					t.Fatalf("RunVec: %v", err)
				}
				row := make([]int64, g.nIn)
				for r := 0; r < n; r++ {
					for c := range row {
						row[c] = in[c][r]
					}
					for o, e := range outs {
						if len(got[o]) != n {
							t.Fatalf("output %d has %d lanes, want %d", o, len(got[o]), n)
						}
						if want := EvalExpr(e, row); got[o][r] != want {
							t.Fatalf("cfg %+v lanes %d row %d out %d (%s) on %v: kernel %d, EvalExpr %d",
								cfg, n, r, o, e, row, got[o][r], want)
						}
					}
				}
			}
		}
	})
}

// checkEvalCols holds EvalCols, and an Evaluator called twice (the
// second call on the buffers of the first), to EvalExpr on every row of
// cols.
func checkEvalCols(t *testing.T, outs []Expr, cols [][]int64) {
	t.Helper()
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	got := make([]int64, n)
	row := make([]int64, len(cols))
	for _, e := range outs {
		ev := NewEvaluator(e)
		for pass, name := range []string{"EvalCols", "Evaluator", "reused Evaluator"} {
			if pass == 0 {
				EvalCols(e, cols, got)
			} else {
				ev.Eval(cols, got)
			}
			for r := range got {
				for c := range row {
					row[c] = cols[c][r]
				}
				if want := EvalExpr(e, row); got[r] != want {
					t.Fatalf("%s over %d rows, row %d (%s) on %v: got %d, EvalExpr %d", name, n, r, e, row, got[r], want)
				}
			}
		}
	}
}

// EvalCols evaluates what the PE chain cannot map: a constant dividend
// (dividing by a zero column gives 0) and a root with no column at all.
func TestEvalColsConstantOperands(t *testing.T) {
	cols := laneValues(rand.New(rand.NewSource(2)), 1, 2*evalTile+3)
	cols[0][0], cols[0][evalTile] = 0, 0
	checkEvalCols(t, []Expr{Div(C(100), In(0)), Mul(Add(C(3), C(4)), C(-6))}, cols)
	out := make([]int64, evalTile+1)
	EvalCols(Sub(C(1), C(8)), nil, out)
	for r, v := range out {
		if v != -7 {
			t.Fatalf("row %d of a constant root over no columns = %d, want -7", r, v)
		}
	}
}

// A Machine over a defective chain refuses to run: the lowering finds the
// defect, and RunVec and Transform return an error naming the PE instead of
// panicking or reading whatever a register held.
func TestMachineRejectsDefectiveChains(t *testing.T) {
	pop := func(rd uint8) Instr { return Instr{Op: OpPass, Rd: rd, Rs: StreamReg} }
	push := func(rs uint8) Instr { return Instr{Op: OpPass, Rd: StreamReg, Rs: rs} }
	cases := []struct {
		name  string
		progs []Program
		want  string
	}{
		{"input FIFO underflow", []Program{{pop(1), pop(2), push(1)}}, "PE 0: pass  r2 <- fifo: input FIFO underflow"},
		{"operand FIFO underflow", []Program{{pop(1), {Op: OpAlu, Alu: AluAdd, Rd: 2, Rs: 1}, push(2)}},
			"PE 0: add   r2 <- r1, op: operand FIFO underflow"},
		{"read of a never-written register", []Program{{pop(1), push(1)}, {pop(2), push(1)}},
			"PE 1: pass  fifo <- r1: reads a register this PE never wrote"},
		{"too many pushes", []Program{{pop(1), push(1), push(1)}}, "PE 0: chain pushed 2 vectors, want 1"},
		{"too few pushes", []Program{{pop(1)}}, "PE 0: chain pushed 0 vectors, want 1"},
		{"pushes left unpopped", []Program{{pop(1), push(1), push(1)}, {pop(1), push(1)}},
			"PE 1: popped 1 of the 2 vectors pushed to it"},
		{"bad opcode", []Program{{pop(1), {Op: 9, Rd: 2, Rs: 1}, push(2)}}, "PE 0: instr(9): bad opcode"},
		{"bad ALU function", []Program{{pop(1), {Op: OpAlu, Alu: 42, Rd: 2, Rs: 1, UseImm: true}, push(2)}},
			"PE 0: alu(42) r2 <- r1, #0: bad ALU function"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ma := NewMachine(&Mapped{Programs: tc.progs, NumInputs: 1, NumOutputs: 1})
			if _, err := ma.RunVec([][]int64{{1, 2, 3}}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunVec: err = %v, want one containing %q", err, tc.want)
			}
			for _, rows := range [][]int64{{1, 2, 3}, {}} {
				if _, err := ma.Transform([][]int64{rows}); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("Transform over %d rows: err = %v, want one containing %q", len(rows), err, tc.want)
				}
			}
		})
	}
}

// The operand FIFO is first in, first out, and a Copy both names its
// source in a register and queues it. The compiler never queues two
// operands at once nor emits a Copy, so a hand-built chain holds the
// lowering to both.
func TestMachineOperandFIFOAndCopy(t *testing.T) {
	alu := func(a AluOp, rd, rs uint8) Instr { return Instr{Op: OpAlu, Alu: a, Rd: rd, Rs: rs} }
	prog := Program{
		{Op: OpPass, Rd: 1}, {Op: OpPass, Rd: 2}, // x, y
		{Op: OpStore, Rs: 1}, {Op: OpStore, Rs: 2},
		alu(AluSub, 3, 2), // y - x
		alu(AluSub, 4, 1), // x - y
		{Op: OpCopy, Rd: 5, Rs: 1},
		alu(AluAdd, 6, 5), // x + x
		{Op: OpPass, Rs: 3}, {Op: OpPass, Rs: 4}, {Op: OpPass, Rs: 6},
	}
	got, err := NewMachine(&Mapped{Programs: []Program{prog}, NumInputs: 2, NumOutputs: 3}).
		Transform([][]int64{{10, 3}, {4, 7}})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int64{{-6, 4}, {6, -4}, {20, 6}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// RunVec allocates nothing: every lane buffer is sized by NewMachine.
func TestRunVecAllocatesNothing(t *testing.T) {
	ma := NewMachine(mustCompile(t, fig9Exprs(), 4, DefaultConfig()))
	in := laneValues(rand.New(rand.NewSource(1)), 4, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := ma.RunVec(in); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RunVec allocates %.1f times per call", allocs)
	}
}
