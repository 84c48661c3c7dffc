package rowsel_test

import (
	"fmt"
	"testing"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/rowsel"
	"aquoman/internal/systolic"
	"aquoman/internal/tpch"
)

// TestComparatorMatchesMachine holds the Column Predicate Evaluator to
// the lowered kernel on every Row Selection predicate the compiler emits
// for the 22 TPC-H queries: over a raw store and stores that encode every
// column FOR or RLE (and dict or auto), EvalVec's keep word must equal the
// one the Machine computes from the same vector's values, vector by
// vector. The queries whose predicates are all comparisons against
// constants must take the comparator on every non-dictionary column.
func TestComparatorMatchesMachine(t *testing.T) {
	byCodec := map[string]int{} // comparator vectors compared, by codec
	allIntervals := map[int]bool{1: true, 3: true, 4: true, 5: true, 6: true, 7: true, 8: true,
		10: true, 14: true, 15: true, 20: true}
	for _, sel := range []enc.Selection{enc.SelRaw, enc.SelFOR, enc.SelRLE, enc.SelDict, enc.SelAuto} {
		s := col.NewStore(flash.NewDevice())
		s.DefaultEncoding = sel
		if err := tpch.Gen(s, tpch.Config{SF: 0.005, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.Queries() {
			n := q.Build()
			if err := plan.Bind(n, s); err != nil {
				t.Fatal(err)
			}
			res, err := compiler.Compile(n, s, compiler.Config{HeapScale: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range res.Units {
				for _, task := range u.Tasks {
					if task.RowSel == nil {
						continue
					}
					tab, err := s.Table(task.Table)
					if err != nil {
						t.Fatal(err)
					}
					for _, cp := range task.RowSel.Preds {
						ci, err := tab.Column(cp.Column)
						if err != nil {
							t.Fatal(err)
						}
						name := fmt.Sprintf("%v q%d %s.%s %s", sel, q.Num, task.Table, cp.Column, cp.Expr)
						_, ok := systolic.TruthInterval(cp.Expr)
						if !ok && allIntervals[q.Num] {
							t.Errorf("%s: no truth interval", name)
						}
						n := compareKeepWords(t, name, ci, cp.Expr)
						if ok {
							codec := "raw"
							if ci.Enc != nil {
								codec = ci.Enc.Codec.String()
							}
							byCodec[codec] += n
						}
					}
				}
			}
		}
	}
	for _, codec := range []string{"raw", enc.FOR.String(), enc.RLE.String()} {
		if byCodec[codec] == 0 {
			t.Errorf("no %s vector went through the comparator: %v", codec, byCodec)
		}
	}
}

// compareKeepWords checks EvalVec against the Machine on every vector of
// one column and returns how many vectors it compared.
func compareKeepWords(t *testing.T, name string, ci *col.ColumnInfo, expr systolic.Expr) int {
	t.Helper()
	var ev rowsel.VecEvaluator
	if err := ev.Init(expr, ci.Enc); err != nil {
		return 0 // the PE ISA rejects it: the unit runs on the host
	}
	mapped, err := systolic.Compile([]systolic.Expr{expr}, 1, systolic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := systolic.NewMachine(mapped)
	evRd, valRd := col.NewPagedReader(ci, flash.Aquoman), col.NewPagedReader(ci, flash.Aquoman)
	defer evRd.Close()
	defer valRd.Close()
	mask := bitvec.NewFull(ci.NumRows())
	vals := make([]int64, bitvec.VecSize)
	for vec := 0; vec < mask.NumVecs(); vec++ {
		if err := ev.EvalVec(evRd, vec, mask); err != nil {
			t.Fatal(err)
		}
		n, err := valRd.ReadVec(vec, vals)
		if err != nil {
			t.Fatal(err)
		}
		out, err := m.RunVec([][]int64{vals[:n]})
		if err != nil {
			t.Fatal(err)
		}
		var want uint32
		for j, v := range out[0] {
			if v != 0 {
				want |= 1 << uint(j)
			}
		}
		if got := mask.VecBits(vec); got != want {
			t.Fatalf("%s vector %d: keep %032b, the Machine's %032b", name, vec, got, want)
		}
	}
	return mask.NumVecs()
}
