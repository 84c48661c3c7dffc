package engine

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/plan"
)

// joinFuzzRows are the left row counts the fuzzer picks from: empty,
// short, and the probe batch ± 1 and its double + 1, so some left sides
// end just inside or just past a FindCols batch; beyond them any count up
// to 2500.
var joinFuzzRows = []int{0, 1, 2, probeBatch - 1, probeBatch, probeBatch + 1, 2*probeBatch + 1}

// joinFuzzSpans are the per-column key spans: single values, runs with
// duplicates, and the spans whose product with the others lands the
// group table's direct-index box below, at or just past its 4096 cells
// (64·64, 16·16·16, 4096 alone, and one more). 0 stands for all of int64.
var joinFuzzSpans = []uint64{1, 3, 16, 17, 64, 65, 4095, 4096, 4097, 0}

// joinFuzzKeyCol fills a key column of n rows over [lo, lo+span) (span 0:
// any int64, the extremes among them). With edges the first two rows
// hold the span's ends, so the build sees its whole box.
func joinFuzzKeyCol(rng *rand.Rand, n int, lo int64, span uint64, edges bool) []int64 {
	vals := make([]int64, n)
	for i := range vals {
		switch {
		case span == 0 && rng.Intn(4) == 0:
			vals[i] = []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, math.MaxInt64}[rng.Intn(5)]
		case span == 0:
			vals[i] = int64(rng.Uint64())
		default:
			vals[i] = lo + int64(rng.Uint64()%span)
		}
	}
	if edges && span > 0 {
		for i := 0; i < min(n, 2); i++ {
			vals[i] = lo + int64(uint64(i)*(span-1))
		}
	}
	return vals
}

// joinFuzzSide materializes one join input: keys key columns named
// <prefix>k<c> and one small value column <prefix>v the extra predicate
// reads.
func joinFuzzSide(rng *rand.Rand, prefix string, n int, los []int64, spans []uint64, edges bool) *plan.Materialized {
	m := &plan.Materialized{Label: prefix}
	for c := range los {
		m.S = append(m.S, plan.Field{Name: fmt.Sprintf("%sk%d", prefix, c), Typ: col.Int64})
		m.Cols = append(m.Cols, joinFuzzKeyCol(rng, n, los[c], spans[c], edges))
	}
	m.S = append(m.S, plan.Field{Name: prefix + "v", Typ: col.Int64})
	v := make([]int64, n)
	for i := range v {
		v[i] = rng.Int63n(21) - 10
	}
	m.Cols = append(m.Cols, v)
	return m
}

// FuzzHostJoin holds the host join to a nested loop over its two
// materialized inputs: for every left row in order, the right rows in
// order whose keys equal its own and for which the extra predicate
// holds. Every join kind must emit the same rows in the same order, and
// the work counters and the modelled peak footprint must match what the
// join's accounting promises. The key spans and the left side's wider
// box make the group table keep, grow or drop its direct index during
// the build and again during the probe.
func FuzzHostJoin(f *testing.F) {
	// seed, key count, join kind, extra predicate, left rows, spans, flags
	f.Add(int64(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(1))
	f.Add(int64(3), uint8(2), uint8(2), uint8(2), uint8(4), uint8(4), uint8(3))
	f.Add(int64(4), uint8(3), uint8(3), uint8(0), uint8(5), uint8(2), uint8(2))
	f.Add(int64(5), uint8(1), uint8(0), uint8(1), uint8(6), uint8(7), uint8(1))
	f.Add(int64(6), uint8(2), uint8(3), uint8(2), uint8(4), uint8(9), uint8(5))
	f.Add(int64(7), uint8(1), uint8(2), uint8(0), uint8(5), uint8(8), uint8(7))
	f.Add(int64(8), uint8(3), uint8(1), uint8(1), uint8(9), uint8(3), uint8(4))
	f.Add(int64(9), uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add(int64(10), uint8(2), uint8(0), uint8(0), uint8(5), uint8(4), uint8(9))
	f.Add(int64(11), uint8(1), uint8(0), uint8(1), uint8(5), uint8(1), uint8(4))
	f.Add(int64(12), uint8(2), uint8(3), uint8(0), uint8(6), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, keyPick, kindPick, extraPick, rowPick, spanPick, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		keys, kind := int(keyPick)%4, plan.JoinKind(kindPick%4)
		nl := rng.Intn(2500)
		if int(rowPick) < len(joinFuzzRows) {
			nl = joinFuzzRows[rowPick]
		}
		nr := rng.Intn(300)
		if flags&1 != 0 {
			nr = []int{0, 1, 5}[rng.Intn(3)]
		}

		// Each key column has a span and a base: zero, negative, or the box
		// pressed against either end of int64. The left box is the build's,
		// or with flags a few cells wider at both ends.
		llos, rlos := make([]int64, keys), make([]int64, keys)
		lspans, rspans := make([]uint64, keys), make([]uint64, keys)
		cells := uint64(1)
		for c := range rlos {
			span := joinFuzzSpans[(int(spanPick)+c*rng.Intn(3))%len(joinFuzzSpans)]
			lspans[c], rspans[c] = span, span
			if flags&2 != 0 && span != 0 {
				lspans[c] = span + 1 + uint64(rng.Intn(4))
			}
			switch (flags >> 2) % 4 {
			case 1:
				llos[c] = -int64(lspans[c]) - rng.Int63n(5)
			case 2:
				llos[c] = math.MinInt64
			case 3:
				llos[c] = math.MaxInt64 - int64(lspans[c]-1)
			}
			rlos[c] = llos[c] + int64(lspans[c]-rspans[c])/2
			if span != 0 {
				cells *= span
			}
		}
		if cells <= 3 && kind != plan.SemiJoin && kind != plan.AntiJoin {
			nr = min(nr, 20) // nearly every pair matches
		}
		left := joinFuzzSide(rng, "l", nl, llos, lspans, false)
		right := joinFuzzSide(rng, "r", nr, rlos, rspans, flags&16 == 0)

		var extra plan.Expr
		switch extraPick % 3 {
		case 1:
			extra = plan.LT(plan.C("lv"), plan.C("rv"))
		case 2:
			extra = plan.NE(plan.C("lv"), plan.C("rv"))
		}
		holds := func(lr, rr int) bool {
			l, r := left.Cols[keys][lr], right.Cols[keys][rr]
			switch extraPick % 3 {
			case 1:
				return l < r
			case 2:
				return l != r
			}
			return true
		}
		j := &plan.Join{Kind: kind, L: left, R: right, Extra: extra}
		for c := 0; c < keys; c++ {
			j.LKeys = append(j.LKeys, left.S[c].Name)
			j.RKeys = append(j.RKeys, right.S[c].Name)
		}
		if err := plan.Bind(j, nil); keys == 0 {
			if err == nil {
				t.Fatal("a join with no key columns bound")
			}
			return
		} else if err != nil {
			t.Fatal(err)
		}

		e := New(nil)
		got, err := e.Run(j)
		if err != nil {
			t.Fatal(err)
		}

		want := make([][]int64, len(j.Schema()))
		emit := func(lr, rr int, matched int64) {
			c := 0
			for ; c < len(left.Cols); c++ {
				want[c] = append(want[c], left.Cols[c][lr])
			}
			if kind == plan.InnerJoin || kind == plan.LeftMarkJoin {
				for _, rc := range right.Cols {
					var v int64
					if rr >= 0 {
						v = rc[rr]
					}
					want[c] = append(want[c], v)
					c++
				}
			}
			if kind == plan.LeftMarkJoin {
				want[c] = append(want[c], matched)
			}
		}
		for lr := 0; lr < nl; lr++ {
			var matches []int
			for rr := 0; rr < nr; rr++ {
				eq := true
				for c := 0; c < keys; c++ {
					eq = eq && left.Cols[c][lr] == right.Cols[c][rr]
				}
				if eq && holds(lr, rr) {
					matches = append(matches, rr)
				}
			}
			switch {
			case kind == plan.SemiJoin && len(matches) > 0,
				kind == plan.AntiJoin && len(matches) == 0:
				emit(lr, -1, 0)
			case kind == plan.LeftMarkJoin && len(matches) == 0:
				emit(lr, -1, 0)
			case kind == plan.InnerJoin || kind == plan.LeftMarkJoin:
				for _, rr := range matches {
					emit(lr, rr, 1)
				}
			}
		}

		what := fmt.Sprintf("%s join, %d keys over %v from %v (left %v from %v), extra %v, %d x %d rows",
			kind, keys, rspans, rlos, lspans, llos, extra, nl, nr)
		for c := range want {
			if !slices.Equal(got.Cols[c], want[c]) {
				t.Fatalf("%s: column %s has %d values, want %d (first %v, want %v)", what,
					j.Schema()[c].Name, len(got.Cols[c]), len(want[c]),
					got.Cols[c][:min(8, len(got.Cols[c]))], want[c][:min(8, len(want[c]))])
			}
		}
		outRows := int64(0)
		if len(want) > 0 {
			outRows = int64(len(want[0]))
		}
		wantWork := map[string]int64{"join_build": int64(nr), "join_probe": int64(nl), "output": outRows}
		if !maps.Equal(e.Stats.Work, wantWork) {
			t.Fatalf("%s: work %v, want %v", what, e.Stats.Work, wantWork)
		}
		// Both inputs and the output are live together at the join's end.
		peak := 8 * (int64(nl)*int64(len(left.Cols)) + int64(nr)*int64(len(right.Cols)) +
			outRows*int64(len(want)))
		if e.Stats.PeakBytes != peak || e.Stats.CurBytes != 8*outRows*int64(len(want)) {
			t.Fatalf("%s: peak %d, live %d bytes, want %d and %d", what,
				e.Stats.PeakBytes, e.Stats.CurBytes, peak, 8*outRows*int64(len(want)))
		}
	})
}
