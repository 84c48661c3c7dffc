package swissknife

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"aquoman/internal/sorter"
)

func TestGroupBySimple(t *testing.T) {
	g, err := NewGroupBy(GroupByConfig{}, 1, 0, []AggKind{AggSum, AggCnt, AggMin, AggMax})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := int64(i % 3)
		if err := g.Consume([]int64{k}, nil, []int64{int64(i), 0, int64(i), int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rows := g.Results()
	if len(rows) != 3 {
		t.Fatalf("groups = %d", len(rows))
	}
	// Group 0: values 0,3,...,99 => sum 1683, cnt 34, min 0, max 99.
	for _, r := range rows {
		switch r[0] {
		case 0:
			if r[1] != 1683 || r[2] != 34 || r[3] != 0 || r[4] != 99 {
				t.Fatalf("group 0 = %v", r)
			}
		case 1:
			if r[2] != 33 || r[3] != 1 || r[4] != 97 {
				t.Fatalf("group 1 = %v", r)
			}
		}
	}
	s := g.Stats()
	if s.RowsIn != 100 || s.Groups != 3 || s.SpilledRows != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGroupBySpillOnBucketOverflow(t *testing.T) {
	g, err := NewGroupBy(GroupByConfig{Buckets: 4}, 1, 0, []AggKind{AggCnt})
	if err != nil {
		t.Fatal(err)
	}
	// 100 distinct groups vs 4 buckets: most rows spill, results exact.
	for i := 0; i < 200; i++ {
		if err := g.Consume([]int64{int64(i % 100)}, nil, []int64{0}); err != nil {
			t.Fatal(err)
		}
	}
	rows := g.Results()
	if len(rows) != 100 {
		t.Fatalf("groups = %d, want 100 (exact despite spill)", len(rows))
	}
	for _, r := range rows {
		if r[1] != 2 {
			t.Fatalf("group %d count = %d", r[0], r[1])
		}
	}
	s := g.Stats()
	if s.SpilledGroups < 96 {
		t.Fatalf("SpilledGroups = %d, want >= 96", s.SpilledGroups)
	}
	if s.SpilledRows < 96*2 {
		t.Fatalf("SpilledRows = %d", s.SpilledRows)
	}
}

func TestGroupByIdentifierOverflowSpills(t *testing.T) {
	// 5 key columns exceed the 16 B identifier: every group spills.
	g, err := NewGroupBy(GroupByConfig{}, 5, 0, []AggKind{AggCnt})
	if err != nil {
		t.Fatal(err)
	}
	g.Consume([]int64{1, 2, 3, 4, 5}, nil, []int64{0})
	if got := g.Stats().SpilledRows; got != 1 {
		t.Fatalf("SpilledRows = %d, want 1", got)
	}
	// A 64-bit key value also overflows the 4 B packing.
	g2, _ := NewGroupBy(GroupByConfig{}, 1, 0, []AggKind{AggCnt})
	g2.Consume([]int64{1 << 40}, nil, []int64{0})
	if got := g2.Stats().SpilledRows; got != 1 {
		t.Fatalf("wide-key SpilledRows = %d, want 1", got)
	}
}

func TestGroupByDependentAttributes(t *testing.T) {
	g, err := NewGroupBy(GroupByConfig{}, 1, 2, []AggKind{AggSum})
	if err != nil {
		t.Fatal(err)
	}
	g.Consume([]int64{7}, []int64{70, 700}, []int64{1})
	g.Consume([]int64{7}, []int64{70, 700}, []int64{2})
	rows := g.Results()
	if len(rows) != 1 || rows[0][1] != 70 || rows[0][2] != 700 || rows[0][3] != 3 {
		t.Fatalf("rows = %v", rows)
	}
	// Non-dependent attribute must be detected.
	if err := g.Consume([]int64{7}, []int64{71, 700}, []int64{1}); err == nil {
		t.Fatal("non-dependent attribute accepted")
	}
}

func TestGroupByTooManyAggs(t *testing.T) {
	if _, err := NewGroupBy(GroupByConfig{}, 1, 0, make([]AggKind, 9)); err == nil {
		t.Fatal("9 aggregates accepted")
	}
}

func TestAggregateScalar(t *testing.T) {
	a, err := NewAggregate([]AggKind{AggSum, AggMin, AggMax, AggCnt})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{5, -3, 10} {
		a.Consume([]int64{v, v, v, 0})
	}
	aggs := a.Result()
	if aggs[0] != 12 || aggs[1] != -3 || aggs[2] != 10 || aggs[3] != 3 {
		t.Fatalf("aggs = %v", aggs)
	}
	if s := a.Stats(); s.RowsIn != 3 || s.Groups != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAggregateEmpty(t *testing.T) {
	a, _ := NewAggregate([]AggKind{AggSum, AggCnt})
	aggs := a.Result()
	if len(aggs) != 2 || aggs[0] != 0 || aggs[1] != 0 {
		t.Fatalf("empty aggs = %v", aggs)
	}
}

func TestTopKExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vals := rng.Perm(1000)
	tk := NewTopK(10, 8)
	for _, v := range vals {
		tk.Push(sorter.KV{Key: int64(v), Val: int64(v) * 2})
	}
	got := tk.Results()
	if len(got) != 10 {
		t.Fatalf("len = %d", len(got))
	}
	for i, kv := range got {
		want := int64(999 - i)
		if kv.Key != want || kv.Val != want*2 {
			t.Fatalf("got[%d] = %+v, want key %d", i, kv, want)
		}
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10, 4)
	tk.Push(sorter.KV{Key: 3, Val: 1})
	tk.Push(sorter.KV{Key: 1, Val: 2})
	got := tk.Results()
	if len(got) != 2 || got[0].Key != 3 || got[1].Key != 1 {
		t.Fatalf("got = %v", got)
	}
}

// Property: TopK matches a reference sort for arbitrary streams and k.
func TestQuickTopK(t *testing.T) {
	f := func(seed int64, k8, n16 uint8) bool {
		k := int(k8)%50 + 1
		n := int(n16)
		rng := rand.New(rand.NewSource(seed))
		tk := NewTopK(k, 8)
		all := make([]sorter.KV, n)
		for i := range all {
			all[i] = sorter.KV{Key: int64(rng.Intn(100)), Val: int64(i)}
			tk.Push(all[i])
		}
		sort.Slice(all, func(i, j int) bool { return all[j].Less(all[i]) })
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := tk.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSemiJoinSorted(t *testing.T) {
	stream := []sorter.KV{{Key: 1, Val: 10}, {Key: 2, Val: 20}, {Key: 2, Val: 21},
		{Key: 5, Val: 50}, {Key: 9, Val: 90}}
	dim := []sorter.KV{{Key: 2, Val: 0}, {Key: 3, Val: 0}, {Key: 9, Val: 0}}
	got := SemiJoinSorted(stream, dim)
	want := []int64{20, 21, 90}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i].Val != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

// Property: SemiJoinSorted equals the set-membership reference.
func TestQuickSemiJoin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var stream, dim []sorter.KV
		for i := 0; i < rng.Intn(60); i++ {
			stream = append(stream, sorter.KV{Key: int64(rng.Intn(30)), Val: int64(i)})
		}
		inDim := map[int64]bool{}
		for i := 0; i < rng.Intn(20); i++ {
			k := int64(rng.Intn(30))
			if !inDim[k] {
				inDim[k] = true
				dim = append(dim, sorter.KV{Key: k})
			}
		}
		sort.Slice(stream, func(i, j int) bool { return stream[i].Less(stream[j]) })
		sort.Slice(dim, func(i, j int) bool { return dim[i].Less(dim[j]) })
		got := SemiJoinSorted(stream, dim)
		var want []sorter.KV
		for _, kv := range stream {
			if inDim[kv.Key] {
				want = append(want, kv)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestTableDirectIndex holds the table to a map handing out first-seen
// ids: each scenario feeds its tuples through Find and through FindCols,
// and checks the ids, the keys and whether the direct index is still on
// at the end.
func TestTableDirectIndex(t *testing.T) {
	seq := func(n int, f func(i int) []int64) [][]int64 {
		var ks [][]int64
		for i := 0; i < n; i++ {
			ks = append(ks, f(i))
		}
		return ks
	}
	rng := rand.New(rand.NewSource(3))
	cases := []struct {
		name   string
		width  int
		tuples [][]int64
		direct bool
	}{
		{"zero-width", 0, seq(5, func(int) []int64 { return nil }), true},
		{"q1-like", 2, seq(500, func(int) []int64 { return []int64{int64(rng.Intn(3)), int64(rng.Intn(2))} }), true},
		{"ascending-to-bound", 1, seq(directCells, func(i int) []int64 { return []int64{int64(i) - 7} }), true},
		{"descending-past-bound", 1, seq(directCells+1, func(i int) []int64 { return []int64{-int64(i)} }), false},
		{"square-at-bound", 2, seq(directCells, func(i int) []int64 { return []int64{int64(i % 64), int64(i / 64)} }), true},
		{"square-past-bound", 2, seq(directCells+64, func(i int) []int64 { return []int64{int64(i % 64), int64(i / 64)} }), false},
		{"max-edge", 3, seq(300, func(int) []int64 {
			return []int64{math.MaxInt64 - int64(rng.Intn(4)), math.MinInt64 + int64(rng.Intn(4)), int64(rng.Intn(4)) - 2}
		}), true},
		{"min-edge-down-then-up", 1, append(seq(11, func(i int) []int64 { return []int64{math.MinInt64 + 10 - int64(i)} }),
			[]int64{math.MinInt64 + 40}), true},
		{"max-edge-up-then-down", 2, append(seq(11, func(i int) []int64 { return []int64{math.MaxInt64 - 10 + int64(i), 0} }),
			[]int64{math.MaxInt64 - 40, 1}), true},
		{"both-edges", 1, seq(10, func(i int) []int64 { return []int64{[]int64{math.MinInt64, math.MaxInt64}[i%2]} }), false},
		{"drift", 4, seq(3000, func(i int) []int64 {
			return []int64{int64(i / 300), int64(rng.Intn(2)), -int64(i / 1000), int64(rng.Intn(3))}
		}), true},
	}
	for _, c := range cases {
		for _, cols := range []bool{false, true} {
			tab, ids := NewTable(c.width), map[string]int32{}
			got, want := make([]int32, len(c.tuples)), make([]int32, len(c.tuples))
			wantKeys := make([][]int64, c.width)
			for i, tu := range c.tuples {
				id, ok := ids[fmt.Sprint(tu)]
				if !ok {
					id = int32(len(ids))
					ids[fmt.Sprint(tu)] = id
					for k := range wantKeys {
						wantKeys[k] = append(wantKeys[k], tu[k])
					}
				}
				want[i] = id
			}
			if cols {
				kc := make([][]int64, c.width)
				for _, tu := range c.tuples {
					for i := range kc {
						kc[i] = append(kc[i], tu[i])
					}
				}
				tab.FindCols(kc, nil, 0, got)
			} else {
				for i, tu := range c.tuples {
					got[i], _ = tab.Find(tu)
				}
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(tab.Keys(), wantKeys) {
				t.Errorf("%s (FindCols %v): ids or keys differ from the model", c.name, cols)
			}
			if on := tab.dense != nil; on != c.direct {
				t.Errorf("%s (FindCols %v): direct index on = %v, want %v", c.name, cols, on, c.direct)
			}
		}
	}
}
