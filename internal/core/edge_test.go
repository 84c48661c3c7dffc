package core

import (
	"strings"
	"testing"

	"aquoman/internal/compiler"
	"aquoman/internal/mem"
	"aquoman/internal/plan"
	"aquoman/internal/swissknife"
	"aquoman/internal/tabletask"
	"aquoman/internal/tpch"
)

// Offloaded queries with empty results behave like the host.
func TestEmptyResultOffloaded(t *testing.T) {
	s := sharedStore(t)
	build := func() plan.Node {
		return &plan.GroupBy{
			Input: &plan.Filter{
				Input: &plan.Scan{Table: "lineitem", Cols: []string{"l_orderkey", "l_quantity"}},
				Pred:  plan.GT(plan.C("l_quantity"), plan.I(1<<40)), // selects nothing
			},
			Keys: []string{"l_orderkey"},
			Aggs: []plan.AggSpec{{Func: plan.AggSum, Name: "q", E: plan.C("l_quantity")}},
		}
	}
	for _, host := range []bool{true, false} {
		n := build()
		if err := plan.Bind(n, s); err != nil {
			t.Fatal(err)
		}
		dev := New(s, Config{DisableOffload: host, DRAMBytes: mem.DefaultCapacity})
		b, rep, err := dev.RunQuery(n)
		if err != nil {
			t.Fatal(err)
		}
		if b.NumRows() != 0 {
			t.Fatalf("host=%v rows=%d", host, b.NumRows())
		}
		if !host && len(rep.Units) != 1 {
			t.Fatalf("empty-result query did not offload: %v", rep.Notes)
		}
	}
}

// An empty scalar aggregate yields one row of zeros on both paths.
func TestEmptyScalarAggregateOffloaded(t *testing.T) {
	s := sharedStore(t)
	n := &plan.GroupBy{
		Input: &plan.Filter{
			Input: &plan.Scan{Table: "lineitem", Cols: []string{"l_quantity"}},
			Pred:  plan.GT(plan.C("l_quantity"), plan.I(1<<40)),
		},
		Aggs: []plan.AggSpec{
			{Func: plan.AggSum, Name: "s", E: plan.C("l_quantity")},
			{Func: plan.AggCount, Name: "n"},
		},
	}
	if err := plan.Bind(n, s); err != nil {
		t.Fatal(err)
	}
	b, rep, err := New(s, Config{DRAMBytes: mem.DefaultCapacity}).RunQuery(n)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 1 || b.Cols[0][0] != 0 || b.Cols[1][0] != 0 {
		t.Fatalf("scalar over empty = %v rows", b.NumRows())
	}
	if len(rep.Units) != 1 {
		t.Fatalf("not offloaded: %v", rep.Notes)
	}
}

// Tiny group-by buckets force heavy spill-over but results stay exact.
func TestTinyBucketsStillExact(t *testing.T) {
	s := sharedStore(t)
	def, _ := tpch.Get(1)
	host := def.Build()
	if err := plan.Bind(host, s); err != nil {
		t.Fatal(err)
	}
	want, _, err := New(s, Config{DisableOffload: true}).RunQuery(host)
	if err != nil {
		t.Fatal(err)
	}
	off := def.Build()
	if err := plan.Bind(off, s); err != nil {
		t.Fatal(err)
	}
	dev := New(s, Config{
		DRAMBytes: mem.DefaultCapacity,
		Compiler: compiler.Config{HeapScale: 100_000,
			GroupCfg: swissknife.GroupByConfig{Buckets: 2}},
	})
	got, rep, err := dev.RunQuery(off)
	if err != nil {
		t.Fatal(err)
	}
	spilled := rep.AquomanTrace.Total(func(tt *tabletask.TaskTrace) int64 { return tt.SpilledRows })
	if spilled == 0 {
		t.Fatal("2 buckets for 4 groups must spill")
	}
	hc, oc := canonical(want), canonical(got)
	for i := range hc {
		if hc[i] != oc[i] {
			t.Fatalf("spilled group-by diverged at row %d", i)
		}
	}
}

// The same device runs queries back to back; DRAM intermediates from the
// previous query must be gone. Every query ends by resetting the DRAM's
// high-water mark, so Peak is then the bytes left resident: only the
// persistent gather caches, filled in the first round. A leaked
// intermediate would grow them, or, were its name reused, fail the next
// round's allocation and suspend a query the first round ran offloaded.
func TestSequentialQueriesReuseDevice(t *testing.T) {
	s := sharedStore(t)
	dev := New(s, Config{DRAMBytes: mem.DefaultCapacity,
		Compiler: compiler.Config{HeapScale: 100_000}})
	var resident int64
	suspended := map[int]bool{}
	for round := 0; round < 3; round++ {
		for _, q := range []int{3, 6, 4} {
			def, _ := tpch.Get(q)
			n := def.Build()
			if err := plan.Bind(n, s); err != nil {
				t.Fatal(err)
			}
			_, rep, err := dev.RunQuery(n)
			if err != nil {
				t.Fatalf("round %d q%d: %v", round, q, err)
			}
			if round == 0 {
				suspended[q] = rep.Suspended
			} else if rep.Suspended != suspended[q] {
				t.Fatalf("round %d q%d: suspended %v, first round %v (%s)",
					round, q, rep.Suspended, suspended[q], rep.SuspendReason)
			}
		}
		if round == 0 {
			resident = dev.DRAM.Peak()
		} else if got := dev.DRAM.Peak(); got != resident {
			t.Fatalf("round %d leaves %d DRAM bytes resident, the first round %d", round, got, resident)
		}
	}
}

// Host-only runs never touch AQUOMAN state.
func TestHostOnlyReport(t *testing.T) {
	s := sharedStore(t)
	def, _ := tpch.Get(6)
	n := def.Build()
	if err := plan.Bind(n, s); err != nil {
		t.Fatal(err)
	}
	_, rep, err := New(s, Config{DisableOffload: true}).RunQuery(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Units) != 0 || rep.OffloadFraction != 0 || len(rep.AquomanTrace.Tasks) != 0 {
		t.Fatalf("host-only report shows accelerator activity: %+v", rep)
	}
	if rep.HostStats.Work["scan"] == 0 {
		t.Fatal("host work not tracked")
	}
}

// The unit-level suspension keeps completed units' offloaded results.
func TestPartialSuspensionKeepsCompletedUnits(t *testing.T) {
	s := sharedStore(t)
	// q17 has two units (part-filter rows + avg-qty group-by). Give the
	// device just enough DRAM for the cache/columns of one but not the
	// other by running with a small budget; whatever suspends, results
	// must match the host.
	def, _ := tpch.Get(17)
	host := def.Build()
	if err := plan.Bind(host, s); err != nil {
		t.Fatal(err)
	}
	want, _, err := New(s, Config{DisableOffload: true}).RunQuery(host)
	if err != nil {
		t.Fatal(err)
	}
	off := def.Build()
	if err := plan.Bind(off, s); err != nil {
		t.Fatal(err)
	}
	dev := New(s, Config{DRAMBytes: 1 << 12,
		Compiler: compiler.Config{HeapScale: 100_000}})
	got, rep, err := dev.RunQuery(off)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep
	hc, oc := canonical(want), canonical(got)
	for i := range hc {
		if hc[i] != oc[i] {
			t.Fatalf("suspended q17 diverged")
		}
	}
}

// With the store's actual (small) heaps, LIKE predicates run on the regex
// accelerator in storage and must match host execution.
func TestRegexAcceleratorEndToEnd(t *testing.T) {
	s := sharedStore(t)
	build := func() plan.Node {
		return &plan.GroupBy{
			Input: &plan.Filter{
				Input: &plan.Scan{Table: "part", Cols: []string{"p_partkey", "p_name", "p_retailprice"}},
				Pred: plan.And(
					plan.Like{Col: "p_name", Pattern: "%green%"},
					plan.GT(plan.C("p_retailprice"), plan.I(0)),
				),
			},
			Aggs: []plan.AggSpec{
				{Func: plan.AggCount, Name: "n"},
				{Func: plan.AggSum, Name: "v", E: plan.C("p_retailprice")},
			},
		}
	}
	hostPlan := build()
	if err := plan.Bind(hostPlan, s); err != nil {
		t.Fatal(err)
	}
	want, _, err := New(s, Config{DisableOffload: true}).RunQuery(hostPlan)
	if err != nil {
		t.Fatal(err)
	}
	offPlan := build()
	if err := plan.Bind(offPlan, s); err != nil {
		t.Fatal(err)
	}
	// HeapScale 1: the SF-0.01 heap fits the accelerator cache.
	dev := New(s, Config{DRAMBytes: mem.DefaultCapacity, Compiler: compiler.Config{HeapScale: 1}})
	got, rep, err := dev.RunQuery(offPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Units) != 1 {
		t.Fatalf("regex query did not offload: %v", rep.Notes)
	}
	if want.Cols[0][0] != got.Cols[0][0] || want.Cols[1][0] != got.Cols[1][0] {
		t.Fatalf("regex results differ: host (%d,%d) vs aquoman (%d,%d)",
			want.Cols[0][0], want.Cols[1][0], got.Cols[0][0], got.Cols[1][0])
	}
	if want.Cols[0][0] == 0 {
		t.Fatal("no green parts; generator broken")
	}
}

// LIMIT k ORDER BY over a filtered scan offloads to the TOPK accelerator
// and must agree with the host (modulo tie order, hence canonical rows).
func TestTopKOffloadEndToEnd(t *testing.T) {
	s := sharedStore(t)
	build := func(desc bool) plan.Node {
		return &plan.Limit{N: 7, Input: &plan.OrderBy{
			Keys: []plan.OrderKey{{Name: "l_extendedprice", Desc: desc}},
			Input: &plan.Filter{
				Input: &plan.Scan{Table: "lineitem",
					Cols: []string{"l_orderkey", "l_extendedprice", "l_quantity"}},
				Pred: plan.LT(plan.C("l_quantity"), plan.I(500)),
			},
		}}
	}
	for _, desc := range []bool{true, false} {
		hostPlan := build(desc)
		if err := plan.Bind(hostPlan, s); err != nil {
			t.Fatal(err)
		}
		want, _, err := New(s, Config{DisableOffload: true}).RunQuery(hostPlan)
		if err != nil {
			t.Fatal(err)
		}
		offPlan := build(desc)
		if err := plan.Bind(offPlan, s); err != nil {
			t.Fatal(err)
		}
		dev := New(s, Config{DRAMBytes: mem.DefaultCapacity,
			Compiler: compiler.Config{HeapScale: 100_000}})
		got, rep, err := dev.RunQuery(offPlan)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Units) != 1 || !strings.Contains(rep.Units[0], "topk") {
			t.Fatalf("desc=%v: units = %v (notes %v)", desc, rep.Units, rep.Notes)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("desc=%v rows: %d vs %d", desc, got.NumRows(), want.NumRows())
		}
		// The key column must match positionally (ties may reorder other
		// columns).
		ki := want.Schema.Index("l_extendedprice")
		for r := 0; r < want.NumRows(); r++ {
			if got.Cols[ki][r] != want.Cols[ki][r] {
				t.Fatalf("desc=%v row %d key %d vs %d", desc, r, got.Cols[ki][r], want.Cols[ki][r])
			}
		}
	}
}
