package tpch

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/core"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/plan"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.golden")

const ledgerGolden = "testdata/ledger.golden"

// ledgerModes are the three ways a query runs: fused offload, staged
// offload and host only.
var ledgerModes = []struct {
	name string
	cfg  core.Config
}{
	{"fused", core.Config{}},
	{"staged", core.Config{DisableFusion: true}},
	{"host", core.Config{DisableOffload: true}},
}

// TestWorkLedger holds every counter of every query golden: each Table
// Task's trace, the host engine's work by kind, the accelerator DRAM
// peak, the offload verdict and fraction, and the device pages read per
// requester. The 22 queries run at SF 0.01 fused, staged and host only,
// each over a raw and an auto-encoded store on an uncached device, so
// the page counts are the device's own. A change that moves work shows
// as a diff of testdata/ledger.golden; `go test ./internal/tpch -run
// TestWorkLedger -update` rewrites it.
func TestWorkLedger(t *testing.T) {
	var buf bytes.Buffer
	for _, st := range []struct {
		name string
		sel  enc.Selection
	}{{"raw", enc.SelRaw}, {"auto", enc.SelAuto}} {
		s := col.NewStore(flash.NewDevice())
		s.DefaultEncoding = st.sel
		if err := Gen(s, Config{SF: 0.01, Seed: 42}); err != nil {
			t.Fatalf("%s store: %v", st.name, err)
		}
		for _, m := range ledgerModes {
			for _, q := range ledgerQueries() {
				n := q.build()
				if err := plan.Bind(n, s); err != nil {
					t.Fatalf("%s bind: %v", q.name, err)
				}
				cfg := m.cfg
				cfg.DRAMBytes = mem.DefaultCapacity
				cfg.Compiler = compiler.Config{HeapScale: 1}
				_, rep, err := core.New(s, cfg).RunQuery(n)
				if err != nil {
					t.Fatalf("%s %s %s: %v", st.name, m.name, q.name, err)
				}
				fmt.Fprintf(&buf, "== %s %s %s\n", st.name, m.name, q.name)
				writeLedger(&buf, rep)
			}
		}
	}
	got := buf.Bytes()
	if *updateLedger {
		if err := os.MkdirAll(filepath.Dir(ledgerGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("work ledger differs from %s (rerun with -update and review the diff):\n%s",
			ledgerGolden, firstDiff(string(want), string(got)))
	}
}

// ledgerQuery is one ledger entry: a name and the plan it runs.
type ledgerQuery struct {
	name  string
	build func() plan.Node
}

// ledgerQueries are the 22 TPC-H queries, then a range scan on the
// clustered l_orderkey: no TPC-H query prunes a page at SF 0.01, and the
// range's zone maps prune every l_orderkey page outside it on the
// encoded store.
func ledgerQueries() []ledgerQuery {
	var qs []ledgerQuery
	for _, q := range Queries() {
		qs = append(qs, ledgerQuery{fmt.Sprintf("q%d", q.Num), q.Build})
	}
	return append(qs, ledgerQuery{"range", rangeScan})
}

// rangeScan sums a key range of lineitem as one offloaded AGGREGATE, the
// predicate on l_orderkey first so that the later columns skip the pages
// the range masks out.
func rangeScan() plan.Node {
	return &plan.GroupBy{
		Input: &plan.Filter{
			Input: scan("lineitem", "l_orderkey", "l_extendedprice", "l_quantity", "l_discount"),
			Pred: plan.And(
				plan.GE(plan.C("l_orderkey"), plan.I(20000)),
				plan.LT(plan.C("l_orderkey"), plan.I(24000)),
				plan.GE(plan.C("l_discount"), plan.Dec("0.02")),
			),
		},
		Aggs: []plan.AggSpec{
			{Func: plan.AggSum, Name: "price", E: plan.C("l_extendedprice"), Typ: col.Decimal},
			{Func: plan.AggSum, Name: "qty", E: plan.C("l_quantity"), Typ: col.Decimal},
		},
	}
}

// writeLedger prints one query's counters, map keys in sorted order.
func writeLedger(buf *bytes.Buffer, rep *core.Report) {
	for _, tt := range rep.AquomanTrace.Tasks {
		fmt.Fprintf(buf, "task %+v\n", tt)
	}
	kinds := make([]string, 0, len(rep.HostStats.Work))
	for k := range rep.HostStats.Work {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	buf.WriteString("work")
	for _, k := range kinds {
		fmt.Fprintf(buf, " %s=%d", k, rep.HostStats.Work[k])
	}
	buf.WriteByte('\n')
	fmt.Fprintf(buf, "dram_peak=%d fully_offloaded=%v offload_fraction=%v\n",
		rep.DRAMPeak, rep.FullyOffloaded, rep.OffloadFraction)
	fmt.Fprintf(buf, "device pages_read=%v pages_read_random=%v\n",
		rep.Flash.PagesRead, rep.Flash.PagesReadRandom)
}

// firstDiff returns the first differing line of two ledgers with the
// query header above it.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	head := ""
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if strings.HasPrefix(g, "== ") {
			head = g
		}
		if w != g {
			return fmt.Sprintf("%s\nline %d:\n- %s\n+ %s", head, i+1, w, g)
		}
	}
	return ""
}
