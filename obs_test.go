package aquoman

import (
	"encoding/json"
	"strings"
	"testing"

	"aquoman/internal/flash"
	"aquoman/internal/obs"
)

// TestObservabilityEndToEnd runs TPC-H q6 on an observed DB with
// Request.Trace and checks that every pipeline stage produced at least one
// span — in the query's own recorder, nowhere else — and that the report's
// metrics delta carries the per-requester flash counters.
func TestObservabilityEndToEnd(t *testing.T) {
	db := Open()
	db.HeapScale = 100000 // model a big deployment so q6 offloads fully
	if err := db.LoadTPCH(0.001, 7); err != nil {
		t.Fatal(err)
	}
	db.EnableObservability()

	db.DisableFusion = true // the staged path names every stage's span
	res, err := db.Do(nil, Request{TPCH: 6, Trace: true})
	if err != nil {
		t.Fatal(err)
	}

	// Spans: one per pipeline stage the query exercises, structural ones
	// (query, unit, task) charged to host.
	byName := make(map[string]obs.State)
	for _, s := range res.Trace.Spans() {
		byName[strings.SplitN(s.Name, " ", 2)[0]] = s.State
		if s.Dur < 0 {
			t.Fatalf("span %q negative duration", s.Name)
		}
	}
	for name, state := range map[string]obs.State{
		"query": obs.StateHost, "compile": obs.StateCompile, "unit": obs.StateHost,
		"task": obs.StateHost, "row-select": obs.StateRowSel, "table-read": obs.StateRead,
		"transform": obs.StateSystolic, "swissknife": obs.StateSwissknife, "host-plan": obs.StateHost,
	} {
		if got, ok := byName[name]; !ok || got != state {
			t.Fatalf("span %q: state %v (present %v), want %v (got %v)", name, got, ok, state, byName)
		}
	}
	if tree := res.Trace.Tree(); !strings.Contains(tree, "rows_in=") || !strings.Contains(tree, "pages_read=") {
		t.Fatalf("tree lacks the task's attributes:\n%s", tree)
	}

	// The Chrome export of those spans must be valid JSON.
	if out := res.Trace.ChromeTrace(); !json.Valid(out) {
		t.Fatalf("ChromeTrace invalid JSON:\n%s", out)
	}

	// Report.Metrics: the query's registry delta with flash counters.
	m := res.Report.Metrics
	if m == nil {
		t.Fatal("Report.Metrics is nil with observability enabled")
	}
	p, ok := m.Get("flash_pages_read_total", "requester", "aquoman")
	if !ok || p.Value <= 0 {
		t.Fatalf("aquoman flash pages in delta = %+v, %v", p, ok)
	}
	if p.Value != res.Report.Flash.PagesRead[flash.Aquoman] {
		t.Fatalf("metrics delta %d != report flash stats %d",
			p.Value, res.Report.Flash.PagesRead[flash.Aquoman])
	}
	if _, ok := m.Get("flash_pages_read_total", "requester", "host"); !ok {
		t.Fatal("host flash counter missing from delta")
	}
	if p, ok := m.Get("tabletask_rows_in_total"); !ok || p.Value <= 0 {
		t.Fatalf("tabletask rows in delta = %+v, %v", p, ok)
	}
	if !strings.Contains(m.Prometheus(), `flash_pages_read_total{requester="aquoman"}`) {
		t.Fatal("prometheus rendering lacks per-requester flash counter")
	}

	// A second query must see only its own delta, and — not asked to
	// trace — keeps no spans.
	res2, err := db.RunTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := res2.Report.Metrics.Get("core_queries_total")
	if p2.Value != 1 {
		t.Fatalf("second query's delta counts %d queries, want 1", p2.Value)
	}
	if res2.Trace != nil {
		t.Fatal("an untraced query returned a trace")
	}
}

// TestTraceFacade checks Request.Trace with no observer installed: the
// query's own recorder comes back with its spans.
func TestTraceFacade(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.001, 7); err != nil {
		t.Fatal(err)
	}
	p, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Do(nil, Request{Plan: p, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("no spans recorded")
	}
	tree := tr.Tree()
	if !strings.HasPrefix(tree, "query [host]") || !strings.Contains(tree, "fused-scan [host]") {
		t.Fatalf("tree lacks query span:\n%s", tree)
	}
}
