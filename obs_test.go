package aquoman

import (
	"encoding/json"
	"strings"
	"testing"

	"aquoman/internal/flash"
	"aquoman/internal/obs"
)

// TestObservabilityEndToEnd runs TPC-H q6 on an observed DB and checks
// that every pipeline stage produced at least one span and that the
// report's metrics delta carries the per-requester flash counters.
func TestObservabilityEndToEnd(t *testing.T) {
	db := Open()
	db.HeapScale = 100000 // model a big deployment so q6 offloads fully
	if err := db.LoadTPCH(0.001, 7); err != nil {
		t.Fatal(err)
	}
	o := db.EnableObservability()

	res, err := db.RunTPCH(6)
	if err != nil {
		t.Fatal(err)
	}

	// Spans: one per pipeline stage the query exercises.
	spans := o.Tracer.Spans()
	byStage := make(map[string]int)
	for _, s := range spans {
		byStage[s.Stage]++
		if s.Dur < 0 {
			t.Fatalf("span %q negative duration", s.Name)
		}
	}
	for _, stage := range []string{
		obs.StageQuery, obs.StageCompile, obs.StageUnit, obs.StageTask,
		obs.StageRowSel, obs.StageFlash, obs.StageTransform,
		obs.StageSwissknife, obs.StageHost,
	} {
		if byStage[stage] == 0 {
			t.Fatalf("no span for stage %q (got %v)", stage, byStage)
		}
	}

	// The Chrome export of those spans must be valid JSON.
	if out := o.Tracer.ChromeTrace(); !json.Valid(out) {
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

	// A second query must see only its own delta.
	res2, err := db.RunTPCH(6)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := res2.Report.Metrics.Get("core_queries_total")
	if p2.Value != 1 {
		t.Fatalf("second query's delta counts %d queries, want 1", p2.Value)
	}
}

// TestTraceFacade checks Request.Trace: a one-shot tracer independent of
// the installed observer.
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
	if !strings.Contains(tree, "[query]") {
		t.Fatalf("tree lacks query span:\n%s", tree)
	}
}
