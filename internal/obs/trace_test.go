package obs

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// buildFixture stores a small representative trace with fixed times: a
// query with a compile stage and a task whose children cover the pipeline
// stages. The render tests below read it; the tests after them check that
// Begin/End build the same structure from live regions.
func buildFixture() *Lifecycle {
	lc := NewLifecycle("q6")
	lc.Retain()
	add := func(parent int64, name string, s State, startMS, durMS int, attrs ...Attr) int64 {
		return lc.tr.add(&SpanData{ParentID: parent, Name: name, State: s, Tid: 1,
			Start: time.Duration(startMS) * time.Millisecond, Dur: time.Duration(durMS) * time.Millisecond, Attrs: attrs})
	}
	q := add(0, "query q6", StateHost, 1, 17)
	add(q, "compile", StateCompile, 2, 1, Attr{"units", 1})
	u := add(q, "unit u1", StateHost, 4, 11)
	task := add(u, "task u1:final", StateHost, 5, 9, Attr{"rows_in", 60175}, Attr{"pages_read", 128})
	add(task, "row-select", StateRowSel, 6, 1)
	add(task, "table-read", StateRead, 8, 1)
	add(task, "transform", StateSystolic, 10, 1)
	add(task, "swissknife AGGREGATE", StateSwissknife, 12, 1)
	add(q, "host-plan", StateHost, 16, 1)
	return lc
}

func TestTreeRender(t *testing.T) {
	tree := buildFixture().Tree()
	want := `query q6 [host] 17ms
  compile [compile] 1ms units=1
  unit u1 [host] 11ms
    task u1:final [host] 9ms rows_in=60175 pages_read=128
      row-select [rowsel] 1ms
      table-read [read] 1ms
      transform [systolic] 1ms
      swissknife AGGREGATE [swissknife] 1ms
  host-plan [host] 1ms
`
	if tree != want {
		t.Fatalf("tree render:\n%s\nwant:\n%s", tree, want)
	}
}

func TestChromeTraceGolden(t *testing.T) {
	got := buildFixture().ChromeTrace()
	golden := filepath.Join("testdata", "chrome_trace.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("chrome trace diverged from golden:\n%s", got)
	}
}

func TestChromeTraceValidity(t *testing.T) {
	out := buildFixture().ChromeTrace()
	if !json.Valid(out) {
		t.Fatalf("ChromeTrace is not valid JSON:\n%s", out)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("events = %d, want 9", len(doc.TraceEvents))
	}
	known := make(map[string]bool)
	for s := State(0); s < NumStates; s++ {
		known[s.String()] = true
	}
	lastTs := int64(-1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q phase %q, want X", ev.Name, ev.Ph)
		}
		if !known[ev.Cat] {
			t.Fatalf("event %q category %q is not a state name", ev.Name, ev.Cat)
		}
		if ev.Ts < lastTs {
			t.Fatalf("events not sorted by ts: %d after %d", ev.Ts, lastTs)
		}
		lastTs = ev.Ts
		if ev.Dur < 0 {
			t.Fatalf("event %q has negative duration %d", ev.Name, ev.Dur)
		}
		if ev.Pid != 1 || ev.Tid < 1 {
			t.Fatalf("event %q pid/tid = %d/%d", ev.Name, ev.Pid, ev.Tid)
		}
	}
}

// Live regions become spans only on a retaining recorder, only when named,
// nested as they were begun, with the attributes set on them.
func TestRegionsBecomeSpansOnlyWhenRetained(t *testing.T) {
	plain := NewLifecycle("q")
	r := plain.Begin(StateHost, "query")
	r.SetInt("rows", 1)
	r.End()
	if plain.Spans() != nil || plain.Tree() != "" {
		t.Fatalf("a recorder that does not retain kept spans: %v", plain.Spans())
	}

	lc := NewLifecycle("q")
	lc.Retain()
	q := lc.Begin(StateHost, "query")
	task := lc.Begin(StateHost, "task", "u1:final")
	lc.Begin(StateDeviceRead).End() // unnamed leaf: time only
	sel := lc.Begin(StateRowSel, "row-select", "")
	sel.End()
	task.SetInt("rows_in", 7)
	task.End()
	q.End()
	spans := lc.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %+v, want query, task, row-select", spans)
	}
	if spans[0].Name != "query" || spans[0].ParentID != 0 ||
		spans[1].Name != "task u1:final" || spans[1].ParentID != spans[0].ID ||
		spans[2].Name != "row-select" || spans[2].ParentID != spans[1].ID || spans[2].State != StateRowSel {
		t.Fatalf("span structure = %+v", spans)
	}
	if len(spans[1].Attrs) != 1 || spans[1].Attrs[0] != (Attr{"rows_in", 7}) {
		t.Fatalf("task attrs = %+v", spans[1].Attrs)
	}
	if state(lc, StateDeviceRead) <= 0 {
		t.Fatal("the unnamed leaf lost its time")
	}
}

func TestUnfinishedSpanAndDoubleEnd(t *testing.T) {
	lc := NewLifecycle("q")
	lc.Retain()
	lc.Begin(StateHost, "a") // never ended
	b := lc.Begin(StateHost, "b")
	time.Sleep(time.Millisecond)
	b.End()
	first := lc.Spans()[1].Dur
	time.Sleep(time.Millisecond)
	b.End() // second End keeps the first end time
	spans := lc.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d", len(spans))
	}
	if spans[1].Name != "b" || spans[1].Dur != first || first < time.Millisecond {
		t.Fatalf("b = %+v, want the %v of its first End", spans[1], first)
	}
	if spans[0].Dur < spans[1].Dur {
		t.Fatalf("open span a = %v, want its duration up to now (>= %v)", spans[0].Dur, spans[1].Dur)
	}
}

// A fork's spans sit on the fork's lane, under the span the parent was in
// when it forked; the parent's own spans stay on lane 1. Forks begin spans
// concurrently, so this is also the span store's -race proof.
func TestSpanTidInheritance(t *testing.T) {
	lc := NewLifecycle("q")
	lc.Retain()
	root := lc.Begin(StateScatterWait, "scatter")
	var wg sync.WaitGroup
	for d := 0; d < 4; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			f := lc.Fork("shard", d+2)
			shard := f.Begin(StateHost, "shard")
			f.Begin(StateHost, "query").End()
			shard.End()
			f.Finish()
		}(d)
	}
	wg.Wait()
	root.End()
	spans := lc.Spans()
	if len(spans) != 9 {
		t.Fatalf("spans = %d, want 9", len(spans))
	}
	byID := make(map[int64]SpanData)
	lanes := make(map[int]int)
	for _, s := range spans {
		byID[s.ID] = s
		lanes[s.Tid]++
	}
	for _, s := range spans {
		switch s.Name {
		case "scatter":
			if s.Tid != 1 || s.ParentID != 0 {
				t.Fatalf("root = %+v, want lane 1", s)
			}
		case "shard":
			if byID[s.ParentID].Name != "scatter" || s.Tid < 2 {
				t.Fatalf("shard = %+v under %+v", s, byID[s.ParentID])
			}
		case "query":
			if p := byID[s.ParentID]; p.Name != "shard" || p.Tid != s.Tid {
				t.Fatalf("query = %+v under %+v, want its shard's lane", s, p)
			}
		}
	}
	if len(lanes) != 5 || lanes[1] != 1 {
		t.Fatalf("lanes = %v, want lane 1 and one lane per fork", lanes)
	}
}
