package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// trace is the span store of one retaining recorder and its forks, which
// begin and end spans from their own goroutines: every span operation takes
// the lock. Only the query holds it, so it is garbage with the recorder.
type trace struct {
	mu    sync.Mutex
	base  time.Time
	spans []*SpanData
}

// Attr is one integer annotation on a span (row counts, bytes, pages).
type Attr struct {
	K string
	V int64
}

// SpanData is one retained region; Spans hands out copies.
type SpanData struct {
	ID       int64
	ParentID int64 // 0 for roots; a fork's outermost span hangs under the span it forked in
	Name     string
	State    State
	Tid      int // Chrome trace lane; every fork has its own
	Start    time.Duration
	Dur      time.Duration // negative while the region is open
	Attrs    []Attr
}

// Retain makes the recorder keep every named region as a span, for Spans,
// Tree and ChromeTrace. Call it before the first Begin and any Fork.
func (lc *Lifecycle) Retain() {
	if lc != nil && lc.tr == nil {
		lc.tr, lc.lane = &trace{base: lc.start}, 1
	}
}

// add stores a just-begun span and returns the ID it gave it.
func (t *trace) add(sp *SpanData) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, sp)
	sp.ID = int64(len(t.spans))
	return sp.ID
}

// SetInt sets an integer attribute on the region's span; a region without
// a span ignores it.
func (r Region) SetInt(k string, v int64) {
	if r.sp != nil {
		r.lc.tr.mu.Lock()
		r.sp.Attrs = append(r.sp.Attrs, Attr{K: k, V: v})
		r.lc.tr.mu.Unlock()
	}
}

// Spans returns copies of the retained spans of lc and its forks in start
// order (nil unless Retain was called). Open spans get their duration up
// to now.
func (lc *Lifecycle) Spans() []SpanData {
	if lc == nil || lc.tr == nil {
		return nil
	}
	t := lc.tr
	now := lc.Wall() + lc.skew
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanData, 0, len(t.spans))
	for _, s := range t.spans {
		d := *s
		if d.Dur < 0 {
			d.Dur = max(now-d.Start, 0)
		}
		d.Attrs = append([]Attr(nil), s.Attrs...)
		out = append(out, d)
	}
	// Stable: spans that start together stay in ID order.
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// chromeEvent is one trace_event entry ("X" complete events only).
type chromeEvent struct {
	Name string           `json:"name"`
	Cat  string           `json:"cat"`
	Ph   string           `json:"ph"`
	Ts   int64            `json:"ts"`  // microseconds
	Dur  int64            `json:"dur"` // microseconds
	Pid  int              `json:"pid"`
	Tid  int              `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// ChromeTrace renders every span as a Chrome trace_event JSON document.
// Events are sorted by ts (monotonic) and all durations are non-negative.
func (lc *Lifecycle) ChromeTrace() []byte {
	spans := lc.Spans()
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{make([]chromeEvent, 0, len(spans)), "ms"}
	for _, s := range spans {
		ev := chromeEvent{Name: s.Name, Cat: s.State.String(), Ph: "X",
			Ts: s.Start.Microseconds(), Dur: s.Dur.Microseconds(), Pid: 1, Tid: s.Tid}
		if len(s.Attrs) > 0 {
			ev.Args = make(map[string]int64, len(s.Attrs))
			for _, a := range s.Attrs {
				ev.Args[a.K] = a.V
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return []byte(`{"traceEvents":[]}`)
	}
	return out
}

// Tree renders the span forest as an indented listing, one line a span:
//
//	query [host] 12.4ms
//	  compile [compile] 0.2ms units=1
func (lc *Lifecycle) Tree() string {
	spans := lc.Spans()
	children := make(map[int64][]SpanData, len(spans))
	for _, s := range spans {
		children[s.ParentID] = append(children[s.ParentID], s)
	}
	var sb strings.Builder
	var walk func(parent int64, depth int)
	walk = func(parent int64, depth int) {
		for _, s := range children[parent] {
			sb.WriteString(strings.Repeat("  ", depth))
			fmt.Fprintf(&sb, "%s [%s] %s", s.Name, s.State, s.Dur.Round(time.Microsecond))
			for _, a := range s.Attrs {
				fmt.Fprintf(&sb, " %s=%d", a.K, a.V)
			}
			sb.WriteByte('\n')
			walk(s.ID, depth+1)
		}
	}
	walk(0, 0)
	return sb.String()
}
