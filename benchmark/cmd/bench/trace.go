package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// outDir receives the span files and slow-query logs of traced runs. It
// is git-ignored.
const outDir = "benchmark/out"

// lifecycleStates are the server's per-query wait states the traced run
// reports as shares of summed query wall time.
var lifecycleStates = []string{"queue_wait", "compile", "rowsel", "read", "systolic", "swissknife",
	"host", "device_read", "cache_hit", "coalesce_wait", "result_cache_hit", "emit"}

// promSnapshot is one /metrics scrape: series (name with labels) to value.
type promSnapshot map[string]float64

// scrape reads /metrics. It runs before and after a traced window, never
// inside a measured one. A failed scrape yields an empty snapshot, which
// turns the counters derived from it into zeros rather than aborting the
// run whose end-to-end numbers are already taken.
func scrape(base string) promSnapshot {
	snap := promSnapshot{}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return snap
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			snap[line[:i]] = v
		}
	}
	return snap
}

// total sums every series of the metric, across label sets.
func (s promSnapshot) total(name string) float64 {
	var sum float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta is after minus before for one metric.
func delta(before, after promSnapshot, name string) float64 {
	return after.total(name) - before.total(name)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// slowLine is one record of the server's slow-query log.
type slowLine struct {
	Time     time.Time          `json:"time"`
	ID       string             `json:"id"`
	Query    string             `json:"query"`
	Error    string             `json:"error,omitempty"`
	WallMS   float64            `json:"wall_ms"`
	Coverage float64            `json:"coverage"`
	StatesMS map[string]float64 `json:"states_ms"`
}

// readSlowLog returns the lines finished inside [from, to].
func readSlowLog(path string, from, to time.Time) ([]slowLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var lines []slowLine
	dec := json.NewDecoder(f)
	for {
		var l slowLine
		if err := dec.Decode(&l); err == io.EOF {
			return lines, nil
		} else if err != nil {
			return lines, err
		}
		if !l.Time.Before(from) && !l.Time.After(to) {
			lines = append(lines, l)
		}
	}
}

// labelStats aggregates the server's lines per query label. The server
// does not echo its qN id to the client, so this is as fine as the join
// between client spans and server lines gets.
type labelStats struct {
	Count    int                `json:"count"`
	WallMS   float64            `json:"wall_ms"`
	StatesMS map[string]float64 `json:"states_ms"`
}

// lifecycle folds slow-query lines into the share of summed wall time
// each state took, the attributed share of wall time, and per-label sums.
func lifecycle(lines []slowLine) (pct map[string]float64, coverage float64, byLabel map[string]*labelStats) {
	pct, byLabel = map[string]float64{}, map[string]*labelStats{}
	var wall, attributed float64
	for _, l := range lines {
		wall += l.WallMS
		attributed += l.Coverage * l.WallMS
		label := l.Query
		if len(label) > 60 {
			label = label[:60]
		}
		ls := byLabel[label]
		if ls == nil {
			ls = &labelStats{StatesMS: map[string]float64{}}
			byLabel[label] = ls
		}
		ls.Count++
		ls.WallMS += l.WallMS
		for s, ms := range l.StatesMS {
			pct[s] += ms
			ls.StatesMS[s] += ms
		}
	}
	for s := range pct {
		pct[s] = 100 * ratio(pct[s], wall)
	}
	return pct, ratio(attributed, wall), byLabel
}

// span is the driver's own record of one request.
type span struct {
	TraceID   string  `json:"trace_id"` // workload + sequence
	Name      string  `json:"name"`     // op kind
	DueUS     float64 `json:"due_us"`
	SentUS    float64 `json:"sent_us"`
	FirstUS   float64 `json:"first_byte_us"`
	DoneUS    float64 `json:"done_us"`
	OK        bool    `json:"ok"`
	ErrorText string  `json:"error,omitempty"`
}

func spansOf(workload string, outs []outcome) []span {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	spans := make([]span, len(outs))
	for i, o := range outs {
		spans[i] = span{
			TraceID: workload + "-" + strconv.Itoa(o.seq), Name: o.op.kind,
			DueUS: us(o.due), SentUS: us(o.sent), FirstUS: us(o.firstByte), DoneUS: us(o.done), OK: o.ok(),
		}
		if o.err != nil {
			spans[i].ErrorText = o.err.Error()
		}
	}
	return spans
}

// traceFile is what a traced run leaves in benchmark/out.
type traceFile struct {
	Workload      string                 `json:"workload"`
	Seed          int64                  `json:"seed"`
	Note          string                 `json:"note"`
	ClientSpans   []span                 `json:"client_spans"`
	ServerByLabel map[string]*labelStats `json:"server_by_label"`
	LadderSpans   json.RawMessage        `json:"ladder_spans,omitempty"`
}

const joinNote = "server lines join client spans per label, not per query: the server's qN id is not echoed to the client (ROADMAP item 5); offsets are microseconds since the traced server was spawned"

func writeTrace(tf *traceFile) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, "trace-"+tf.Workload+".json")
	raw, err := json.MarshalIndent(tf, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}
