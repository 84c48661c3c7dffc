package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// answer is one expected result as the oracle process prints it.
type answer struct {
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
	SHA     string   `json:"sha"`
	Lines   []string `json:"lines,omitempty"`
}

// op is one request the driver sends. kind names the operation type and
// with it the metric the latency is filed under.
type op struct {
	kind   string // q1 q6 point range tile report export dml update delete check
	path   string // GET when body is nil, POST otherwise
	body   []byte
	tenant string
	// want, when set, is the oracle's answer: the body must match it cell
	// for cell. Without it the response is still checked structurally.
	want *answer
	// wantRows, when >= 0, is the exact row count (or rows_affected) the
	// response must report.
	wantRows int
	// firstCell, when non-empty, must equal the first cell of the first row.
	firstCell string
}

// outcome is what happened to one op. Times are offsets from the start of
// the window the op belongs to.
type outcome struct {
	op                         *op
	seq                        int
	due, sent, firstByte, done time.Duration
	rows                       int    // result rows, or rows_affected for DML
	first                      string // first row line (small results only)
	err                        error  // non-nil: the op failed
}

func (o outcome) ok() bool { return o.err == nil }

// latencyMS is measured from when the op was due, which for a closed
// loop is when it was sent.
func (o outcome) latencyMS() float64 {
	return float64(o.done-o.due) / float64(time.Millisecond)
}

// client issues ops over at most conns keep-alive connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	return &client{base: base, http: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends the op and checks the response. epoch is the zero point for
// the offsets in the outcome; due is when the op was meant to be sent.
func (c *client) do(o *op, seq int, epoch time.Time, due time.Duration) outcome {
	out := outcome{op: o, seq: seq, due: due}
	method, body := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, c.base+o.path, body)
	if err != nil {
		out.err = err
		return out
	}
	if o.tenant != "" {
		req.Header.Set("X-Tenant", o.tenant)
	}
	out.sent = time.Since(epoch)
	resp, err := c.http.Do(req)
	out.firstByte = time.Since(epoch)
	if err != nil {
		out.done, out.err = out.firstByte, err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.done = time.Since(epoch)
		out.err = fmt.Errorf("%s %s: HTTP %d: %s", o.kind, o.path, resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	if o.body != nil {
		out.err = checkDML(o, resp.Body, &out)
	} else {
		out.err = checkNDJSON(o, resp.Body, &out)
	}
	out.done = time.Since(epoch)
	return out
}

func checkDML(o *op, r io.Reader, out *outcome) error {
	var res struct {
		RowsAffected int `json:"rows_affected"`
	}
	if err := json.NewDecoder(r).Decode(&res); err != nil {
		return fmt.Errorf("%s: bad /dml body: %v", o.kind, err)
	}
	out.rows = res.RowsAffected
	if o.wantRows >= 0 && res.RowsAffected != o.wantRows {
		return fmt.Errorf("%s: rows_affected = %d, want %d", o.kind, res.RowsAffected, o.wantRows)
	}
	return nil
}

// checkNDJSON reads a streamed result: a schema line, one JSON array per
// row, and the {"done":true,"rows":n} trailer, whose absence means the
// stream was cut short.
func checkNDJSON(o *op, r io.Reader, out *outcome) error {
	br := bufio.NewReaderSize(r, 64<<10)
	header, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("%s: no schema line: %v", o.kind, err)
	}
	var schema struct {
		Schema []struct {
			Name string `json:"name"`
		} `json:"schema"`
	}
	if err := json.Unmarshal(header, &schema); err != nil || len(schema.Schema) == 0 {
		return fmt.Errorf("%s: bad schema line %q", o.kind, header)
	}
	h := sha256.New()
	var prev []byte
	rows := -1 // the loop counts the trailer too
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if prev != nil {
				if o.want != nil {
					h.Write(prev)
				}
				if rows == 0 {
					out.first = strings.TrimSpace(string(prev))
				}
			}
			rows++
			prev = append(prev[:0], line...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: reading body: %v", o.kind, err)
		}
	}
	var trailer struct {
		Done bool `json:"done"`
		Rows int  `json:"rows"`
	}
	if prev == nil || json.Unmarshal(prev, &trailer) != nil || !trailer.Done {
		return fmt.Errorf("%s: stream ended without a {\"done\":true} trailer (last line %q)", o.kind, prev)
	}
	out.rows = rows
	if trailer.Rows != rows {
		return fmt.Errorf("%s: trailer says %d rows, body has %d", o.kind, trailer.Rows, rows)
	}
	if o.wantRows >= 0 && rows != o.wantRows {
		return fmt.Errorf("%s: %d rows, want %d", o.kind, rows, o.wantRows)
	}
	if o.firstCell != "" && !strings.HasPrefix(out.first, "["+o.firstCell+",") && out.first != "["+o.firstCell+"]" {
		return fmt.Errorf("%s: first row %s does not start with %s", o.kind, out.first, o.firstCell)
	}
	if w := o.want; w != nil {
		if len(schema.Schema) != len(w.Columns) {
			return fmt.Errorf("%s: %d columns, oracle has %d", o.kind, len(schema.Schema), len(w.Columns))
		}
		for i, f := range schema.Schema {
			if f.Name != w.Columns[i] {
				return fmt.Errorf("%s: column %d is %q, oracle has %q", o.kind, i, f.Name, w.Columns[i])
			}
		}
		if rows != w.Rows {
			return fmt.Errorf("%s: %d rows, oracle has %d", o.kind, rows, w.Rows)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w.SHA {
			return fmt.Errorf("%s: wrong answer for %s: first row %s, oracle rows %v", o.kind, o.path, out.first, w.Lines)
		}
	}
	return nil
}

func queryPath(sql string) string { return "/query?q=" + url.QueryEscape(sql) }

func dmlBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sql})
	return b
}
