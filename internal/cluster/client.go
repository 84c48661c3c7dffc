package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"aquoman/internal/core"
	"aquoman/internal/distrib"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
)

// The partial-result wire protocol, shared by the coordinator (this
// client) and internal/server's worker mode. A worker response is NDJSON:
//
//	{"schema":[{"name":"sum_qty","type":"decimal"}, ...],
//	 "strategy":"merge-aggregate","partial":true}   <- header
//	[123,456, ...]                                  <- one array per row
//	{"done":true,"rows":N,"id":"q7"}                <- trailer
//
// Rows carry raw stored int64s (dictionary codes, scaled decimals, day
// numbers) rather than rendered strings: partial aggregates must merge
// bit-exactly, and the coordinator's seeded dictionaries already know how
// to render the codes. The trailer is load-bearing — a worker that dies
// mid-stream produces valid NDJSON up to the cut, and only the missing
// (or miscounted) trailer distinguishes truncation from completion.

// WireField is one column of the partial schema on the wire.
type WireField struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// WireHeader is the first NDJSON line of a partial response.
type WireHeader struct {
	Schema   []WireField `json:"schema"`
	Strategy string      `json:"strategy,omitempty"`
	Partial  bool        `json:"partial"`
}

// WireTrailer is the last NDJSON line of a partial response. ID is the
// worker's query ID (its X-Query-ID header and slow-query log id) — the
// coordinator's own when the scatter RPC carried one; the coordinator does
// not interpret it.
type WireTrailer struct {
	Done bool   `json:"done"`
	Rows int    `json:"rows"`
	ID   string `json:"id,omitempty"`
}

// HeaderFor builds the wire header for a bound partial schema.
func HeaderFor(s plan.Schema, strategy string) WireHeader {
	h := WireHeader{Strategy: strategy, Partial: true}
	for _, f := range s {
		h.Schema = append(h.Schema, WireField{Name: f.Name, Type: f.Typ.String()})
	}
	return h
}

// ProtocolError is a typed violation of the partial wire protocol:
// non-200 status, malformed or missing header, schema disagreement,
// garbled rows, or a truncated/miscounted stream. Status is the HTTP
// status when the violation was an error response (0 otherwise); 4xx
// protocol errors are not retried.
type ProtocolError struct {
	URL    string
	Status int
	Reason string
	Err    error
}

func (e *ProtocolError) Error() string {
	msg := fmt.Sprintf("cluster: protocol error from %s: %s", e.URL, e.Reason)
	if e.Err != nil {
		msg += ": " + e.Err.Error()
	}
	return msg
}

func (e *ProtocolError) Unwrap() error { return e.Err }

// worker is the distrib.Shard over one aquoman-serve URL.
type worker struct {
	client *http.Client
	url    string
}

// Run issues one scatter RPC: GET url/tpch?q=N&partial=1, validates the
// header against the expected (coordinator-bound) partial schema, decodes
// the raw rows, and verifies the trailer count. The request rides on ctx,
// so cancelling the coordinator query aborts the worker's stream
// mid-flight, and carries the coordinator's query ID as X-Query-ID, so the
// worker's trailer and slow-query log name the query the coordinator's do.
func (w *worker) Run(ctx context.Context, work distrib.Work) ([][]int64, *core.Report, error) {
	url := strings.TrimRight(w.url, "/") + "/tpch?q=" + strconv.Itoa(work.Q) + "&partial=1"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, &ProtocolError{URL: w.url, Reason: "building request", Err: err}
	}
	if lc := obs.LifecycleFrom(ctx); lc != nil {
		req.Header.Set("X-Query-ID", lc.ID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, nil, err // transport error: retryable
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, nil, &ProtocolError{
			URL:    w.url,
			Status: resp.StatusCode,
			Reason: fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body))),
		}
	}
	cols, err := decodePartial(resp.Body, work.Schema)
	if err != nil {
		if pe, ok := err.(*ProtocolError); ok {
			pe.URL = w.url
		}
		return nil, nil, err
	}
	return cols, nil, nil
}

// Retryable: a 4xx is the worker rejecting the plan, which no retry and no
// replica will change; transport errors, truncated or garbled streams, and
// 5xx (including queue-full 503) may clear.
func (w *worker) Retryable(err error) bool {
	var pe *ProtocolError
	return !(errors.As(err, &pe) && pe.Status >= 400 && pe.Status < 500)
}

func (w *worker) Local() bool    { return false }
func (w *worker) String() string { return w.url }

// decodePartial reads an NDJSON partial stream and returns its columns.
// Every violation — missing/invalid header, schema mismatch, non-integer
// or ragged rows, absent or miscounting trailer, trailing garbage — is a
// typed *ProtocolError so the coordinator can attribute and retry it; a
// truncated body can never be mistaken for a short result.
func decodePartial(body io.Reader, expected plan.Schema) ([][]int64, error) {
	dec := json.NewDecoder(body)
	dec.UseNumber()

	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return nil, &ProtocolError{Reason: "reading header", Err: err}
	}
	var hdr WireHeader
	if err := json.Unmarshal(raw, &hdr); err != nil || len(raw) == 0 || raw[0] != '{' {
		return nil, &ProtocolError{Reason: "malformed header", Err: err}
	}
	if !hdr.Partial {
		return nil, &ProtocolError{Reason: "response is not a partial stream (missing partial flag)"}
	}
	if len(hdr.Schema) != len(expected) {
		return nil, &ProtocolError{Reason: fmt.Sprintf(
			"schema width %d, coordinator expects %d", len(hdr.Schema), len(expected))}
	}
	for i, f := range expected {
		if hdr.Schema[i].Name != f.Name || hdr.Schema[i].Type != f.Typ.String() {
			return nil, &ProtocolError{Reason: fmt.Sprintf(
				"schema column %d is %s:%s, coordinator expects %s:%s",
				i, hdr.Schema[i].Name, hdr.Schema[i].Type, f.Name, f.Typ.String())}
		}
	}

	cols := make([][]int64, len(expected))
	rows := 0
	for {
		if err := dec.Decode(&raw); err != nil {
			if err == io.EOF {
				return nil, &ProtocolError{Reason: fmt.Sprintf(
					"stream truncated after %d rows (no trailer)", rows)}
			}
			return nil, &ProtocolError{Reason: fmt.Sprintf("garbled stream after %d rows", rows), Err: err}
		}
		trimmed := bytes.TrimLeft(raw, " \t\r\n")
		if len(trimmed) == 0 {
			return nil, &ProtocolError{Reason: "empty line in stream"}
		}
		if trimmed[0] == '{' {
			var tr WireTrailer
			if err := json.Unmarshal(raw, &tr); err != nil {
				return nil, &ProtocolError{Reason: "malformed trailer", Err: err}
			}
			if !tr.Done {
				return nil, &ProtocolError{Reason: "trailer lacks done flag"}
			}
			if tr.Rows != rows {
				return nil, &ProtocolError{Reason: fmt.Sprintf(
					"trailer claims %d rows, stream carried %d", tr.Rows, rows)}
			}
			return cols, nil
		}
		var vals []json.Number
		if err := json.Unmarshal(raw, &vals); err != nil {
			return nil, &ProtocolError{Reason: fmt.Sprintf("garbled row %d", rows), Err: err}
		}
		if len(vals) != len(expected) {
			return nil, &ProtocolError{Reason: fmt.Sprintf(
				"row %d has %d values, schema has %d columns", rows, len(vals), len(expected))}
		}
		for i, v := range vals {
			// ParseInt keeps 64-bit exactness; float round-tripping would
			// corrupt large decimals and dictionary codes.
			n, err := strconv.ParseInt(v.String(), 10, 64)
			if err != nil {
				return nil, &ProtocolError{Reason: fmt.Sprintf(
					"row %d col %d is not an int64", rows, i), Err: err}
			}
			cols[i] = append(cols[i], n)
		}
		rows++
	}
}
