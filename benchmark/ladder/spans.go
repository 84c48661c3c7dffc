package main

import (
	"context"
	"encoding/json"
	"io"
	"time"

	"aquoman/internal/compiler"
	"aquoman/internal/core"
	"aquoman/internal/engine"
	"aquoman/internal/plan"
	"aquoman/internal/sched"
	"aquoman/internal/sql"
)

// decompose runs q1 and q6 once each, step by step, the way a served
// /query request strings the layers together, and records one parent
// span per query with a child span around each step:
//
//	sql.Plan -> compiler.Compile -> sched submit..grant -> core run -> emit
//
// The children do not overlap, so a parent's self time — its duration
// minus the children's — is glue: binding, allocation, the hand-off
// between goroutines. core.Device.RunQuery compiles the plan again
// itself; the stand-alone compiler.Compile child shows what that share
// of the core span is.
func decompose(e *env) ([]span, error) {
	db, err := e.rawDB()
	if err != nil {
		return nil, err
	}
	s := sched.NewScheduler(sched.Config{MaxInFlight: 2, QueueDepth: 16})
	defer s.Close()

	var spans []span
	epoch := time.Now()
	us := func(t time.Time) float64 { return float64(t.Sub(epoch)) / float64(time.Microsecond) }
	for _, q := range []struct{ id, stmt string }{{"ladder.q1", q1SQL}, {"ladder.q6", q6SQL}} {
		child := func(name string, from, to time.Time) {
			spans = append(spans, span{TraceID: q.id, Name: name, Parent: q.id, StartUS: us(from), EndUS: us(to)})
		}
		begin := time.Now()

		p, err := sql.Plan(q.stmt, db.Store)
		planned := time.Now()
		if err != nil {
			return spans, err
		}
		child("sql.Plan", begin, planned)

		if err := plan.Bind(p, db.Store); err != nil {
			return spans, err
		}
		bound := time.Now()
		if _, err := compiler.Compile(p, db.Store, compiler.Config{HeapScale: db.HeapScale}); err != nil {
			return spans, err
		}
		child("compiler.Compile", bound, time.Now())

		var granted, ran time.Time
		submitted := time.Now()
		ticket, err := s.SubmitWaitCtx(context.Background(), func(ctx context.Context) (interface{}, error) {
			granted = time.Now()
			dev := core.New(db.Store, core.Config{DRAMBytes: db.DRAMBytes,
				Compiler: compiler.Config{HeapScale: db.HeapScale}, SharedDevice: true, Ctx: ctx})
			b, _, err := dev.RunQuery(p)
			ran = time.Now()
			return b, err
		})
		if err != nil {
			return spans, err
		}
		res, err := ticket.Wait()
		if err != nil {
			return spans, err
		}
		child("sched.submit_grant", submitted, granted)
		child("core.RunQuery", granted, ran)

		emitFrom := time.Now()
		if err := emit(io.Discard, res.(*engine.Batch)); err != nil {
			return spans, err
		}
		end := time.Now()
		child("emit", emitFrom, end)
		spans = append(spans, span{TraceID: q.id, Name: q.id, StartUS: us(begin), EndUS: us(end)})
	}
	return spans, nil
}

// emit renders a batch as NDJSON rows through the engine's display path,
// as the server's stream does for every non-integer cell. q1 and q6
// return four rows and one, so this span is small by construction.
func emit(w io.Writer, b *engine.Batch) error {
	enc := json.NewEncoder(w)
	row := make([]interface{}, len(b.Schema))
	for r := 0; r < b.NumRows(); r++ {
		for c, f := range b.Schema {
			row[c] = engine.RenderValue(f, b.Cols[c][r])
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
