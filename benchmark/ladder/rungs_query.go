package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"time"

	"aquoman"
	"aquoman/internal/bitvec"
	"aquoman/internal/compiler"
	"aquoman/internal/distrib"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/plan"
	"aquoman/internal/server"
	"aquoman/internal/sorter"
	"aquoman/internal/sql"
	"aquoman/internal/swissknife"
	"aquoman/internal/systolic"
	"aquoman/internal/tabletask"
	"aquoman/internal/tpch"
)

var queryRungs = []rung{
	{"sql.plan_point_us", "us", func(e *env) (float64, error) { return planTime(e, pointSQL) }},
	{"sql.plan_q6_us", "us", func(e *env) (float64, error) { return planTime(e, q6SQL) }},
	{"sql.canonicalize_us", "us", func(e *env) (float64, error) {
		s, err := e.t.median(func() error {
			if sql.Canonicalize(q6SQL) == "" {
				return fmt.Errorf("empty canonical form")
			}
			return nil
		})
		return s * 1e6, err
	}},
	{"sql.compile_insert_us_per_row", "us", func(e *env) (float64, error) {
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		stmt, err := e.insertSQL()
		if err != nil {
			return 0, err
		}
		s, err := e.t.median(func() error {
			_, err := sql.CompileExec(stmt, db.Store)
			return err
		})
		return s * 1e6 / insertRows, err
	}},

	{"compiler.compile_q1_us", "us", func(e *env) (float64, error) { return compileTime(e, 1) }},
	{"compiler.compile_q6_us", "us", func(e *env) (float64, error) { return compileTime(e, 6) }},

	{"rowsel.q6_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		return rowselRate(e, db)
	}},
	{"rowsel.q6_enc_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		db, err := e.autoDB()
		if err != nil {
			return 0, err
		}
		return rowselRate(e, db)
	}},

	{"systolic.q1_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		m, in, err := q1Machine(e)
		if err != nil {
			return 0, err
		}
		rows := len(in[0])
		vec := make([][]int64, len(in))
		s, err := e.t.median(func() error {
			for r := 0; r < rows; r += bitvec.VecSize {
				end := r + bitvec.VecSize
				if end > rows {
					end = rows
				}
				for c := range in {
					vec[c] = in[c][r:end]
				}
				if _, err := m.RunVec(vec); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(rows) / s / 1e6, err
	}},

	{"swissknife.groupby_q1_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		// q1's group-by fed the transformer's real outputs: two key
		// columns with four distinct groups, then the aggregate inputs.
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		task, err := scanTask(db, 1)
		if err != nil {
			return 0, err
		}
		m, in, err := q1Machine(e)
		if err != nil {
			return 0, err
		}
		out, err := m.Transform(in)
		if err != nil {
			return 0, err
		}
		op := task.Op
		if len(out) != op.Keys+op.Attrs+len(op.Aggs) {
			return 0, fmt.Errorf("q1 transformer has %d outputs, group-by wants %d+%d+%d", len(out), op.Keys, op.Attrs, len(op.Aggs))
		}
		rows := len(out[0])
		row := make([]int64, len(out))
		s, err := e.t.median(func() error {
			g, err := swissknife.NewGroupBy(op.GroupCfg, op.Keys, op.Attrs, op.Aggs)
			if err != nil {
				return err
			}
			for r := 0; r < rows; r++ {
				for c := range out {
					row[c] = out[c][r]
				}
				if err := g.Consume(row[:op.Keys], row[op.Keys:op.Keys+op.Attrs], row[op.Keys+op.Attrs:]); err != nil {
					return err
				}
			}
			if n := len(g.Results()); n != 4 {
				return fmt.Errorf("q1 group-by produced %d groups, want 4", n)
			}
			return nil
		})
		return float64(rows) / s / 1e6, err
	}},
	{"swissknife.aggregate_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		vals, err := column(e, "l_extendedprice")
		if err != nil {
			return 0, err
		}
		s, err := e.t.median(func() error {
			a, err := swissknife.NewAggregate([]swissknife.AggKind{swissknife.AggSum})
			if err != nil {
				return err
			}
			var v [1]int64
			for _, x := range vals {
				v[0] = x
				if err := a.Consume(v[:]); err != nil {
					return err
				}
			}
			return nil
		})
		return float64(len(vals)) / s / 1e6, err
	}},

	{"sorter.sort_mkeys_per_s", "Mkeys/s", func(e *env) (float64, error) {
		const n = 1 << 20
		rng := rand.New(rand.NewSource(e.seed))
		src := make([]sorter.KV, n)
		for i := range src {
			src[i] = sorter.KV{Key: rng.Int63(), Val: int64(i)}
		}
		data := make([]sorter.KV, n)
		s, err := e.t.medianTimed(func() (time.Duration, error) {
			copy(data, src) // Sort works in place
			start := time.Now()
			out := sorter.NewStreaming(sorter.DefaultConfig()).Sort(data)
			d := time.Since(start)
			if len(out) != n {
				return 0, fmt.Errorf("sorted %d of %d keys", len(out), n)
			}
			return d, nil
		})
		return n / s / 1e6, err
	}},

	{"tabletask.fused_q1_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return taskRate(e, 1, false) }},
	{"tabletask.fused_q6_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return taskRate(e, 6, false) }},
	{"tabletask.staged_q6_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return taskRate(e, 6, true) }},
	{"tabletask.fused_allocs_per_scan", "count", func(e *env) (float64, error) {
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		worst := 0.0
		for _, q := range []int{1, 6} {
			task, err := scanTask(db, q)
			if err != nil {
				return 0, err
			}
			a, err := tabletask.NewExecutor(db.Store, mem.New(db.DRAMBytes)).AllocsPerScan(task, 3)
			if err != nil {
				return 0, err
			}
			if a > worst {
				worst = a
			}
		}
		return worst, nil
	}},

	{"core.q1_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return tpchRate(e, e.rawDB, 1, false) }},
	{"core.q6_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return tpchRate(e, e.rawDB, 6, false) }},
	{"engine.host_q6_mrows_per_s", "Mrows/s", func(e *env) (float64, error) { return tpchRate(e, e.rawDB, 6, true) }},
	{"core.q6_overlay_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		// q6 over a 10 k-row visible tail: the first write-path rung, so
		// the tail is exactly these 50 inserts.
		if err := insertBatches(e, 50); err != nil {
			return 0, err
		}
		return tpchRate(e, e.mutDB, 6, false)
	}},

	{"catalog.update_delete_p50_ms", "ms", func(e *env) (float64, error) {
		// One order's lines per statement, alternating UPDATE and DELETE
		// over distinct orders, as htap_mix's writer does every tenth
		// statement.
		db, err := e.mutDB()
		if err != nil {
			return 0, err
		}
		ord, err := db.Store.Table("orders")
		if err != nil {
			return 0, err
		}
		n := int64(0)
		s, err := e.t.median(func() error {
			n++
			// Stepping by a prime visits every order once before any twice,
			// however many statements fit the rung; TPC-H populates 8 of
			// every 32 key values.
			i := n * 997 % int64(ord.NumRows)
			key := (i/8)*32 + i%8 + 1
			stmt := fmt.Sprintf("UPDATE lineitem SET l_quantity = 7 WHERE l_orderkey = %d", key)
			if n%2 == 0 {
				stmt = fmt.Sprintf("DELETE FROM lineitem WHERE l_orderkey = %d", key)
			}
			res, err := db.Exec(context.Background(), stmt)
			if err == nil && res.Rows == 0 {
				err = fmt.Errorf("%s affected no rows", stmt)
			}
			return err
		})
		return s * 1e3, err
	}},
	{"catalog.insert_krows_per_s", "krows/s", func(e *env) (float64, error) {
		db, err := e.mutDB()
		if err != nil {
			return 0, err
		}
		ins, err := compiledInsert(e)
		if err != nil {
			return 0, err
		}
		cat := db.Catalog()
		s, err := e.t.median(func() error {
			_, err := cat.Insert(ins.Table, ins.N, ins.Ints, ins.Strs)
			return err
		})
		return insertRows / s / 1e3, err
	}},
	{"catalog.merge_ms", "ms", func(e *env) (float64, error) {
		// Merge a 20 k-row tail. Each iteration re-grows the tail first;
		// only the merge is timed.
		db, err := e.mutDB()
		if err != nil {
			return 0, err
		}
		if err := db.Merge(); err != nil { // start from a clean delta
			return 0, err
		}
		t := e.t
		t.maxIters = 3 // a merge rewrites every lineitem column: seconds, not microseconds
		s, err := t.medianTimed(func() (time.Duration, error) {
			if err := insertBatches(e, 100); err != nil {
				return 0, err
			}
			start := time.Now()
			err := db.Merge()
			return time.Since(start), err
		})
		return s * 1e3, err
	}},

	{"server.roundtrip_overhead_us", "us", func(e *env) (float64, error) {
		_, extra, err := handlerVsQuery(e, pointSQL)
		return extra * 1e6, err
	}},
	{"server.emit_krows_per_s", "krows/s", func(e *env) (float64, error) {
		_, extra, err := handlerVsQuery(e, exportSQL)
		if err != nil {
			return 0, err
		}
		db, _ := e.rawDB()
		res, err := db.QueryCtx(context.Background(), exportSQL)
		if err != nil {
			return 0, err
		}
		return float64(res.NumRows()) / extra / 1e3, nil
	}},

	{"distrib.scatter2_q1_ms", "ms", func(e *env) (float64, error) {
		c := distrib.NewCluster(2)
		if err := c.LoadTPCH(e.sf, e.seed); err != nil {
			return 0, err
		}
		s, err := e.t.median(func() error {
			b, _, err := c.RunQuery(func() plan.Node { return tpch.Q1() })
			if err == nil && b.NumRows() != 4 {
				err = fmt.Errorf("scattered q1 returned %d rows", b.NumRows())
			}
			return err
		})
		return s * 1e3, err
	}},
}

var rungs = append(append([]rung(nil), storageRungs...), queryRungs...)

func planTime(e *env, stmt string) (float64, error) {
	db, err := e.rawDB()
	if err != nil {
		return 0, err
	}
	s, err := e.t.median(func() error {
		_, err := sql.Plan(stmt, db.Store)
		return err
	})
	return s * 1e6, err
}

func compileTime(e *env, q int) (float64, error) {
	db, err := e.rawDB()
	if err != nil {
		return 0, err
	}
	def, err := tpch.Get(q)
	if err != nil {
		return 0, err
	}
	s, err := e.t.medianTimed(func() (time.Duration, error) {
		p := def.Build()
		if err := plan.Bind(p, db.Store); err != nil {
			return 0, err
		}
		start := time.Now()
		res, err := compiler.Compile(p, db.Store, compiler.Config{HeapScale: db.HeapScale})
		d := time.Since(start)
		if err == nil && len(res.Units) == 0 {
			err = fmt.Errorf("q%d compiled to no offload unit", q)
		}
		return d, err
	})
	return s * 1e6, err
}

// rowselRate runs q6's Row Selection Program over lineitem.
func rowselRate(e *env, db *aquoman.DB) (float64, error) {
	task, err := scanTask(db, 6)
	if err != nil {
		return 0, err
	}
	if task.RowSel == nil {
		return 0, fmt.Errorf("q6's Table Task has no row-selection program")
	}
	li, rows, err := lineitem(db)
	if err != nil {
		return 0, err
	}
	s, err := e.t.median(func() error {
		_, _, err := task.RowSel.Run(li, nil, flash.Aquoman)
		return err
	})
	return rows / s / 1e6, err
}

// q1Machine maps q1's transform onto the PE chain and reads its input
// columns.
func q1Machine(e *env) (*systolic.Machine, [][]int64, error) {
	db, err := e.rawDB()
	if err != nil {
		return nil, nil, err
	}
	task, err := scanTask(db, 1)
	if err != nil {
		return nil, nil, err
	}
	if len(task.Gathers) != 0 {
		return nil, nil, fmt.Errorf("q1's Table Task gathers; the rung streams base columns only")
	}
	li, _, err := lineitem(db)
	if err != nil {
		return nil, nil, err
	}
	in, err := readCols(li, task.Stream)
	if err != nil {
		return nil, nil, err
	}
	mapped, err := systolic.Compile(task.Transform, len(task.Stream), systolic.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	return systolic.NewMachine(mapped), in, nil
}

// taskRate runs the compiled lineitem Table Task of query q through the
// executor, fused or staged.
func taskRate(e *env, q int, staged bool) (float64, error) {
	db, err := e.rawDB()
	if err != nil {
		return 0, err
	}
	task, err := scanTask(db, q)
	if err != nil {
		return 0, err
	}
	_, rows, err := lineitem(db)
	if err != nil {
		return 0, err
	}
	s, err := e.t.median(func() error {
		ex := tabletask.NewExecutor(db.Store, mem.New(db.DRAMBytes))
		ex.DisableFusion = staged
		_, err := ex.Run(task)
		return err
	})
	return rows / s / 1e6, err
}

// tpchRate is whole-query rows per second through the façade: compile,
// offload (or host), finish — no HTTP and no scheduler.
func tpchRate(e *env, open func() (*aquoman.DB, error), q int, host bool) (float64, error) {
	db, err := open()
	if err != nil {
		return 0, err
	}
	_, rows, err := lineitem(db)
	if err != nil {
		return 0, err
	}
	run := db.RunTPCH
	if host {
		run = db.RunTPCHHostOnly
	}
	s, err := e.t.median(func() error {
		_, err := run(q)
		return err
	})
	return rows / s / 1e6, err
}

func compiledInsert(e *env) (*sql.CompiledInsert, error) {
	db, err := e.mutDB()
	if err != nil {
		return nil, err
	}
	stmt, err := e.insertSQL()
	if err != nil {
		return nil, err
	}
	ex, err := sql.CompileExec(stmt, db.Store)
	if err != nil {
		return nil, err
	}
	return ex.Insert, nil
}

// insertBatches commits n 200-row batches to the mutable store.
func insertBatches(e *env, n int) error {
	db, err := e.mutDB()
	if err != nil {
		return err
	}
	ins, err := compiledInsert(e)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := db.Catalog().Insert(ins.Table, ins.N, ins.Ints, ins.Strs); err != nil {
			return err
		}
	}
	return nil
}

// handlerVsQuery times the HTTP handler (over a response recorder: no
// socket) and DB.QueryCtx on the same statement, alternating, and
// returns the median handler time and the median of the paired
// differences. The difference is what the server layer adds: admission
// through the scheduler, lifecycle bookkeeping and NDJSON emit. Pairing
// keeps drift of the box out of a difference of two nearly equal times.
func handlerVsQuery(e *env, stmt string) (handler, extra float64, err error) {
	db, err := e.rawDB()
	if err != nil {
		return 0, 0, err
	}
	srv := server.New(server.Config{DB: db})
	target := "/query?q=" + url.QueryEscape(stmt)
	var handlers []float64
	extra, err = e.t.medianTimed(func() (time.Duration, error) {
		start := time.Now()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		h := time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
		}
		start = time.Now()
		_, err := db.QueryCtx(context.Background(), stmt)
		q := time.Since(start)
		handlers = append(handlers, h.Seconds())
		return h - q, err
	})
	sort.Float64s(handlers)
	return handlers[len(handlers)/2], extra, err
}
