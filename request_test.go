package aquoman

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"aquoman/internal/flash"
)

// sameAnswer fails unless got and want hold the same cells and the same
// Report facts a caller can act on.
func sameAnswer(t *testing.T, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Batch.Schema, want.Batch.Schema) || !reflect.DeepEqual(got.Batch.Cols, want.Batch.Cols) {
		t.Fatalf("cells differ:\n%s\nvs\n%s", got.Render(5), want.Render(5))
	}
	if got.Report.Suspended != want.Report.Suspended || !reflect.DeepEqual(got.Report.Units, want.Report.Units) {
		t.Fatalf("report differs: suspended %v units %v vs suspended %v units %v",
			got.Report.Suspended, got.Report.Units, want.Report.Suspended, want.Report.Units)
	}
	if got.Report.Flash.PagesRead != want.Report.Flash.PagesRead || got.Report.OffloadFraction != want.Report.OffloadFraction {
		t.Fatalf("flash attribution differs: %v (%.3f) vs %v (%.3f)",
			got.Report.Flash.PagesRead, got.Report.OffloadFraction, want.Report.Flash.PagesRead, want.Report.OffloadFraction)
	}
}

// TestAliasesEqualDo runs every entry point kept beside Do/Submit and the
// Request it stands for: same cells, same Report, per-query flash
// attribution on direct runs and none on scheduled ones.
func TestAliasesEqualDo(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	db.EnableObservability()
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 2, QueueDepth: 8})
	defer db.Close()
	ctx := context.Background()
	const stmt = "select l_returnflag, sum(l_quantity) as q from lineitem where l_discount < 0.05 group by l_returnflag order by l_returnflag"
	q6 := func() Plan {
		p, err := TPCHQuery(6)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wait := func(tk *Ticket, err error) (*Result, error) {
		if err != nil {
			return nil, err
		}
		return tk.Wait()
	}
	cases := []struct {
		name  string
		alias func() (*Result, error)
		req   Request
	}{
		{"Run", func() (*Result, error) { return db.Run(q6()) }, Request{TPCH: 6}},
		{"Query", func() (*Result, error) { return db.Query(stmt) }, Request{SQL: stmt}},
		{"QueryCtx", func() (*Result, error) { return db.QueryCtx(ctx, stmt) }, Request{SQL: stmt}},
		{"QueryHostOnly", func() (*Result, error) { return db.QueryHostOnly(stmt) }, Request{SQL: stmt, HostOnly: true}},
		{"RunTPCH", func() (*Result, error) { return db.RunTPCH(1) }, Request{TPCH: 1}},
		{"RunTPCHHostOnly", func() (*Result, error) { return db.RunTPCHHostOnly(1) }, Request{TPCH: 1, HostOnly: true}},
		{"SubmitWaitCtx", func() (*Result, error) { return wait(db.SubmitWaitCtx(ctx, q6())) },
			Request{TPCH: 6, Admit: &Admission{Wait: true}}},
		{"RunConcurrent", func() (*Result, error) {
			rs, err := db.RunConcurrent([]Plan{q6()})
			return rs[0], err
		}, Request{TPCH: 6, Admit: &Admission{Wait: true}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.alias()
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Do(ctx, tc.req)
			if err != nil {
				t.Fatal(err)
			}
			sameAnswer(t, got, want)
			for _, res := range []*Result{got, want} {
				attributed := res.Report.Flash != (flash.Stats{}) && res.Report.Metrics != nil
				if direct := tc.req.Admit == nil; attributed != direct {
					t.Fatalf("per-query attribution = %v on a run with direct = %v (flash %v)",
						attributed, direct, res.Report.Flash.PagesRead)
				}
			}
			if hostOnly := len(want.Report.Units) == 0; hostOnly != tc.req.HostOnly {
				t.Fatalf("HostOnly = %v but offloaded units = %v", tc.req.HostOnly, want.Report.Units)
			}
		})
	}

	// Submit is the same query without the Wait; its ticket carries the
	// scheduled result.
	t.Run("Submit", func(t *testing.T) {
		got, err := wait(db.Submit(ctx, Request{SQL: stmt}))
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.Do(ctx, Request{SQL: stmt, Admit: &Admission{}})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want)
	})

	// A traced request answers like an untraced one, hands back its own
	// tracer, and — being a Request like any other — is cancellable.
	t.Run("Trace", func(t *testing.T) {
		want, err := db.Do(ctx, Request{TPCH: 6})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Do(ctx, Request{TPCH: 6, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		sameAnswer(t, got, want)
		if want.Trace != nil || got.Trace == nil || len(got.Trace.Spans()) == 0 {
			t.Fatalf("tracers: untraced %v, traced %v", want.Trace, got.Trace)
		}
		dead, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := db.Do(dead, Request{TPCH: 6, Trace: true}); !errors.Is(err, context.Canceled) {
			t.Fatalf("traced run under a dead context: err = %v, want context.Canceled", err)
		}
	})

	// Cached: the second identical request is a hit, and a committed write
	// to the table in between makes the next one a miss that sees the row.
	t.Run("Cached", func(t *testing.T) {
		db.EnableResultCache(1<<20, 0)
		const count = "select count(*) as n from lineitem"
		cached := Request{SQL: count, Admit: &Admission{Tenant: "t", CacheKey: CanonicalSQL(count)}}
		do := func(wantHit bool) *Result {
			t.Helper()
			res, err := db.Do(ctx, cached)
			if err != nil {
				t.Fatal(err)
			}
			if res.CacheHit != wantHit {
				t.Fatalf("CacheHit = %v, want %v", res.CacheHit, wantHit)
			}
			return res
		}
		first := do(false)
		sameAnswer(t, do(true), first)
		byPlan := cached
		byPlan.SQL, byPlan.Plan = "", mustPlanSQL(t, db, count)
		res, err := db.Do(ctx, byPlan)
		if err != nil {
			t.Fatal(err)
		}
		if !res.CacheHit {
			t.Fatal("the same key by plan after two Do calls by SQL was a miss")
		}
		sameAnswer(t, res, first)
		if _, err := db.Exec(ctx, newLineitemCloner(t, db).insertStmt(t, 0, 2)); err != nil {
			t.Fatal(err)
		}
		if got, want := do(false).Batch.Cols[0][0], first.Batch.Cols[0][0]+2; got != want {
			t.Fatalf("count after INSERT = %d, want %d", got, want)
		}
	})
}
