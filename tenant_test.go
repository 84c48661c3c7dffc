package aquoman

import (
	"context"
	"fmt"
	"testing"

	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/tpch"
)

// tenantCacheDB is a small instance with the fair scheduler and the
// result cache on, as the serving tier configures them.
func tenantCacheDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.ConfigureScheduler(SchedulerConfig{
		MaxInFlight: 2, QueueDepth: 8,
		Tenants: map[string]TenantConfig{},
	})
	db.EnableResultCache(1<<20, 0)
	return db
}

// TestResultCacheInvalidatedByReEncode is the result-level replay of the
// PR-5 page-cache hazard: entries bake the file generations captured at
// lookup, so a store re-encode (which rewrites column files in place)
// must strand the cached entry — a later lookup re-executes instead of
// serving bytes computed from the old encoding.
func TestResultCacheInvalidatedByReEncode(t *testing.T) {
	db := tenantCacheDB(t)
	run := func() (*Result, bool) {
		t.Helper()
		res, err := db.Do(context.Background(), Request{TPCH: 6, Admit: &Admission{Tenant: "t", CacheKey: "q6"}})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.CacheHit
	}
	first, hit := run()
	if hit {
		t.Fatal("first run must miss")
	}
	if _, hit := run(); !hit {
		t.Fatal("second run must hit the cache")
	}

	tab, err := db.Store.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.ReEncodeColumn("l_quantity", enc.SelDict); err != nil {
		t.Fatal(err)
	}

	third, hit := run()
	if hit {
		t.Fatal("post-re-encode lookup served a stale cached result")
	}
	if first.Render(1<<20) != third.Render(1<<20) {
		t.Fatal("re-encoded store changed the answer; encodings must be value-transparent")
	}
	if st := db.ResultCacheStats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 2 misses (initial + post-re-encode) and 1 hit", st)
	}
}

// TestResultCacheInvalidatedByWrite pokes raw column bytes through the
// flash device's write path and asserts the cached query answer moves
// with the data: the per-file generation counter bumps on WriteAt, so
// the old entry is unreachable and the re-executed result reflects the
// new bytes.
func TestResultCacheInvalidatedByWrite(t *testing.T) {
	db := tenantCacheDB(t)
	const q = "select count(*) as n from region where r_regionkey < 3"
	run := func() (*Result, bool) {
		t.Helper()
		res, err := db.Do(context.Background(), Request{SQL: q, Admit: &Admission{Tenant: "t", CacheKey: CanonicalSQL(q)}})
		if err != nil {
			t.Fatal(err)
		}
		return res, res.CacheHit
	}
	first, hit := run()
	if hit {
		t.Fatal("first run must miss")
	}
	if _, hit := run(); !hit {
		t.Fatal("second run must hit the cache")
	}

	// Copy row 0's stored bytes (regionkey 0) over row 4 (regionkey 4;
	// the column is a 4-byte Int32): one more row satisfies
	// r_regionkey < 3.
	f, err := db.Flash.Open("region/r_regionkey.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0, flash.Host); err != nil {
		t.Fatal(err)
	}
	f.WriteAt(buf, 4*4, flash.Host)

	third, hit := run()
	if hit {
		t.Fatal("post-write lookup served a stale cached result")
	}
	want := first.Batch.Cols[0][0] + 1
	if got := third.Batch.Cols[0][0]; got != want {
		t.Fatalf("post-write count = %d, want %d (the cached path must see the new bytes)", got, want)
	}
}

// TestResultCacheOracleAllQueries is the 22-query cached-vs-direct
// differential: each TPC-H query run directly, then as a result-cache
// miss, then as a hit under the same key must render byte-identically —
// the cache may save the work but never change (or swap) an answer.
func TestResultCacheOracleAllQueries(t *testing.T) {
	db := tenantCacheDB(t)
	ctx := context.Background()
	for _, q := range tpch.Queries() {
		render := func(req Request, wantHit bool) string {
			t.Helper()
			req.Plan = q.Build()
			res, err := db.Do(ctx, req)
			if err != nil {
				t.Fatalf("q%d: %v", q.Num, err)
			}
			if res.CacheHit != wantHit {
				t.Fatalf("q%d: CacheHit = %v, want %v", q.Num, res.CacheHit, wantHit)
			}
			return res.Render(1 << 20)
		}
		cached := Request{Admit: &Admission{Tenant: "oracle", Lane: LaneBatch, CacheKey: fmt.Sprintf("oracle:q%d", q.Num)}}
		direct := render(Request{}, false)
		if miss := render(cached, false); miss != direct {
			t.Fatalf("q%d: result-cache miss differs from direct execution:\n%s\nvs\n%s", q.Num, miss, direct)
		}
		if hit := render(cached, true); hit != direct {
			t.Fatalf("q%d: result-cache hit differs from direct execution:\n%s\nvs\n%s", q.Num, hit, direct)
		}
	}
}
