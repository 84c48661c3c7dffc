package aquoman

// The write-path acceptance rig: snapshot-isolated analytic scans
// differentially tested against the naive oracle while DML batches
// stream in, plus cache coherence across writes and the merge.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aquoman/internal/catalog"
	"aquoman/internal/col"
	"aquoman/internal/flash"
	"aquoman/internal/plan"
	"aquoman/internal/sql"
	"aquoman/internal/tpch"
)

// lineitemCloner renders INSERT statements that clone existing lineitem
// rows, so every key column stays FK-valid (and the composite partsupp
// pair stays in the index domain) across the merge.
type lineitemCloner struct {
	names []string
	typs  []col.Type
	cis   []*col.ColumnInfo
	vals  [][]int64
	rows  int
}

func newLineitemCloner(t testing.TB, db *DB) *lineitemCloner {
	t.Helper()
	tab, err := db.Store.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	c := &lineitemCloner{rows: tab.NumRows}
	for _, def := range tab.Cols {
		if def.Typ == col.RowID {
			continue
		}
		ci, err := tab.Column(def.Name)
		if err != nil {
			t.Fatal(err)
		}
		vals, err := ci.ReadAll(flash.Host)
		if err != nil {
			t.Fatal(err)
		}
		c.names = append(c.names, def.Name)
		c.typs = append(c.typs, def.Typ)
		c.cis = append(c.cis, ci)
		c.vals = append(c.vals, vals)
	}
	return c
}

func (c *lineitemCloner) literal(t testing.TB, ci, r int) string {
	v := c.vals[ci][r]
	switch c.typs[ci] {
	case col.Date:
		return "DATE '" + col.DateString(v) + "'"
	case col.Decimal:
		neg := ""
		if v < 0 {
			neg, v = "-", -v
		}
		return fmt.Sprintf("%s%d.%02d", neg, v/col.DecimalScale, v%col.DecimalScale)
	case col.Dict, col.Text:
		s, err := c.cis[ci].Str(v, flash.Host)
		if err != nil {
			t.Fatal(err)
		}
		return "'" + strings.ReplaceAll(s, "'", "''") + "'"
	default:
		return strconv.FormatInt(v, 10)
	}
}

// insertStmt clones n base rows starting at row start (wrapping).
func (c *lineitemCloner) insertStmt(t testing.TB, start, n int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO lineitem (")
	sb.WriteString(strings.Join(c.names, ", "))
	sb.WriteString(") VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		r := (start + i) % c.rows
		for ci := range c.names {
			if ci > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.literal(t, ci, r))
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// orderkeys returns n distinct l_orderkey values spread across the table.
func (c *lineitemCloner) orderkeys(n int) []int64 {
	okeys := c.vals[0] // l_orderkey is lineitem's first column
	seen := make(map[int64]bool, n)
	var out []int64
	for i := 0; len(out) < n && i < len(okeys); i += 1 + len(okeys)/(n*2) {
		if !seen[okeys[i]] {
			seen[okeys[i]] = true
			out = append(out, okeys[i])
		}
	}
	return out
}

// oracleAtSnapshot folds the snapshot's overlays for the plan's base
// tables into a clone of the pre-write oracle.
func oracleAtSnapshot(db *DB, base *tpch.Oracle, snap catalog.Snapshot, p Plan) (*tpch.Oracle, error) {
	ovs, err := snap.Overlays(plan.BaseTables(p))
	if err != nil {
		return nil, err
	}
	oc := base.Clone()
	names := make([]string, 0, len(ovs))
	for name := range ovs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := oc.ApplyOverlay(db.Store, ovs[name]); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// checkAtSnapshot runs one TPC-H query pinned to a freshly captured
// snapshot and diffs it cell-exact against the epoch-frozen oracle.
func checkAtSnapshot(t *testing.T, db *DB, base *tpch.Oracle, qn int) {
	t.Helper()
	p, err := TPCHQuery(qn)
	if err != nil {
		t.Error(err)
		return
	}
	snap := db.Catalog().Snapshot()
	res, err := db.Do(catalog.WithSnapshot(context.Background(), snap), Request{Plan: p})
	if err != nil {
		t.Errorf("q%d at epoch %d: %v", qn, snap.Epoch, err)
		return
	}
	op, err := TPCHQuery(qn)
	if err != nil {
		t.Error(err)
		return
	}
	if err := plan.Bind(op, db.Store); err != nil {
		t.Errorf("q%d bind: %v", qn, err)
		return
	}
	oc, err := oracleAtSnapshot(db, base, snap, op)
	if err != nil {
		t.Errorf("q%d oracle overlay at epoch %d: %v", qn, snap.Epoch, err)
		return
	}
	want, err := oc.Run(op)
	if err != nil {
		t.Errorf("q%d oracle at epoch %d: %v", qn, snap.Epoch, err)
		return
	}
	diffResult(t, fmt.Sprintf("q%d at epoch %d", qn, snap.Epoch), res, want)
}

// TestSnapshotIsolationOracle is the write-path acceptance rig: all 22
// TPC-H queries run concurrently with a writer streaming INSERT/UPDATE/
// DELETE batches, each query pinned to its admission epoch and compared
// cell-exact against a naive epoch-frozen reference executor. A forced
// merge then compacts the delta into encoded base pages; every query
// re-runs cell-exact against a fresh oracle, zone-map pruning keeps
// firing on the rebuilt pages, the result cache re-misses on its bumped
// fingerprint, and pre-merge snapshots report themselves stale.
func TestSnapshotIsolationOracle(t *testing.T) {
	db := Open()
	db.SetDefaultEncoding(EncAuto)
	if err := db.LoadTPCH(0.005, 42); err != nil {
		t.Fatal(err)
	}
	obsv := db.EnableObservability()
	db.EnableCache(32 << 20)
	db.EnableResultCache(16<<20, 0)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 4, QueueDepth: 64})
	defer db.Close()

	base, err := tpch.NewOracle(db.Store)
	if err != nil {
		t.Fatal(err)
	}
	cloner := newLineitemCloner(t, db)
	okeys := cloner.orderkeys(16)
	cat := db.Catalog()
	epoch0 := cat.Epoch()

	// Writer: a bounded stream of mixed DML batches racing the readers.
	ctx := context.Background()
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for i := 0; i < 240; i++ {
			var stmt string
			switch i % 4 {
			case 0, 1:
				stmt = cloner.insertStmt(t, (i*37)%cloner.rows, 8)
			case 2:
				stmt = fmt.Sprintf(
					"UPDATE lineitem SET l_quantity = l_quantity + 1, l_extendedprice = l_extendedprice + 0.01 WHERE l_orderkey = %d",
					okeys[i%len(okeys)])
			default:
				stmt = fmt.Sprintf(
					"DELETE FROM lineitem WHERE l_orderkey = %d AND l_linenumber >= 4",
					okeys[(i+7)%len(okeys)])
			}
			if _, err := db.Exec(ctx, stmt); err != nil && !errors.Is(err, ErrConflict) {
				t.Errorf("writer stmt %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Readers: the 22 queries striped across 4 goroutines, each pinned
	// to whatever epoch is current at its own admission.
	var rwg sync.WaitGroup
	for g := 0; g < 4; g++ {
		rwg.Add(1)
		go func(g int) {
			defer rwg.Done()
			for _, q := range tpch.Queries() {
				if q.Num%4 != g {
					continue
				}
				checkAtSnapshot(t, db, base, q.Num)
			}
			checkAtSnapshot(t, db, base, 6) // one more mid-stream epoch
		}(g)
	}
	rwg.Wait()
	wwg.Wait()
	if t.Failed() {
		return
	}
	if cat.Epoch() == epoch0 {
		t.Fatal("writer never committed — the differential above raced nothing")
	}

	// Result cache across the merge: warm an entry, merge, and the
	// bumped file generations must force a re-execution with the same
	// cells.
	cachedQ6 := Request{TPCH: 6, Admit: &Admission{Tenant: "t", CacheKey: "q6"}}
	if _, err := db.Do(ctx, cachedQ6); err != nil {
		t.Fatal(err)
	}
	pre, err := db.Do(ctx, cachedQ6)
	if err != nil {
		t.Fatal(err)
	}
	if !pre.CacheHit {
		t.Fatal("repeat q6 before the merge missed the result cache")
	}

	stale := cat.Snapshot()
	if err := db.Merge(); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if _, err := stale.Overlays([]string{"lineitem"}); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("pre-merge snapshot after merge: err = %v, want ErrStaleSnapshot", err)
	}

	post, err := db.Do(ctx, cachedQ6)
	if err != nil {
		t.Fatal(err)
	}
	if post.CacheHit {
		t.Fatal("q6 after the merge hit the result cache — file generation bump did not invalidate the fingerprint")
	}
	// The merge must not change the answer: the recomputed post-merge
	// result carries the same cells the cached pre-merge one did.
	if pre.NumRows() != post.NumRows() || len(pre.Batch.Cols) != len(post.Batch.Cols) {
		t.Fatalf("q6 shape changed across merge: %dx%d -> %dx%d",
			pre.NumRows(), len(pre.Batch.Cols), post.NumRows(), len(post.Batch.Cols))
	}
	for c := range pre.Batch.Cols {
		for r := range pre.Batch.Cols[c] {
			if pre.Batch.Cols[c][r] != post.Batch.Cols[c][r] {
				t.Fatalf("q6 row %d col %d changed across merge: %d -> %d",
					r, c, pre.Batch.Cols[c][r], post.Batch.Cols[c][r])
			}
		}
	}

	// Full post-merge differential against a fresh oracle over the
	// compacted store, through the scheduler and both caches. Zone-map
	// pruning must keep working on the rebuilt encoded pages.
	fresh, err := tpch.NewOracle(db.Store)
	if err != nil {
		t.Fatal(err)
	}
	pruned0 := obsv.Reg.Counter("enc_pages_pruned_total").Value()
	for _, q := range tpch.Queries() {
		ticket, err := db.Submit(nil, Request{TPCH: q.Num, Admit: &Admission{Wait: true}})
		if err != nil {
			t.Fatalf("q%d submit: %v", q.Num, err)
		}
		res, err := ticket.Wait()
		if err != nil {
			t.Fatalf("q%d post-merge: %v", q.Num, err)
		}
		op, _ := TPCHQuery(q.Num)
		if err := plan.Bind(op, db.Store); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Run(op)
		if err != nil {
			t.Fatalf("q%d post-merge oracle: %v", q.Num, err)
		}
		diffResult(t, fmt.Sprintf("q%d post-merge", q.Num), res, want)
	}
	// The TPC-H predicates land on unclustered columns (dates, flags)
	// whose per-page min/max spans the whole domain, so they cannot
	// prune; a range over the clustered l_orderkey can. If the merge
	// rebuilt the encoded pages without zone maps this scan reads every
	// page and the counter stays flat.
	tab, err := db.Store.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	okCol, err := tab.Column("l_orderkey")
	if err != nil {
		t.Fatal(err)
	}
	okeys2, err := okCol.ReadAll(flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	qtys, err := tab.MustColumn("l_quantity").ReadAll(flash.Host)
	if err != nil {
		t.Fatal(err)
	}
	cut := okeys2[len(okeys2)/8]
	var wantSum int64
	for r, k := range okeys2 {
		if k < cut {
			wantSum += qtys[r]
		}
	}
	res, err := db.Query(fmt.Sprintf(
		"select sum(l_quantity) as s from lineitem where l_orderkey < %d", cut))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Batch.Cols[0][0]; got != wantSum {
		t.Fatalf("post-merge pruned scan: sum(l_quantity)=%d, want %d", got, wantSum)
	}
	if pruned := obsv.Reg.Counter("enc_pages_pruned_total").Value(); pruned <= pruned0 {
		t.Fatalf("enc_pages_pruned_total stayed at %d after the post-merge pruned scan — the rebuilt pages lost their zone maps", pruned)
	}
}

// TestCacheCoherenceUnderWrites is the targeted staleness check: page
// and result caches enabled, INSERT, query (must see the new row),
// merge, query again (must still see it, recomputed, not served stale).
func TestCacheCoherenceUnderWrites(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	db.EnableCache(16 << 20)
	db.EnableResultCache(8<<20, 0)
	db.ConfigureScheduler(SchedulerConfig{MaxInFlight: 2, QueueDepth: 8})
	defer db.Close()
	ctx := context.Background()

	count := func(label string) int64 {
		t.Helper()
		const q = "select count(*) as n from lineitem"
		res, err := db.Do(ctx, Request{SQL: q, Admit: &Admission{Tenant: "t", CacheKey: CanonicalSQL(q)}})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return res.Batch.Cols[0][0]
	}

	before := count("baseline")
	if cached := count("warm"); cached != before {
		t.Fatalf("cache warmup changed the count: %d then %d", before, cached)
	}

	cloner := newLineitemCloner(t, db)
	if _, err := db.Exec(ctx, cloner.insertStmt(t, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if got := count("after insert"); got != before+3 {
		t.Fatalf("count after INSERT = %d, want %d (stale cache?)", got, before+3)
	}

	if err := db.Merge(); err != nil {
		t.Fatal(err)
	}
	if got := count("after merge"); got != before+3 {
		t.Fatalf("count after merge = %d, want %d (stale cache?)", got, before+3)
	}
	st := db.ResultCacheStats()
	if st.Hits == 0 {
		t.Fatal("result cache never hit — the coherence checks above tested nothing")
	}
}

// TestSaveRefusesUnmergedDelta: Save persists base pages only, so while an
// acknowledged write still sits in a delta it must refuse (it used to drop
// the write silently); after Merge the row and the epoch survive the round
// trip through OpenDir. Mutation: dropping the Dirty check in Save makes
// the first Save succeed.
func TestSaveRefusesUnmergedDelta(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, "INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (9, 'ASIA', 'saved row')"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.Save(dir); !errors.Is(err, ErrUnmergedDelta) {
		t.Fatalf("Save with an un-merged INSERT: err = %v, want ErrUnmergedDelta", err)
	}
	if err := db.Merge(); err != nil {
		t.Fatal(err)
	}
	epoch := db.Catalog().Epoch()
	if err := db.Save(dir); err != nil {
		t.Fatalf("Save after Merge: %v", err)
	}
	back, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Query("select count(*) as n from region where r_regionkey = 9 and r_comment = 'saved row'")
	if err != nil || res.Batch.Cols[0][0] != 1 {
		t.Fatalf("reopened store has %v saved rows (%v), want 1", res, err)
	}
	if got := back.Catalog().Epoch(); got != epoch || epoch == 0 {
		t.Fatalf("epoch %d did not survive Save/OpenDir: got %d", epoch, got)
	}
}

// TestVictimScanNeverSwapsItsSnapshot: a write's victim scan is pinned to
// the snapshot its commit will compare-and-swap against. A merge between
// the snapshot and the scan is ErrStaleSnapshot — the pinned scan never
// falls back to a fresh snapshot the way an unpinned read does — and a
// merge (or write) between the scan and the commit is ErrConflict from the
// epoch CAS, which Exec retries. Mutation: attachOverlays falling back for
// a pinned snapshot too makes the first scan answer with post-merge rowids.
func TestVictimScanNeverSwapsItsSnapshot(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.002, 7); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	insert := func(key int) {
		t.Helper()
		stmt := fmt.Sprintf("INSERT INTO region (r_regionkey, r_name, r_comment) VALUES (%d, 'ASIA', 'x')", key)
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	insert(9)
	del, err := sql.CompileExec("DELETE FROM region WHERE r_regionkey = 9", db.Store)
	if err != nil {
		t.Fatal(err)
	}
	victims := func(snap catalog.Snapshot) (*Result, error) {
		return db.Do(catalog.WithSnapshot(ctx, snap), Request{Plan: del.Delete.Plan, HostOnly: true})
	}

	// Merge between snapshot and scan.
	snap := db.Catalog().Snapshot()
	if err := db.Merge(); err != nil {
		t.Fatal(err)
	}
	if res, err := victims(snap); !errors.Is(err, ErrStaleSnapshot) {
		t.Fatalf("victim scan at a pre-merge snapshot: %v, err = %v, want ErrStaleSnapshot", res, err)
	}

	// Merge between scan and commit: the rowids are pre-merge, the CAS
	// refuses them.
	insert(10)
	snap = db.Catalog().Snapshot()
	res, err := victims(snap)
	if err != nil || res.NumRows() != 1 {
		t.Fatalf("victim scan: %v rows, err = %v, want 1", res, err)
	}
	if err := db.Merge(); err != nil {
		t.Fatal(err)
	}
	rowids, _ := res.Batch.Col(plan.RowIDCol)
	if _, err := db.Catalog().Delete("region", rowids, snap.Epoch); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit of pre-merge victims: err = %v, want ErrConflict", err)
	}
	// The statement itself, after both merges, still finds its row.
	if r, err := db.Exec(ctx, "DELETE FROM region WHERE r_regionkey = 9"); err != nil || r.Rows != 1 {
		t.Fatalf("DELETE after the merges: %+v, err = %v, want 1 row", r, err)
	}
}

// wholeColumnQ6Alloc is what one host q6 over the dirty table of
// TestHostScanAllocations allocated when the host engine read each scanned
// column whole, copied it again to apply the overlay and then filtered it
// (bytes, runtime.MemStats.TotalAlloc; allocation totals repeat from run
// to run).
const wholeColumnQ6Alloc = 6_481_376

// The host scan streams: a q6 over a dirty SF 0.01 lineitem (update tail
// rows and deleted base rows, so the query runs on the host engine)
// allocates at most a tenth of what reading whole columns did. The best
// of three runs is held, so that a GC clearing the scan's buffer pools
// mid-run cannot fail the test.
func TestHostScanAllocations(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, stmt := range []string{
		"UPDATE lineitem SET l_quantity = 7 WHERE l_orderkey < 2000",
		"DELETE FROM lineitem WHERE l_orderkey >= 3000 AND l_orderkey < 3500",
	} {
		if _, err := db.Exec(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	best := uint64(1 << 62)
	for i := 0; i < 4; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := db.RunTPCH(6)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.HostStats.Work["scan"] == 0 {
			t.Fatal("q6 did not run on the host engine")
		}
		if i > 0 { // the first run fills the pools
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
	}
	t.Logf("host q6 allocated %d bytes (whole-column scan: %d)", best, wholeColumnQ6Alloc)
	if raceEnabled {
		t.Skip("the race runtime's sync.Pool misses make allocation totals meaningless")
	}
	if best*10 > wholeColumnQ6Alloc {
		t.Errorf("host q6 allocated %d bytes, want at most a tenth of %d", best, wholeColumnQ6Alloc)
	}
}
