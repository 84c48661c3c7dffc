package aquoman

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aquoman/internal/faults"
	"aquoman/internal/flash"
)

// ctxSlackPages bounds how many Aquoman page reads may land after the
// cancellation point: the in-flight bulk-read chunk (64 pages) plus the
// per-page checkpoints of readers already past their last check.
const ctxSlackPages = 80

// TestCancelStopsFlashTraffic cancels a query after exactly N in-storage
// page reads (driven deterministically by the fault injector's Hook,
// which the device consults on every page read) and asserts the query
// stops consuming simulated flash bandwidth within the documented slack.
func TestCancelStopsFlashTraffic(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	p, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate: how many Aquoman pages does the full query read?
	db.ResetFlashStats()
	if _, err := db.Run(p); err != nil {
		t.Fatal(err)
	}
	total := db.FlashStats().PagesRead[flash.Aquoman]

	const cancelAfter = 20
	if total <= cancelAfter+ctxSlackPages {
		t.Fatalf("query too small to observe cancellation: %d total Aquoman pages", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var reads atomic.Int64
	inj := faults.New(faults.Config{})
	inj.Hook = func(_ string, _ int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if who == flash.Aquoman && attempt == 0 {
			if reads.Add(1) == cancelAfter {
				cancel()
			}
		}
		return 0, false
	}
	db.WithFaults(inj)
	db.ResetFlashStats()

	p2, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.Do(ctx, Request{Plan: p2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	got := db.FlashStats().PagesRead[flash.Aquoman]
	if got > cancelAfter+ctxSlackPages {
		t.Fatalf("cancelled query kept reading: %d Aquoman pages after cancel at %d (slack %d, full query %d)",
			got, cancelAfter, ctxSlackPages, total)
	}

	// The query returned: its flash traffic must be frozen.
	time.Sleep(20 * time.Millisecond)
	if after := db.FlashStats().PagesRead[flash.Aquoman]; after != got {
		t.Fatalf("flash stats still growing after return: %d -> %d", got, after)
	}
}

// TestPreCancelledRunsNothing verifies a dead context stops the query
// before it touches the device at all.
func TestPreCancelledRunsNothing(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	p, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	db.ResetFlashStats()
	if _, err := db.Do(ctx, Request{Plan: p}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := db.FlashStats().PagesRead[flash.Aquoman] + db.FlashStats().PagesRead[flash.Host]; n != 0 {
		t.Fatalf("pre-cancelled query read %d pages", n)
	}
}

// TestDeadlineCancels verifies context.WithTimeout flows through Do
// and surfaces as DeadlineExceeded.
func TestDeadlineCancels(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	// The query parks on its first device read and is held there for ten
	// deadlines, so the deadline fires mid-scan by construction.
	gate := faults.NewGate()
	gate.Install(db.Flash)
	defer gate.Release()
	gate.ReleaseAfter(20 * time.Millisecond)
	p, err := TPCHQuery(6)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = db.Do(ctx, Request{Plan: p})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("deadline honoured too slowly: %v", wall)
	}
}

// TestHostOnlyCancel covers the pure-host path (no offload units).
func TestHostOnlyCancel(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	p, err := TPCHQuery(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Do(ctx, Request{Plan: p, HostOnly: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestQueryCtxCompileError verifies QueryCtx reports bad SQL as a
// CompileError (not a context error) even with a dead context.
func TestQueryCtxCompileError(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryCtx(ctx, "select nonsense from nowhere")
	var ce *CompileError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CompileError, got %v", err)
	}
}

// TestHostTextReadHonoursContext: a host LIKE over a Text column, and a
// host ORDER BY on one, resolve every row's string, which reads the
// column's whole string heap, and that read belongs to the query — it
// stops at the next chunk once the context dies, and the time the device
// takes is device_read, not host. Mutations: engine.materializeText or
// execOrderBy resolving the strings with a nil context, or with
// ColumnInfo.Str per row, reads every heap page after the cancel and
// leaves the heap's device trip in host.
func TestHostTextReadHonoursContext(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.01, 42); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, big, small string }{
		{"like",
			"select count(*) as n from lineitem where l_comment like '%quick%'",
			"select count(*) as n from region where r_comment like '%a%'"},
		{"order-by",
			"select l_comment from lineitem order by l_comment limit 3",
			"select r_comment from region order by r_comment"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			big := Request{SQL: tc.big, HostOnly: true}
			db.ResetFlashStats()
			if _, err := db.Do(context.Background(), big); err != nil {
				t.Fatal(err)
			}
			total := db.FlashStats().PagesRead[flash.Host]

			// Park the query on its first heap page, cancel it there, let the
			// read in flight complete: at most one chunk of the heap may follow.
			gate := faults.NewGate()
			inj := faults.New(faults.Config{})
			inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
				if strings.HasSuffix(file, ".heap") {
					return gate.Hook(file, page, who, attempt)
				}
				return 0, false
			}
			db.WithFaults(inj)
			defer db.WithFaults(nil)
			db.ResetFlashStats()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				_, err := db.Do(ctx, big)
				errc <- err
			}()
			select {
			case <-gate.Entered():
			case <-time.After(10 * time.Second):
				t.Fatal("the query never reached its string heap")
			}
			cancel()
			gate.Release()
			if err := <-errc; !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled on the heap read: err = %v, want context.Canceled", err)
			}
			read := db.FlashStats().PagesRead[flash.Host]
			if read >= total {
				t.Fatalf("read all %d of the query's %d host pages: the heap read ignored the cancel", read, total)
			}
			time.Sleep(20 * time.Millisecond)
			if again := db.FlashStats().PagesRead[flash.Host]; again != read {
				t.Fatalf("flash traffic still growing after the query returned: %d -> %d pages", read, again)
			}
			db.WithFaults(nil)

			// Two device trips, tR each: region's one page of r_comment
			// offsets and its one-page heap. Both are device_read.
			const tR = 20 * time.Millisecond
			db.Flash.SetReadLatency(tR)
			defer db.Flash.SetReadLatency(0)
			lc := NewLifecycle("text")
			if _, err := db.Do(WithLifecycle(context.Background(), lc), Request{SQL: tc.small, HostOnly: true}); err != nil {
				t.Fatal(err)
			}
			lc.Finish()
			if got := time.Duration(lc.Breakdown()["device_read"]); got < 2*tR*9/10 {
				t.Fatalf("device_read = %v for two %v trips (host = %v): the heap's trip is not device time",
					got, tR, time.Duration(lc.Breakdown()["host"]))
			}
		})
	}
}

// TestUpdateTextReadHonoursContext: an UPDATE resolves the unchanged Text
// cells of its victim rows back to strings, and that heap read belongs to
// the statement. Parked on it and cancelled there, the UPDATE returns
// context.Canceled, commits nothing and leaves the epoch where it was.
// Mutation: resolving the cells without the statement's context commits
// the update once the gate opens.
func TestUpdateTextReadHonoursContext(t *testing.T) {
	db := Open()
	if err := db.LoadTPCH(0.005, 1); err != nil {
		t.Fatal(err)
	}
	const victim = "select n_regionkey from nation where n_nationkey = 3"
	before, err := db.Query(victim)
	if err != nil {
		t.Fatal(err)
	}
	epoch := db.Catalog().Epoch()

	gate := faults.NewGate()
	inj := faults.New(faults.Config{})
	inj.Hook = func(file string, page int64, who flash.Requester, attempt int) (faults.Kind, bool) {
		if strings.HasSuffix(file, ".heap") {
			return gate.Hook(file, page, who, attempt)
		}
		return 0, false
	}
	db.WithFaults(inj)
	defer db.WithFaults(nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := db.Exec(ctx, "UPDATE nation SET n_regionkey = 4 WHERE n_nationkey = 3")
		errc <- err
	}()
	select {
	case <-gate.Entered():
	case <-time.After(10 * time.Second):
		t.Fatal("the UPDATE never reached a string heap")
	}
	cancel()
	gate.Release()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled on the heap read: err = %v, want context.Canceled", err)
	}
	db.WithFaults(nil)
	if got := db.Catalog().Epoch(); got != epoch {
		t.Fatalf("epoch %d -> %d: the cancelled UPDATE committed", epoch, got)
	}
	after, err := db.Query(victim)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := after.Render(0), before.Render(0); a != b {
		t.Fatalf("victim row changed by a cancelled UPDATE:\n%s\nwas\n%s", a, b)
	}
}
