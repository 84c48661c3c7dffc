package tabletask_test

import (
	"fmt"
	"testing"
	"time"

	"aquoman"
	"aquoman/internal/flash"
	"aquoman/internal/tabletask"
	"aquoman/internal/tpch"
)

// The no-over-read invariant of the window-major fused scan: because every
// window's page set is derived from the row mask, a scan with the full
// 128-page window reads from the device exactly the pages the same scan
// reads with the window shrunk to a single vector — which is the
// page-at-a-time order of a vector-major loop. Held per requester over all
// 22 TPC-H queries plus a range scan run back to back, on a raw store and
// an auto-encoded one (variable rows per page):
//
//   - straight off the device, where every page a reader loads is a device
//     read, so a mis-planned window cannot hide;
//   - through a cache that holds everything, where the device sees each
//     distinct page once, so a page no vector needed would show;
//   - through a cache a fraction of a query's footprint, where which pages
//     survive from one query to the next depends on the order of reads and
//     so may differ between the two orders — there the invariant is that
//     no reader's page costs the device more than one read (a page evicted
//     between its fetch and its use would cost two).
//
// The windowed runs have the wall-clock device model switched on, as
// cold_scan does; page accounting does not depend on it.

// rangeScan has a predicate on the clustered l_orderkey first, so that the
// columns after it really skip whole pages and zone maps really prune.
const rangeScan = `select sum(l_extendedprice), sum(l_quantity), count(*) from lineitem
	where l_orderkey >= 20000 and l_orderkey < 24000 and l_discount >= 0.02`

// pageCounts is what one pass read: device traffic, and the readers' own
// accounting summed over every Table Task.
type pageCounts struct {
	dev                   flash.Stats
	read, skipped, pruned int64
}

// scanAll runs the given TPC-H queries and then rangeScan.
func scanAll(t *testing.T, db *aquoman.DB, queries []int) (all, ranged pageCounts) {
	t.Helper()
	add := func(pc *pageCounts, tr tabletask.Trace) {
		pc.read += tr.Total(func(tt *tabletask.TaskTrace) int64 { return tt.PagesRead })
		pc.skipped += tr.Total(func(tt *tabletask.TaskTrace) int64 { return tt.PagesSkipped })
		pc.pruned += tr.Total(func(tt *tabletask.TaskTrace) int64 { return tt.PagesPruned })
	}
	before := db.FlashStats()
	for _, q := range queries {
		p, err := aquoman.TPCHQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Run(p)
		if err != nil {
			t.Fatalf("q%d: %v", q, err)
		}
		add(&all, res.Report.AquomanTrace)
	}
	res, err := db.Query(rangeScan)
	if err != nil {
		t.Fatal(err)
	}
	add(&all, res.Report.AquomanTrace)
	add(&ranged, res.Report.AquomanTrace)
	all.dev = db.FlashStats().Sub(before)
	return all, ranged
}

func TestWindowNeverOverReads(t *testing.T) {
	var all22 []int
	for _, q := range tpch.Queries() {
		all22 = append(all22, q.Num)
	}
	for _, encoding := range []aquoman.Encoding{aquoman.EncRaw, aquoman.EncAuto} {
		for _, tc := range []struct {
			cacheMiB int64
			queries  []int
		}{
			{0, all22},
			{64, all22},
			{1, []int{1, 6}}, // fused scans only: every device read is a reader's page
		} {
			t.Run(fmt.Sprintf("enc=%v/cache=%dMiB", encoding, tc.cacheMiB), func(t *testing.T) {
				open := func(tR time.Duration) *aquoman.DB {
					db := aquoman.Open()
					db.SetDefaultEncoding(encoding)
					if err := db.LoadTPCH(0.01, 42); err != nil {
						t.Fatal(err)
					}
					if tc.cacheMiB > 0 {
						db.EnableCache(tc.cacheMiB << 20)
					}
					db.Flash.SetReadLatency(tR)
					return db
				}
				restore := tabletask.SetWindowPages(1)
				one, oneRange := scanAll(t, open(0), tc.queries)
				restore()
				full, fullRange := scanAll(t, open(20*time.Microsecond), tc.queries)

				if full.dev.PagesRead[flash.Aquoman] == 0 {
					t.Fatal("nothing was offloaded: the comparison is vacuous")
				}
				if tc.cacheMiB == 1 {
					if dev := full.dev.PagesRead[flash.Aquoman]; dev > full.read {
						t.Errorf("%d device reads for %d reader pages: a page was fetched and read again", dev, full.read)
					}
				} else {
					for _, who := range []flash.Requester{flash.Aquoman, flash.Host} {
						if f, o := full.dev.PagesRead[who], one.dev.PagesRead[who]; f != o {
							t.Errorf("%s device pages: %d with the 128-page window, %d one vector at a time", who, f, o)
						}
					}
				}
				// The readers' own accounting never depends on the window.
				if full.read != one.read || full.skipped != one.skipped || full.pruned != one.pruned {
					t.Errorf("reader pages read/skipped/pruned: %d/%d/%d windowed, %d/%d/%d one vector at a time",
						full.read, full.skipped, full.pruned, one.read, one.skipped, one.pruned)
				}
				// The range scan is where the mask matters: zone maps prune
				// l_orderkey's pages (encoded stores only) and the later
				// columns skip every page the key range masked out.
				if fullRange != oneRange {
					t.Errorf("range scan: %+v windowed, %+v one vector at a time", fullRange, oneRange)
				}
				if fullRange.skipped == 0 {
					t.Error("range scan skipped no pages: later columns did not profit from the key range")
				}
				if encoding == aquoman.EncAuto && fullRange.pruned == 0 {
					t.Error("range scan pruned no pages on the encoded store")
				}
			})
		}
	}
}
