// Command benchcheck compares a freshly measured benchmark report
// against the committed baseline with tolerance bands, instead of
// hard-coding absolute thresholds in CI:
//
//	benchcheck -baseline BENCH_conc.json -fresh BENCH_fresh.json
//	benchcheck -mode enc -baseline BENCH_enc.json -fresh BENCH_fresh.json
//
// -mode conc (default) gates the concurrent-stream report
// (cmd/aquoman-bench -report concbench); -mode enc gates the
// column-encoding report (-report encbench): every query must be
// cell-identical to the raw run, save at least -min-saving percent of
// flash pages, and stay within -saving-abs points of the committed
// baseline's saving (page *counts* are not compared — the baseline is
// measured at a larger scale factor than CI runs); -mode prof gates the
// query-lifecycle telemetry report (-report profbench): every stream
// count must attribute at least -min-coverage of per-query wall time to
// named lifecycle states with the full state vocabulary present, and
// the report's in-run telemetry overhead (median of back-to-back
// base/profiled wall ratios, so machine drift cancels) must stay under
// -max-overhead percent. Per-stream overhead and q/s vs. the committed
// baseline are warn-only — they are raw wall-clock comparisons. -mode
// scale gates the fused-path scaling report (-report scalebench):
// 32-stream q/s must clear -min-scale times the recorded pre-fusion
// 16-stream plateau, must not drop more than -scale-rel below the same
// run's 16-stream q/s, and every fused_allocs_per_scan figure must stay
// within -max-allocs (zero by default — the fused loop's whole point).
// -mode tenant gates the mixed-tenant report (-report tenantbench):
// the 22-query cached-vs-direct oracle must be identical, every
// dashboard tenant must hold a result-cache hit rate of at least
// -hit-floor, and each dashboard p99 must stay under -tail-ratio of the
// same run's scan-tenant p50 while at least -min-scan scans completed —
// the tail-latency isolation the priority lanes and result cache exist
// to provide. -mode ingest gates the write-path report (-report
// ingestbench): the pre-merge (overlay) and post-merge q6 answers must
// be cell-exact equal, the row accounting must balance, INSERT
// throughput must clear -min-ingest rows/sec, and the HTAP overlay
// query slowdown must stay under -overlay-ceil times the clean query.
//
// Deterministic metrics get tight bands; wall-clock-derived ones are
// warn-only (CI runners are noisy):
//
//   - speedup_4_vs_1: relative band (default 50% below baseline fails) —
//     a ratio of two wall clocks on the same machine, so more stable than
//     either wall clock alone. The band was 25% while the device slept
//     once per page and four streams shared one stream's sleeps (3.9x,
//     whatever the cores); behind the queued device both runs are
//     CPU-bound and tens of milliseconds long, the ratio is the cores'
//     (2.3x recorded on 2 vCPUs, 1.35-2.6x over five recordings), and the
//     gate only asks that four streams still clearly beat one.
//   - cache_hit_rate per stream count: absolute band (default 0.05 below
//     baseline fails) — deterministic given the access pattern.
//   - device_pages_read per stream count: relative band (default 10%
//     above baseline fails) — more device reads means the single-flight
//     cache stopped coalescing.
//   - queries_per_sec: warn-only, printed for the log.
//
// On regression it prints a diff of every out-of-band metric and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"aquoman/internal/obs"
)

type streamEntry struct {
	Streams         int     `json:"streams"`
	Queries         int     `json:"queries"`
	WallNS          int64   `json:"wall_ns"`
	QueriesPerSec   float64 `json:"queries_per_sec"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	CacheHits       int64   `json:"cache_hits"`
	CacheMisses     int64   `json:"cache_misses"`
	DevicePagesRead int64   `json:"device_pages_read"`
}

type report struct {
	SF          float64       `json:"sf"`
	Speedup4Vs1 float64       `json:"speedup_4_vs_1"`
	Streams     []streamEntry `json:"streams"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

type encEntry struct {
	Query     string  `json:"query"`
	RawPages  int64   `json:"raw_pages"`
	EncPages  int64   `json:"enc_pages"`
	SavingPct float64 `json:"saving_pct"`
	Identical bool    `json:"identical"`
}

type encReport struct {
	SF       float64    `json:"sf"`
	RawBytes int64      `json:"raw_bytes"`
	EncBytes int64      `json:"enc_bytes"`
	Queries  []encEntry `json:"queries"`
}

func loadEnc(path string) (*encReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r encReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func checkEnc(baselinePath, freshPath string, minSaving, savingAbs float64) {
	base, err := loadEnc(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := loadEnc(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	baseByQuery := make(map[string]encEntry, len(base.Queries))
	for _, e := range base.Queries {
		baseByQuery[e.Query] = e
	}
	for _, f := range fresh.Queries {
		if !f.Identical {
			fail("%s: encoded result differs from raw", f.Query)
		}
		if f.SavingPct < minSaving {
			fail("%s saving_pct: %.1f < %.1f (hard floor)", f.Query, f.SavingPct, minSaving)
		}
		b, ok := baseByQuery[f.Query]
		if !ok {
			fmt.Printf("%s: no baseline entry, skipping band check\n", f.Query)
			continue
		}
		floor := b.SavingPct - savingAbs
		if f.SavingPct < floor {
			fail("%s saving_pct: %.1f < %.1f (baseline %.1f - %.1f)",
				f.Query, f.SavingPct, floor, b.SavingPct, savingAbs)
		}
		fmt.Printf("%s: saving %.1f%% (baseline %.1f%%), %d -> %d pages, identical=%v\n",
			f.Query, f.SavingPct, b.SavingPct, f.RawPages, f.EncPages, f.Identical)
	}
	if fresh.EncBytes >= fresh.RawBytes {
		fail("enc_bytes: %d >= raw_bytes %d — encoding grew the store", fresh.EncBytes, fresh.RawBytes)
	}
	fmt.Printf("store: %.2f MB raw -> %.2f MB encoded\n",
		float64(fresh.RawBytes)/1e6, float64(fresh.EncBytes)/1e6)

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all encoding metrics within tolerance")
}

type profEntry struct {
	Streams       int              `json:"streams"`
	Queries       int              `json:"queries"`
	BaseQPS       float64          `json:"base_queries_per_sec"`
	QueriesPerSec float64          `json:"queries_per_sec"`
	OverheadPct   float64          `json:"overhead_pct"`
	QueryWallNs   int64            `json:"query_wall_ns"`
	AttributedNs  int64            `json:"attributed_ns"`
	Coverage      float64          `json:"coverage"`
	States        map[string]int64 `json:"states_ns"`
}

type profReport struct {
	SF          float64     `json:"sf"`
	Reps        int         `json:"reps"`
	Entries     []profEntry `json:"streams"`
	OverheadPct float64     `json:"overhead_pct"`
}

func loadProf(path string) (*profReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r profReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func checkProf(baselinePath, freshPath string, minCoverage, maxOverhead float64) {
	base, err := loadProf(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := loadProf(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	baseByStreams := make(map[int]profEntry, len(base.Entries))
	for _, e := range base.Entries {
		baseByStreams[e.Streams] = e
	}
	if len(fresh.Entries) == 0 {
		fail("fresh report has no stream entries")
	}
	for _, f := range fresh.Entries {
		if f.Coverage < minCoverage {
			fail("streams=%d coverage: %.4f < %.2f (hard floor) — lifecycle attribution lost track of %.1f%% of wall time",
				f.Streams, f.Coverage, minCoverage, 100*(1-f.Coverage))
		}
		for _, name := range obs.StateNames() {
			if _, ok := f.States[name]; !ok {
				fail("streams=%d states_ns: missing state %q — report schema drifted", f.Streams, name)
			}
		}
		// Per-stream overhead is a median of only `reps` samples; warn, do
		// not fail — the report-level median below is the gated statistic.
		note := ""
		if f.OverheadPct > maxOverhead {
			note = fmt.Sprintf("  (WARN: above %.1f%%)", maxOverhead)
		}
		if b, ok := baseByStreams[f.Streams]; ok && f.QueriesPerSec < b.QueriesPerSec*0.5 {
			note += "  (WARN: less than half of baseline q/s)"
		}
		fmt.Printf("streams=%d: coverage %.1f%% (floor %.0f%%), overhead %+.2f%%, %.1f q/s%s\n",
			f.Streams, 100*f.Coverage, 100*minCoverage, f.OverheadPct, f.QueriesPerSec, note)
	}
	if fresh.OverheadPct > maxOverhead {
		fail("overhead_pct: %+.2f%% > %.1f%% — telemetry is slowing queries down", fresh.OverheadPct, maxOverhead)
	}
	fmt.Printf("telemetry overhead: %+.2f%% (ceiling %.1f%%, baseline %+.2f%%)\n",
		fresh.OverheadPct, maxOverhead, base.OverheadPct)

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all telemetry metrics within tolerance")
}

type scaleReport struct {
	SF            float64            `json:"sf"`
	Reps          int                `json:"reps"`
	PlateauQPS    float64            `json:"pre_fusion_plateau_qps"`
	Streams       []streamEntry      `json:"streams"`
	Speedup32Vs16 float64            `json:"speedup_32_vs_16"`
	FusedAllocs   map[string]float64 `json:"fused_allocs_per_scan"`
}

func loadScale(path string) (*scaleReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r scaleReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func checkScale(baselinePath, freshPath string, minScale, scaleRel, maxAllocs float64) {
	base, err := loadScale(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := loadScale(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	byStreams := make(map[int]streamEntry, len(fresh.Streams))
	for _, e := range fresh.Streams {
		byStreams[e.Streams] = e
	}
	s16, ok16 := byStreams[16]
	s32, ok32 := byStreams[32]
	if !ok16 || !ok32 {
		fmt.Fprintln(os.Stderr, "benchcheck: scale report must carry 16- and 32-stream entries")
		os.Exit(2)
	}
	if fresh.PlateauQPS <= 0 {
		fmt.Fprintln(os.Stderr, "benchcheck: scale report has no pre_fusion_plateau_qps")
		os.Exit(2)
	}

	// The plateau break is the point of the fused path, so unlike every
	// other q/s figure it is gated, not warned: the pre-fusion 16-stream
	// plateau is a constant recorded in the report, and the fused
	// 32-stream run must clear minScale times it. The margin (40% by
	// default) is what keeps a wall-clock gate tolerable on noisy runners.
	floor := fresh.PlateauQPS * minScale
	if s32.QueriesPerSec < floor {
		fail("streams=32 queries_per_sec: %.2f < %.2f (plateau %.2f x %.2f) — the fused path no longer breaks the 16-stream plateau",
			s32.QueriesPerSec, floor, fresh.PlateauQPS, minScale)
	}
	fmt.Printf("streams=32: %.2f q/s (floor %.2f = pre-fusion plateau %.2f x %.2f)\n",
		s32.QueriesPerSec, floor, fresh.PlateauQPS, minScale)

	// Going from 16 to 32 streams must not collapse throughput: both
	// numbers come from the same process minutes apart, so a relative
	// band on their ratio is stable where absolute q/s is not.
	ratioFloor := 1 - scaleRel
	if fresh.Speedup32Vs16 < ratioFloor {
		fail("speedup_32_vs_16: %.3f < %.3f — 32 streams lost more than %.0f%% of 16-stream throughput",
			fresh.Speedup32Vs16, ratioFloor, scaleRel*100)
	}
	fmt.Printf("speedup_32_vs_16: %.3f (floor %.3f, baseline %.3f), 16-stream %.2f q/s\n",
		fresh.Speedup32Vs16, ratioFloor, base.Speedup32Vs16, s16.QueriesPerSec)

	// The allocation budget is exact: the fused scan loop is designed to
	// allocate nothing in steady state, and any nonzero figure is a pool
	// or scratch regression that GC pressure will amplify at 32 streams.
	if len(fresh.FusedAllocs) == 0 {
		fail("fused_allocs_per_scan: missing — report schema drifted")
	}
	for shape, allocs := range fresh.FusedAllocs {
		if allocs > maxAllocs {
			fail("fused_allocs_per_scan[%s]: %.1f > %.1f — the fused loop allocates in steady state",
				shape, allocs, maxAllocs)
		}
		fmt.Printf("fused_allocs_per_scan[%s]: %.1f (budget %.1f)\n", shape, allocs, maxAllocs)
	}

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all scaling metrics within tolerance")
}

type tenantEntry struct {
	Tenant  string  `json:"tenant"`
	Weight  int     `json:"weight"`
	Lane    string  `json:"lane"`
	Queries int64   `json:"queries"`
	HitRate float64 `json:"hit_rate"`
	P50Ms   float64 `json:"p50_ms"`
	P99Ms   float64 `json:"p99_ms"`
	Grants  int64   `json:"grants"`
}

type tenantReport struct {
	SF              float64       `json:"sf"`
	Streams         int           `json:"streams"`
	ScanP50Ms       float64       `json:"scan_p50_ms"`
	OracleQueries   int           `json:"oracle_queries"`
	OracleIdentical bool          `json:"oracle_identical"`
	Tenants         []tenantEntry `json:"tenants"`
}

func loadTenant(path string) (*tenantReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r tenantReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// checkTenant gates the mixed-tenant report (-report tenantbench). The
// hard gates are self-normalizing or deterministic: the oracle
// differential (cached results byte-identical to direct execution over
// all 22 TPC-H queries), per-dashboard result-cache hit rate, and each
// dashboard tenant's p99 relative to the same run's scan p50 — the
// tail-latency isolation the priority lanes and the result cache exist
// to provide. Absolute latencies vs the baseline are warn-only.
func checkTenant(baselinePath, freshPath string, hitFloor, tailRatio float64, minScan int64) {
	base, err := loadTenant(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := loadTenant(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	if fresh.OracleQueries < 22 {
		fail("oracle_queries: %d < 22 — the cached-vs-direct differential no longer covers the full suite", fresh.OracleQueries)
	}
	if !fresh.OracleIdentical {
		fail("oracle_identical: false — the result cache served something other than the direct answer")
	}
	fmt.Printf("oracle: %d queries, identical=%v\n", fresh.OracleQueries, fresh.OracleIdentical)

	baseByTenant := make(map[string]tenantEntry, len(base.Tenants))
	for _, e := range base.Tenants {
		baseByTenant[e.Tenant] = e
	}
	var sawScan, sawDash bool
	for _, e := range fresh.Tenants {
		b := baseByTenant[e.Tenant]
		if e.Lane == "batch" {
			sawScan = true
			if e.Queries < minScan {
				fail("tenant %s: %d scan queries < %d — the saturating load is gone, the tail gate below is meaningless",
					e.Tenant, e.Queries, minScan)
			}
			fmt.Printf("tenant %-7s: %5d scans, p50 %.2f ms (baseline %.2f)\n", e.Tenant, e.Queries, e.P50Ms, b.P50Ms)
			continue
		}
		sawDash = true
		if e.Queries == 0 {
			fail("tenant %s: zero queries measured", e.Tenant)
			continue
		}
		if e.HitRate < hitFloor {
			fail("tenant %s hit_rate: %.3f < %.2f — the result cache stopped absorbing the dashboard load",
				e.Tenant, e.HitRate, hitFloor)
		}
		// The tail gate is a ratio of two latencies from the same run on
		// the same machine: dashboards must stay orders of magnitude under
		// the scans they share the scheduler with.
		ceil := fresh.ScanP50Ms * tailRatio
		if e.P99Ms > ceil {
			fail("tenant %s p99: %.2f ms > %.2f ms (scan p50 %.2f x %.2f) — interactive tail latency is no longer isolated from scans",
				e.Tenant, e.P99Ms, ceil, fresh.ScanP50Ms, tailRatio)
		}
		note := ""
		if b.P99Ms > 0 && e.P99Ms > 10*b.P99Ms {
			note = "  (WARN: >10x baseline p99)"
		}
		fmt.Printf("tenant %-7s: %5d queries, hit_rate %.3f (floor %.2f), p99 %.2f ms (ceil %.2f, baseline %.2f)%s\n",
			e.Tenant, e.Queries, e.HitRate, hitFloor, e.P99Ms, ceil, b.P99Ms, note)
	}
	if !sawScan || !sawDash {
		fail("report must carry both a batch scan tenant and interactive dashboard tenants (scan=%v dash=%v)", sawScan, sawDash)
	}

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all tenant-isolation metrics within tolerance")
}

type ingestReport struct {
	SF                   float64 `json:"sf"`
	RowsInserted         int     `json:"rows_inserted"`
	InsertsPerSec        float64 `json:"inserts_per_sec"`
	UpdateRows           int     `json:"update_rows"`
	DeleteRows           int     `json:"delete_rows"`
	Q6CleanNs            int64   `json:"q6_clean_ns"`
	Q6OverlayNs          int64   `json:"q6_overlay_ns"`
	OverlaySlowdown      float64 `json:"overlay_slowdown"`
	MergeNs              int64   `json:"merge_ns"`
	Q6MergedNs           int64   `json:"q6_merged_ns"`
	MergedMatchesOverlay bool    `json:"merged_matches_overlay"`
	RowsOK               bool    `json:"rows_ok"`
}

func loadIngest(path string) (*ingestReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r ingestReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// checkIngest gates the write-path report. The hard gates are the
// deterministic ones: coherence (merging the delta must not change any
// query answer), row accounting, a write actually landing (update and
// delete touched rows), and two self-normalizing ratios — insert
// throughput against an intentionally loose absolute floor, and the
// overlay-query slowdown, a ratio of two wall clocks from the same run.
// Raw throughput vs the committed baseline is warn-only.
func checkIngest(baselinePath, freshPath string, minIngest, overlayCeil float64) {
	base, err := loadIngest(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := loadIngest(freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	if !fresh.MergedMatchesOverlay {
		fail("merged_matches_overlay: false — merging the delta store changed a query answer")
	}
	if !fresh.RowsOK {
		fail("rows_ok: false — post-merge row count does not balance inserts minus deletes")
	}
	if fresh.RowsInserted == 0 || fresh.UpdateRows == 0 || fresh.DeleteRows == 0 {
		fail("write coverage: inserts=%d updates=%d deletes=%d — a DML path stopped touching rows",
			fresh.RowsInserted, fresh.UpdateRows, fresh.DeleteRows)
	}
	if fresh.InsertsPerSec < minIngest {
		fail("inserts_per_sec: %.0f < %.0f — ingest throughput collapsed", fresh.InsertsPerSec, minIngest)
	}
	if fresh.OverlaySlowdown > overlayCeil {
		fail("overlay_slowdown: %.2fx > %.2fx — HTAP reads over the un-merged delta got pathologically slow",
			fresh.OverlaySlowdown, overlayCeil)
	}
	note := ""
	if base.InsertsPerSec > 0 && fresh.InsertsPerSec < base.InsertsPerSec*0.5 {
		note = "  (WARN: less than half of baseline)"
	}
	fmt.Printf("coherence: merged_matches_overlay=%v rows_ok=%v\n",
		fresh.MergedMatchesOverlay, fresh.RowsOK)
	fmt.Printf("ingest: %.0f rows/sec (floor %.0f, baseline %.0f)%s\n",
		fresh.InsertsPerSec, minIngest, base.InsertsPerSec, note)
	fmt.Printf("overlay: %.2fx slowdown (ceil %.2fx, baseline %.2fx); merge %.2f ms (baseline %.2f)\n",
		fresh.OverlaySlowdown, overlayCeil, base.OverlaySlowdown,
		float64(fresh.MergeNs)/1e6, float64(base.MergeNs)/1e6)

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all ingest metrics within tolerance")
}

func main() {
	var (
		mode         = flag.String("mode", "conc", "report type: conc|enc|prof|scale|tenant|ingest")
		baselinePath = flag.String("baseline", "", "committed baseline report (default BENCH_conc.json or BENCH_enc.json by mode)")
		freshPath    = flag.String("fresh", "", "freshly measured report (required)")
		speedupRel   = flag.Float64("speedup-rel", 0.5, "allowed relative drop in speedup_4_vs_1")
		hitAbs       = flag.Float64("hit-abs", 0.05, "allowed absolute drop in cache_hit_rate")
		pagesRel     = flag.Float64("pages-rel", 0.10, "allowed relative growth in device_pages_read")
		minSaving    = flag.Float64("min-saving", 40, "enc: hard floor on per-query saving_pct")
		savingAbs    = flag.Float64("saving-abs", 10, "enc: allowed absolute drop in saving_pct vs baseline")
		minCoverage  = flag.Float64("min-coverage", 0.90, "prof: hard floor on per-stream lifecycle attribution coverage")
		maxOverhead  = flag.Float64("max-overhead", 2.0, "prof: ceiling on report-level telemetry overhead percent")
		minScale     = flag.Float64("min-scale", 1.4, "scale: 32-stream q/s must clear this multiple of the recorded pre-fusion plateau")
		scaleRel     = flag.Float64("scale-rel", 0.25, "scale: allowed relative drop of 32-stream q/s below the same run's 16-stream q/s")
		maxAllocs    = flag.Float64("max-allocs", 0, "scale: budget for steady-state heap allocations per fused scan")
		hitFloor     = flag.Float64("hit-floor", 0.8, "tenant: hard floor on each dashboard tenant's result-cache hit rate")
		tailRatio    = flag.Float64("tail-ratio", 0.5, "tenant: each dashboard p99 must stay under this fraction of the same run's scan p50")
		minScan      = flag.Int64("min-scan", 16, "tenant: minimum completed scan-tenant queries for the run to count as saturated")
		minIngest    = flag.Float64("min-ingest", 1000, "ingest: hard floor on inserts_per_sec")
		overlayCeil  = flag.Float64("overlay-ceil", 50, "ingest: ceiling on overlay_slowdown (overlay q6 / clean q6)")
	)
	flag.Parse()
	if *freshPath == "" {
		fmt.Fprintln(os.Stderr, "benchcheck: -fresh is required")
		os.Exit(2)
	}
	if *baselinePath == "" {
		switch *mode {
		case "enc":
			*baselinePath = "BENCH_enc.json"
		case "prof":
			*baselinePath = "BENCH_prof.json"
		case "scale":
			*baselinePath = "BENCH_scale.json"
		case "tenant":
			*baselinePath = "BENCH_tenant.json"
		case "ingest":
			*baselinePath = "BENCH_ingest.json"
		default:
			*baselinePath = "BENCH_conc.json"
		}
	}
	if *mode == "enc" {
		checkEnc(*baselinePath, *freshPath, *minSaving, *savingAbs)
		return
	}
	if *mode == "prof" {
		checkProf(*baselinePath, *freshPath, *minCoverage, *maxOverhead)
		return
	}
	if *mode == "scale" {
		checkScale(*baselinePath, *freshPath, *minScale, *scaleRel, *maxAllocs)
		return
	}
	if *mode == "tenant" {
		checkTenant(*baselinePath, *freshPath, *hitFloor, *tailRatio, *minScan)
		return
	}
	if *mode == "ingest" {
		checkIngest(*baselinePath, *freshPath, *minIngest, *overlayCeil)
		return
	}

	base, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	fresh, err := load(*freshPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}

	var regressed []string
	fail := func(format string, args ...interface{}) {
		regressed = append(regressed, fmt.Sprintf(format, args...))
	}

	// Speedup ratio: wall-clock based but self-normalizing.
	floor := base.Speedup4Vs1 * (1 - *speedupRel)
	if fresh.Speedup4Vs1 < floor {
		fail("speedup_4_vs_1: %.3f < %.3f (baseline %.3f - %.0f%%)",
			fresh.Speedup4Vs1, floor, base.Speedup4Vs1, *speedupRel*100)
	}
	fmt.Printf("speedup_4_vs_1: fresh %.3f vs baseline %.3f (floor %.3f)\n",
		fresh.Speedup4Vs1, base.Speedup4Vs1, floor)

	baseByStreams := make(map[int]streamEntry, len(base.Streams))
	for _, e := range base.Streams {
		baseByStreams[e.Streams] = e
	}
	for _, f := range fresh.Streams {
		b, ok := baseByStreams[f.Streams]
		if !ok {
			fmt.Printf("streams=%d: no baseline entry, skipping\n", f.Streams)
			continue
		}
		hitFloor := b.CacheHitRate - *hitAbs
		if f.CacheHitRate < hitFloor {
			fail("streams=%d cache_hit_rate: %.4f < %.4f (baseline %.4f - %.2f)",
				f.Streams, f.CacheHitRate, hitFloor, b.CacheHitRate, *hitAbs)
		}
		pagesCeil := float64(b.DevicePagesRead) * (1 + *pagesRel)
		if float64(f.DevicePagesRead) > pagesCeil {
			fail("streams=%d device_pages_read: %d > %.0f (baseline %d + %.0f%%)",
				f.Streams, f.DevicePagesRead, pagesCeil, b.DevicePagesRead, *pagesRel*100)
		}
		// Wall-clock throughput is warn-only: absolute q/s varies with
		// runner load, and the speedup ratio above already gates scaling.
		note := ""
		if f.QueriesPerSec < b.QueriesPerSec*0.5 {
			note = "  (WARN: less than half of baseline)"
		}
		fmt.Printf("streams=%d: hit_rate %.4f (baseline %.4f), pages %d (baseline %d), %.1f q/s (baseline %.1f)%s\n",
			f.Streams, f.CacheHitRate, b.CacheHitRate, f.DevicePagesRead, b.DevicePagesRead,
			f.QueriesPerSec, b.QueriesPerSec, note)
	}

	if len(regressed) > 0 {
		fmt.Println("\nREGRESSED METRICS:")
		for _, r := range regressed {
			fmt.Println("  -", r)
		}
		os.Exit(1)
	}
	fmt.Println("benchcheck: all metrics within tolerance")
}
