package main

import (
	"context"
	"fmt"
	"time"

	"aquoman"
	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/delta"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/sched"
)

const (
	mb       = 1 << 20
	pageLat  = 100 * time.Microsecond // cold_scan's -pagelat
	latPages = 128                    // pages per latency-rung pass
)

// flashFile returns a device holding one file of n pages.
func flashFile(n int) (*flash.Device, *flash.File) {
	dev := flash.NewDevice()
	f := dev.Create("ladder")
	page := make([]byte, flash.PageSize)
	for i := range page {
		page[i] = byte(i)
	}
	for i := 0; i < n; i++ {
		f.Append(page, flash.Host)
	}
	return dev, f
}

// readPass reads the first n pages sequentially through ReadAtCtx under a
// cancellable context, which is the path a served query's scan takes.
func readPass(f *flash.File, n int, buf []byte) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for off := int64(0); off < int64(n)*flash.PageSize; off += int64(len(buf)) {
		if _, err := f.ReadAtCtx(ctx, buf, off, flash.Aquoman); err != nil {
			return err
		}
	}
	return nil
}

var storageRungs = []rung{
	{"flash.read_seq_mb_per_s", "MB/s", func(e *env) (float64, error) {
		const pages = 8192 // 64 MiB
		_, f := flashFile(pages)
		buf := make([]byte, mb)
		s, err := e.t.median(func() error { return readPass(f, pages, buf) })
		return pages * flash.PageSize / mb / s, err
	}},
	{"flash.read_lat_cached_us_per_page", "us", func(e *env) (float64, error) {
		// Through a cache a quarter the size of the pass: every page is a
		// miss, filled singly, so the device sleeps once per page.
		dev, f := flashFile(latPages)
		dev.SetPageCache(sched.NewPageCache(latPages / 4 * flash.PageSize))
		dev.SetReadLatency(pageLat)
		buf := make([]byte, 64*flash.PageSize)
		s, err := e.t.median(func() error { return readPass(f, latPages, buf) })
		return s * 1e6 / latPages, err
	}},
	{"flash.read_lat_direct_us_per_page", "us", func(e *env) (float64, error) {
		// With no cache the device sleeps once per 64-page chunk.
		dev, f := flashFile(latPages)
		dev.SetReadLatency(pageLat)
		buf := make([]byte, 64*flash.PageSize)
		s, err := e.t.median(func() error { return readPass(f, latPages, buf) })
		return s * 1e6 / latPages, err
	}},
	{"flash.sleep_100us_actual_us", "us", func(e *env) (float64, error) {
		// What the box delivers for the sleep cold_scan asks of it. Where
		// the timer is a millisecond coarse, cold_scan's latencies are
		// that timer's, not the requested 100 us.
		s, err := e.t.median(func() error { time.Sleep(pageLat); return nil })
		return s * 1e6, err
	}},
	{"flash.append_mb_per_s", "MB/s", func(e *env) (float64, error) {
		const blocks = 256 // 16 MiB in 64 KiB appends
		block := make([]byte, 64<<10)
		s, err := e.t.median(func() error {
			f := flash.NewDevice().Create("wal")
			for i := 0; i < blocks; i++ {
				f.Append(block, flash.Host)
			}
			return nil
		})
		return blocks * float64(len(block)) / mb / s, err
	}},

	{"sched.cache_hit_ns_per_page", "ns", func(e *env) (float64, error) {
		const pages = 1024
		pc, read := sched.NewPageCache(pages*flash.PageSize), pageReader()
		pass := func() error {
			for p := int64(0); p < pages; p++ {
				if _, err := pc.GetPage(nil, "f", p, read); err != nil {
					return err
				}
			}
			return nil
		}
		if err := pass(); err != nil { // make every page resident
			return 0, err
		}
		s, err := e.t.median(pass)
		return s * 1e9 / pages, err
	}},
	{"sched.cache_miss_ns_per_page", "ns", func(e *env) (float64, error) {
		// A cache a sixteenth of the file, swept in order: every GetPage
		// fills from a zero-latency reader and evicts.
		const pages = 1024
		pc, read := sched.NewPageCache(pages/16*flash.PageSize), pageReader()
		s, err := e.t.median(func() error {
			for p := int64(0); p < pages; p++ {
				if _, err := pc.GetPage(nil, "f", p, read); err != nil {
					return err
				}
			}
			return nil
		})
		return s * 1e9 / pages, err
	}},
	{"sched.submit_grant_us", "us", func(e *env) (float64, error) {
		s := sched.NewScheduler(sched.Config{MaxInFlight: 2, QueueDepth: 16})
		defer s.Close()
		return submitGrant(e, func(job sched.JobCtx) (*sched.Ticket, error) {
			return s.SubmitWaitCtx(context.Background(), job)
		})
	}},
	{"sched.fair_submit_grant_us", "us", func(e *env) (float64, error) {
		s := sched.NewScheduler(sched.Config{MaxInFlight: 2, QueueDepth: 64,
			Tenants: map[string]sched.TenantConfig{"dash": {Weight: 4}, "report": {Weight: 1}}})
		defer s.Close()
		return submitGrant(e, func(job sched.JobCtx) (*sched.Ticket, error) {
			return s.SubmitTenant(context.Background(), sched.SubmitOpts{Tenant: "dash", Wait: true}, job)
		})
	}},
	{"sched.resultcache_hit_us", "us", func(e *env) (float64, error) {
		rc := sched.NewResultCache(16*mb, 4*mb)
		exec := func() (interface{}, int64, error) { return "result", 64, nil }
		const n = 1000
		pass := func() error {
			for i := 0; i < n; i++ {
				if _, _, err := rc.Do(context.Background(), "dash", "tile", "gen0", exec, nil); err != nil {
					return err
				}
			}
			return nil
		}
		if err := pass(); err != nil {
			return 0, err
		}
		s, err := e.t.median(pass)
		return s * 1e6 / n, err
	}},

	{"enc.decode_dict_mb_per_s", "MB/s", func(e *env) (float64, error) { return decodeRate(e, "l_quantity", enc.Dict) }},
	{"enc.decode_rle_mb_per_s", "MB/s", func(e *env) (float64, error) { return decodeRate(e, "l_orderkey", enc.RLE) }},
	{"enc.decode_for_mb_per_s", "MB/s", func(e *env) (float64, error) { return decodeRate(e, "l_shipdate", enc.FOR) }},
	{"enc.aggpage_rle_ns_per_page", "ns", func(e *env) (float64, error) { return aggPage(e, "l_orderkey", enc.RLE) }},
	{"enc.aggpage_for_ns_per_page", "ns", func(e *env) (float64, error) { return aggPage(e, "l_extendedprice", enc.FOR) }},
	{"enc.encode_auto_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		vals, err := column(e, "l_shipdate")
		if err != nil {
			return 0, err
		}
		s, err := e.t.median(func() error {
			_, _, err := enc.EncodeColumn(vals, enc.SelAuto.Pick(vals, col.Date.Width()))
			return err
		})
		return float64(len(vals)) / s / 1e6, err
	}},
	{"enc.bytes_per_raw_byte", "ratio", func(e *env) (float64, error) {
		raw, auto, err := bothDBs(e)
		if err != nil {
			return 0, err
		}
		return float64(auto.Flash.TotalBytes()) / float64(raw.Flash.TotalBytes()), nil
	}},

	{"col.readvec_raw_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		return readVecRate(e, db)
	}},
	{"col.readvec_enc_mrows_per_s", "Mrows/s", func(e *env) (float64, error) {
		db, err := e.autoDB()
		if err != nil {
			return 0, err
		}
		return readVecRate(e, db)
	}},
	{"col.store_mb_raw", "MB", func(e *env) (float64, error) {
		db, err := e.rawDB()
		if err != nil {
			return 0, err
		}
		return float64(db.Flash.TotalBytes()) / mb, nil
	}},
	{"col.store_mb_auto", "MB", func(e *env) (float64, error) {
		db, err := e.autoDB()
		if err != nil {
			return 0, err
		}
		return float64(db.Flash.TotalBytes()) / mb, nil
	}},

	{"delta.overlay_at_us", "us", func(e *env) (float64, error) {
		// A 20 k-row visible tail, 16 columns wide, like lineitem's.
		const batches, cols = 100, 16
		names := make([]string, cols)
		batch := make([][]int64, cols)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
			batch[c] = make([]int64, insertRows)
		}
		t := delta.NewTable("lineitem", 600000, names)
		for b := 1; b <= batches; b++ {
			if _, err := t.Insert(uint64(b), batch); err != nil {
				return 0, err
			}
		}
		s, err := e.t.median(func() error {
			if ov := t.OverlayAt(batches); ov.NumTail() != batches*insertRows {
				return fmt.Errorf("overlay has %d tail rows", ov.NumTail())
			}
			return nil
		})
		return s * 1e6, err
	}},
	{"delta.wal_append_mb_per_s", "MB/s", func(e *env) (float64, error) {
		rec := delta.Record{Op: delta.OpInsert, Epoch: 1, Cols: 16, Vals: make([]int64, insertRows*16)}
		const n = 200
		buf := make([]byte, 0, n*(17+8*len(rec.Vals)))
		s, err := e.t.median(func() error {
			b := buf[:0]
			for i := 0; i < n; i++ {
				b = delta.AppendRecord(b, rec)
			}
			return nil
		})
		return float64(cap(buf)) / mb / s, err
	}},
}

// pageReader is a zero-latency device: a fresh page image per read, as
// the real device's miss path hands the cache a private copy.
func pageReader() func() ([]byte, error) {
	src := make([]byte, flash.PageSize)
	return func() ([]byte, error) { return append([]byte(nil), src...), nil }
}

// submitGrant times submitting a no-op job and waiting for its ticket.
func submitGrant(e *env, submit func(sched.JobCtx) (*sched.Ticket, error)) (float64, error) {
	noop := func(context.Context) (interface{}, error) { return nil, nil }
	const n = 1000
	s, err := e.t.median(func() error {
		for i := 0; i < n; i++ {
			t, err := submit(noop)
			if err != nil {
				return err
			}
			if _, err := t.Wait(); err != nil {
				return err
			}
		}
		return nil
	})
	return s * 1e6 / n, err
}

func bothDBs(e *env) (raw, auto *aquoman.DB, err error) {
	if raw, err = e.rawDB(); err != nil {
		return nil, nil, err
	}
	auto, err = e.autoDB()
	return raw, auto, err
}

// column reads one whole lineitem column from the raw store.
func column(e *env, name string) ([]int64, error) {
	db, err := e.rawDB()
	if err != nil {
		return nil, err
	}
	li, _, err := lineitem(db)
	if err != nil {
		return nil, err
	}
	cols, err := readCols(li, []string{name})
	if err != nil {
		return nil, err
	}
	return cols[0], nil
}

// encodedPages encodes a lineitem column under the codec and returns its
// page images, its directory and the number of rows.
func encodedPages(e *env, name string, codec enc.Codec) ([][]byte, *enc.ColumnMeta, int, error) {
	vals, err := column(e, name)
	if err != nil {
		return nil, nil, 0, err
	}
	img, meta, err := enc.EncodeColumn(vals, codec)
	if err != nil {
		return nil, nil, 0, err
	}
	pages := make([][]byte, len(meta.Pages))
	for i := range pages {
		pages[i] = img[i*flash.PageSize : (i+1)*flash.PageSize]
	}
	return pages, meta, len(vals), nil
}

// decodeRate is decoded bytes per second of DecodePageInto plus the
// value materialisation a vector read performs.
func decodeRate(e *env, name string, codec enc.Codec) (float64, error) {
	pages, meta, rows, err := encodedPages(e, name, codec)
	if err != nil {
		return 0, err
	}
	var p enc.Page
	s, err := e.t.median(func() error {
		for _, buf := range pages {
			if err := enc.DecodePageInto(&p, buf, meta.Dict); err != nil {
				return err
			}
			_ = p.Values()
		}
		return nil
	})
	return float64(rows) * 8 / mb / s, err
}

func aggPage(e *env, name string, codec enc.Codec) (float64, error) {
	pages, _, _, err := encodedPages(e, name, codec)
	if err != nil {
		return 0, err
	}
	s, err := e.t.median(func() error {
		for _, buf := range pages {
			if _, ok, err := enc.AggregatePage(buf); err != nil || !ok {
				return fmt.Errorf("AggregatePage(%s): ok=%v err=%v", codec, ok, err)
			}
		}
		return nil
	})
	return s * 1e9 / float64(len(pages)), err
}

// readVecRate sweeps l_quantity vector by vector through a PagedReader.
func readVecRate(e *env, db *aquoman.DB) (float64, error) {
	li, rows, err := lineitem(db)
	if err != nil {
		return 0, err
	}
	ci, err := li.Column("l_quantity")
	if err != nil {
		return 0, err
	}
	var out [bitvec.VecSize]int64
	s, err := e.t.median(func() error {
		r := col.NewPagedReader(ci, flash.Aquoman)
		defer r.Close()
		for v := 0; v < li.NumVecs(); v++ {
			if _, err := r.ReadVec(v, out[:]); err != nil {
				return err
			}
		}
		return nil
	})
	return rows / s / 1e6, err
}
