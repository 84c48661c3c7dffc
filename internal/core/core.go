// Package core assembles AQUOMAN: the flash device, the accelerator DRAM,
// the Row Selector → Row Transformer → SQL Swissknife pipeline (via the
// Table-Task executor), the offload compiler, and the host engine that
// runs residual plan fragments and resumes suspended queries (Sec. VI-E).
//
// A Device corresponds to one AQUOMAN-augmented SSD. RunQuery executes a
// bound plan end-to-end: the compiler extracts offload units, the device
// streams their Table Tasks, and the host engine finishes the rewritten
// plan, with every byte of flash, DRAM, and host work accounted in the
// returned Report.
package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/compiler"
	"aquoman/internal/delta"
	"aquoman/internal/engine"
	"aquoman/internal/faults"
	"aquoman/internal/flash"
	"aquoman/internal/mem"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/tabletask"
)

// Config sizes one AQUOMAN device.
type Config struct {
	// DRAMBytes is the in-storage DRAM capacity (Table VI: 40 GB default,
	// 16 GB for AQUOMAN16).
	DRAMBytes int64
	// Compiler tunes offload decisions.
	Compiler compiler.Config
	// DisableOffload forces pure host execution (the baseline systems).
	DisableOffload bool
	// DisableFusion forces offloaded tasks onto the staged (materializing)
	// executor path instead of the fused scan (differential testing).
	DisableFusion bool
	// SharedDevice marks the flash device as shared with concurrently
	// running queries (the sched package). Per-query flash traffic deltas
	// and registry deltas would misattribute the other queries' work, so
	// Report.Flash/OffloadFraction/Metrics stay zero when set.
	SharedDevice bool

	// Overlays (optional) are the query's per-table MVCC snapshot deltas.
	// Tables without an entry scan base pages untouched. A delete-only
	// overlay on a single-table plan still offloads — the deleted rows
	// become a Table-Task delete mask; any visible tail rows (or a
	// multi-table plan over mutated tables) force host execution, because
	// in-memory tail rows have no flash pages for the accelerator to scan
	// and materialized RowID companions are only re-derived at merge.
	Overlays map[string]*delta.Overlay

	// Ctx (optional) cancels the query cooperatively: checkpoints at unit,
	// stage, page-read and host-operator boundaries stop the query — and its
	// simulated flash traffic — shortly after Ctx is done. Cancellation is
	// NOT a suspension: a context error propagates to the caller instead
	// of triggering the host-resume fallback. Nil never cancels. The
	// query's obs.Lifecycle, if any, rides here too: its regions, and the
	// registry its counters go to.
	Ctx context.Context
}

// Device is one AQUOMAN-augmented SSD plus its host.
type Device struct {
	Store *col.Store
	DRAM  *mem.DRAM
	cfg   Config
}

// New builds a device over an existing store.
func New(store *col.Store, cfg Config) *Device {
	return &Device{Store: store, DRAM: mem.New(cfg.DRAMBytes), cfg: cfg}
}

// ctxErr returns the configured context's error, if any.
func (d *Device) ctxErr() error {
	if d.cfg.Ctx == nil {
		return nil
	}
	return d.cfg.Ctx.Err()
}

// Report describes one query execution.
type Report struct {
	// Offloaded units that ran on AQUOMAN.
	Units []string
	// Notes records compiler decisions (suspension reasons etc.).
	Notes []string
	// FullyOffloaded is true when the host only post-processed a single
	// aggregated result.
	FullyOffloaded bool
	// Suspended is true when an offload unit failed mid-flight (e.g.
	// AQUOMAN DRAM capacity) and the query fell back to the host.
	Suspended bool
	// SuspendReason explains a fallback.
	SuspendReason string

	// AquomanTrace aggregates the Table-Task behaviour.
	AquomanTrace tabletask.Trace
	// DRAMPeak is the accelerator DRAM high-water mark in bytes.
	DRAMPeak int64
	// HostStats is the host engine's work/memory accounting.
	HostStats *engine.Stats
	// Flash is the per-requester flash traffic for this query.
	Flash flash.Stats
	// OffloadFraction is the share of flash bytes read in-storage.
	OffloadFraction float64

	// Metrics is the registry delta accumulated during this query (nil
	// without a registry, and on a shared device).
	Metrics *obs.Snapshot
}

// RunQuery executes a bound plan. The returned batch is the query result;
// the report captures where the work happened.
func (d *Device) RunQuery(n plan.Node) (*engine.Batch, *Report, error) {
	flashBefore := d.Store.Dev.Stats()
	rep := &Report{HostStats: engine.NewStats()}

	lc := obs.LifecycleFrom(d.cfg.Ctx)
	reg := lc.Registry()
	// Everything RunQuery does that no inner region claims — unit glue,
	// finalize, report bookkeeping — is host-side work.
	q := lc.Begin(obs.StateHost, "query")
	defer q.End()
	// The per-query registry delta is only meaningful on a device this
	// query has to itself; a shared one never pays for the snapshots.
	var metricsBefore obs.Snapshot
	if reg != nil && !d.cfg.SharedDevice {
		metricsBefore = reg.Snapshot()
	}
	finish := func() {
		d.finishReport(rep, reg, flashBefore)
		if reg != nil && !d.cfg.SharedDevice {
			delta := reg.Snapshot().Delta(metricsBefore)
			rep.Metrics = &delta
		}
	}

	run := func(root plan.Node, name ...string) (*engine.Batch, error) {
		// Host scans read flash; that time nests as flash states.
		defer lc.Begin(obs.StateHost, name...).End()
		host := engine.New(d.Store)
		host.Stats = rep.HostStats
		host.SetContext(d.cfg.Ctx)
		host.SetOverlays(d.cfg.Overlays)
		return host.Run(root)
	}

	if err := d.ctxErr(); err != nil {
		return nil, nil, err
	}

	if d.cfg.DisableOffload {
		b, err := run(n, "host-plan")
		if err != nil {
			return nil, nil, err
		}
		finish()
		return b, rep, nil
	}

	// MVCC visibility gate (see Config.Overlays): visible tail rows or a
	// multi-table plan over mutated tables run on the host; a delete-only
	// overlay on a single-table plan offloads behind a delete mask.
	var deleteMasks map[string]*bitvec.Mask
	if len(d.cfg.Overlays) > 0 {
		tables := plan.BaseTables(n)
		var dirty []string
		offloadable := true
		for _, name := range tables {
			ov := d.cfg.Overlays[name]
			if ov == nil {
				continue
			}
			dirty = append(dirty, name)
			if !ov.DeleteOnly() {
				offloadable = false
			}
		}
		sort.Strings(dirty)
		if len(dirty) > 0 && (!offloadable || len(tables) > 1) {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"mvcc overlay on %s: executing on host", strings.Join(dirty, ",")))
			b, err := run(n, "host-plan")
			if err != nil {
				return nil, nil, err
			}
			finish()
			return b, rep, nil
		}
		if len(dirty) > 0 {
			deleteMasks = make(map[string]*bitvec.Mask, len(dirty))
			for _, name := range dirty {
				deleteMasks[name] = d.cfg.Overlays[name].DeletedBase
			}
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"mvcc delete mask on %s: offloading with masked scans", strings.Join(dirty, ",")))
		}
	}

	c := lc.Begin(obs.StateCompile, "compile")
	res, err := compiler.Compile(n, d.Store, d.cfg.Compiler)
	if err == nil {
		c.SetInt("units", int64(len(res.Units)))
	}
	c.End()
	if err != nil {
		return nil, nil, err
	}
	rep.Notes = res.Notes
	rep.FullyOffloaded = res.FullyOffloaded()

	exec := tabletask.NewExecutor(d.Store, d.DRAM)
	exec.Ctx = d.cfg.Ctx
	exec.DisableFusion = d.cfg.DisableFusion
	exec.DeleteMasks = deleteMasks
	var allObjects []string
	for _, u := range res.Units {
		r := lc.Begin(obs.StateHost, "unit", u.Label)
		err := d.runUnit(exec, u)
		r.End()
		if err != nil {
			// Cancellation is not a suspension: a dead context propagates
			// instead of re-running the unit's subtree on the host (which
			// would keep consuming flash bandwidth for a query nobody is
			// waiting on).
			if cerr := d.ctxErr(); cerr != nil {
				return nil, nil, cerr
			}
			// Suspension (Sec. VI-E): the unit's intermediate state is
			// dropped and the host resumes by executing the original
			// subtree; completed units keep their offloaded results. An
			// injected device fault takes the same path — the host re-read
			// may succeed (budget-exhausted transient) or fail again
			// (permanent fault), in which case the error propagates to the
			// caller (distrib degrades the shard to its mirror).
			var fe *faults.Error
			if errors.As(err, &fe) {
				rep.Notes = append(rep.Notes, fmt.Sprintf(
					"unit %s hit a device fault, resuming on host: %v", u.Label, fe))
				reg.Counter("core_unit_faults_total", "kind", fe.Kind.String()).Inc()
			}
			rep.Suspended = true
			rep.SuspendReason = err.Error()
			rep.FullyOffloaded = false
			for _, name := range u.DRAMObjects {
				d.DRAM.Free(name)
			}
			hb, herr := run(u.Replaced, "host-resume", u.Label)
			if herr != nil {
				return nil, nil, fmt.Errorf("core: host resume of %s: %w", u.Label, herr)
			}
			u.Placeholder.Cols = hb.Cols
			continue
		}
		rep.Units = append(rep.Units, u.Label)
		allObjects = append(allObjects, u.DRAMObjects...)
	}
	rep.AquomanTrace = exec.Trace
	rep.DRAMPeak = d.DRAM.Peak()
	for _, name := range allObjects {
		d.DRAM.Free(name)
	}

	b, err := run(res.Root, "host-plan")
	if err != nil {
		return nil, nil, err
	}
	finish()
	return b, rep, nil
}

func (d *Device) finishReport(rep *Report, reg *obs.Registry, before flash.Stats) {
	if !d.cfg.SharedDevice {
		rep.Flash = d.Store.Dev.Stats().Sub(before)
		total := rep.Flash.BytesRead(flash.Host) + rep.Flash.BytesRead(flash.Aquoman)
		if total > 0 {
			rep.OffloadFraction = float64(rep.Flash.BytesRead(flash.Aquoman)) / float64(total)
		}
	}
	d.DRAM.ResetPeak()
	if reg != nil {
		for kind, n := range rep.HostStats.Work {
			reg.Counter("engine_work_total", "kind", kind).Add(n)
		}
		reg.Gauge("engine_peak_bytes").SetMax(rep.HostStats.PeakBytes)
		reg.Counter("core_queries_total").Inc()
		if rep.Suspended {
			reg.Counter("core_suspensions_total").Inc()
		}
	}
}

// runUnit streams one unit's Table Tasks and fills its placeholder.
func (d *Device) runUnit(exec *tabletask.Executor, u *compiler.Unit) error {
	var last *tabletask.Result
	for _, task := range u.Tasks {
		res, err := exec.Run(task)
		if err != nil {
			return fmt.Errorf("unit %s task %s: %w", u.Label, task.Name, err)
		}
		last = res
	}
	cols, err := u.Finalize(d.cfg.Ctx, last)
	if err != nil {
		return fmt.Errorf("unit %s finalize: %w", u.Label, err)
	}
	u.Placeholder.Cols = cols
	return nil
}
