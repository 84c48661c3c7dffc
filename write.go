package aquoman

// The write path: DML statements, catalog snapshots, and the delta
// merge. See DESIGN.md §15 for the consistency model.

import (
	"context"
	"errors"
	"fmt"

	"aquoman/internal/catalog"
	"aquoman/internal/col"
	"aquoman/internal/core"
	"aquoman/internal/flash"
	"aquoman/internal/obs"
	"aquoman/internal/plan"
	"aquoman/internal/sql"
	"aquoman/internal/tpch"
)

// Write-path errors, re-exported for errors.Is.
var (
	// ErrConflict is an optimistic write-write conflict: the victims
	// were chosen at an epoch that is no longer current. DB.Exec retries
	// a few times internally before surfacing it.
	ErrConflict = catalog.ErrConflict
	// ErrStaleSnapshot marks a snapshot taken before the last merge.
	ErrStaleSnapshot = catalog.ErrStaleSnapshot
	// ErrUnmergedDelta is Save's refusal to persist a store whose catalog
	// holds un-merged writes: they would be silently dropped.
	ErrUnmergedDelta = errors.New("aquoman: un-merged delta: Merge before Save")
)

// ReadOnlyError is Exec's refusal to write to a DB that is one part of a
// cluster — a coordinator's replica or a worker's partition (Mode names
// which). Writes are not distributed, so one applied here would make
// scattered queries answer pre-write and local ones post-write.
type ReadOnlyError struct{ Mode string }

func (e *ReadOnlyError) Error() string {
	return fmt.Sprintf("aquoman: read-only in %s mode: a cluster does not distribute writes", e.Mode)
}

// Catalog returns the DB's write-path catalog, creating it on first
// use. Creation adopts every table currently in the store, so load data
// (LoadTPCH, NewTable/Finalize) before the first Catalog/Exec call; for
// TPC-H stores the schema's FK graph and the composite partsupp join
// index are registered so merges preserve companion integrity.
func (db *DB) Catalog() *catalog.Catalog {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.catalogLocked()
}

func (db *DB) catalogLocked() *catalog.Catalog {
	if db.cat != nil {
		return db.cat
	}
	db.cat = catalog.New(db.Store)
	if db.Obs != nil {
		db.cat.Observe(db.Obs.Reg)
	}
	has := func(name string) bool {
		_, err := db.Store.Table(name)
		return err == nil
	}
	tpchStore := false
	for _, e := range tpch.FKEdges {
		if has(e.Fact) && has(e.Dim) {
			db.cat.RegisterFK(catalog.FKEdge{Fact: e.Fact, FKCol: e.FKCol, Dim: e.Dim, PKCol: e.PKCol})
			tpchStore = true
		}
	}
	if tpchStore {
		db.cat.RegisterMergeHook(tpch.RefreshPartSuppIndex)
	}
	return db.cat
}

// attachOverlays resolves the MVCC overlays a plan execution must see, as
// the first thing an admitted query does: the snapshot pinned on its
// context when there is one (a write's victim scan, see Exec), else a fresh
// one. A pinned snapshot is never swapped — one invalidated by a merge
// fails with ErrStaleSnapshot; only the unpinned read retries when a merge
// slips between taking its snapshot and resolving it (the merged base pages
// contain everything the stale epoch could see).
func (db *DB) attachOverlays(p Plan, cfg *core.Config) error {
	db.mu.Lock()
	cat := db.cat
	db.mu.Unlock()
	if cat == nil {
		return nil
	}
	snap, pinned := catalog.SnapshotFrom(cfg.Ctx)
	if !pinned {
		snap = cat.Snapshot()
	}
	tables := plan.BaseTables(p)
	ovs, err := snap.Overlays(tables)
	if !pinned && errors.Is(err, catalog.ErrStaleSnapshot) {
		ovs, err = cat.Snapshot().Overlays(tables)
	}
	cfg.Overlays = ovs
	return err
}

// ExecResult describes one executed write statement; its JSON form is the
// /dml success body.
type ExecResult struct {
	// Op is the statement kind: "create", "insert", "update", "delete".
	Op string `json:"op"`
	// Table is the target table.
	Table string `json:"table"`
	// Rows is the number of rows affected.
	Rows int `json:"rows_affected"`
	// Epoch is the commit epoch (0 for a no-op delete/update).
	Epoch uint64 `json:"epoch"`
}

// execRetries bounds the optimistic-conflict retry loop in Exec.
const execRetries = 3

// Exec parses and executes one write statement: CREATE TABLE, INSERT,
// UPDATE or DELETE. Writes commit to the in-memory delta tail and the
// on-flash WAL immediately; analytic scans fold the deltas in via their
// snapshot until Merge compacts them into base pages.
//
// A write is a query with a different last step: it compiles through the
// same SQL pipeline as Do, an UPDATE or DELETE picks its victims with an
// ordinary host-only run of the compiled WHERE plan — pinned to the
// attempt's snapshot, so the WHERE clause reads its own DB's earlier
// writes — and records into ctx's Lifecycle (compile, the scan's states,
// the catalog commit as host time). The commit is a compare-and-swap on
// the catalog epoch; a concurrent write (or merge) in between re-runs the
// statement (up to execRetries times) before surfacing ErrConflict. A
// statement whose ctx dies before its commit commits nothing. A DB that
// NewCoordinator or ExtractPartition made part of a cluster refuses every
// statement with *ReadOnlyError.
func (db *DB) Exec(ctx context.Context, src string) (*ExecResult, error) {
	db.mu.Lock()
	role := db.clusterRole
	db.mu.Unlock()
	if role != "" {
		return nil, &ReadOnlyError{Mode: role}
	}
	ctx, lc := obs.Ensure(ctx, db.Obs.Registry())
	cat := db.Catalog()
	compile := lc.Begin(obs.StateCompile, "compile")
	st, err := sql.CompileExec(src, db.Store)
	compile.End()
	if err != nil {
		return nil, err
	}
	switch {
	case st.Create != nil:
		return commit(ctx, "create", st.Create.Schema.Name, func() (*catalog.Result, error) {
			_, err := cat.CreateTable(st.Create.Schema)
			return &catalog.Result{Epoch: cat.Epoch()}, err
		})
	case st.Insert != nil:
		ins := st.Insert
		return commit(ctx, "insert", ins.Table, func() (*catalog.Result, error) {
			return cat.Insert(ins.Table, ins.N, ins.Ints, ins.Strs)
		})
	case st.Delete != nil:
		del := st.Delete
		return db.execRetry(ctx, cat, "delete", del.Table, del.Plan, func(_ *Batch, rowids []int64, expect uint64) (*catalog.Result, error) {
			return cat.Delete(del.Table, rowids, expect)
		})
	default:
		up := st.Update
		return db.execRetry(ctx, cat, "update", up.Table, up.Plan, func(b *Batch, rowids []int64, expect uint64) (*catalog.Result, error) {
			ints, strs, err := db.updateValues(ctx, up, b)
			if err != nil {
				return nil, err
			}
			return cat.Update(up.Table, rowids, len(rowids), ints, strs, expect)
		})
	}
}

// commit runs one catalog mutation, as host time of the statement's
// recorder.
func commit(ctx context.Context, op, table string, mutate func() (*catalog.Result, error)) (*ExecResult, error) {
	defer obs.LifecycleFrom(ctx).Begin(obs.StateHost, "commit").End()
	res, err := mutate()
	if err != nil {
		return nil, err
	}
	return &ExecResult{Op: op, Table: table, Rows: res.Rows, Epoch: res.Epoch}, nil
}

// execRetry drives snapshot→victim scan→commit attempts, retrying on an
// optimistic conflict with a fresh snapshot. The scan is an ordinary
// host-only run pinned to the attempt's snapshot (read-your-writes:
// un-merged tail rows and deletes are visible to the WHERE clause); apply
// commits against the scanned victims with the snapshot's epoch as its CAS.
func (db *DB) execRetry(ctx context.Context, cat *catalog.Catalog, op, table string, victims Plan,
	apply func(b *Batch, rowids []int64, expect uint64) (*catalog.Result, error)) (*ExecResult, error) {
	for try := 0; ; try++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		snap := cat.Snapshot()
		scan, err := db.run(catalog.WithSnapshot(ctx, snap), &Request{Plan: victims, HostOnly: true}, true)
		if err != nil {
			return nil, err
		}
		res, err := commit(ctx, op, table, func() (*catalog.Result, error) {
			rowids, _ := scan.Batch.Col(plan.RowIDCol)
			if len(rowids) == 0 {
				return &catalog.Result{}, nil
			}
			return apply(scan.Batch, rowids, snap.Epoch)
		})
		if try == execRetries || !errors.Is(err, catalog.ErrConflict) {
			return res, err
		}
	}
}

// updateValues converts an update plan's output batch into the
// catalog's insert-shaped column maps: integer-family values verbatim,
// Dict codes and Text heap offsets resolved back to strings, one string
// read per column under the statement's ctx (the catalog re-resolves them
// on commit, so replacement rows follow the exact ingest path inserts do).
func (db *DB) updateValues(ctx context.Context, up *sql.CompiledUpdate, b *Batch) (map[string][]col.Value, map[string][]string, error) {
	n := b.NumRows()
	tab, err := db.Store.Table(up.Table)
	if err != nil {
		return nil, nil, err
	}
	ints := map[string][]col.Value{}
	strs := map[string][]string{}
	for _, uc := range up.Cols {
		vals, err := b.Col(uc.Name)
		if err != nil {
			return nil, nil, err
		}
		if !uc.Typ.IsString() {
			ints[uc.Name] = vals
			continue
		}
		ci, err := tab.Column(uc.Name)
		if err != nil {
			return nil, nil, err
		}
		if strs[uc.Name], err = ci.Strs(ctx, vals, flash.Host); err != nil {
			return nil, nil, err
		}
	}
	for name, s := range up.TextSets {
		ss := make([]string, n)
		for i := range ss {
			ss[i] = s
		}
		strs[name] = ss
	}
	return ints, strs, nil
}

// Merge compacts every table's delta into freshly encoded, zone-mapped
// base pages, re-derives materialized RowID companions, and bumps the
// file generations (invalidating page- and result-cache entries on
// their existing seams). Call it like ConfigureScheduler: with no
// queries in flight — snapshots taken before the merge become stale.
func (db *DB) Merge() error {
	return db.Catalog().Merge()
}
