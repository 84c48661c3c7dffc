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
	"aquoman/internal/engine"
	"aquoman/internal/flash"
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

// admitHook stamps a query's context with the current catalog epoch as
// the scheduler grants it an in-flight slot: however long the query
// runs, every scan resolves against that snapshot. Before any write
// activity (no catalog yet) the hook is a no-op.
func (db *DB) admitHook(ctx context.Context) context.Context {
	db.mu.Lock()
	cat := db.cat
	db.mu.Unlock()
	if cat == nil {
		return ctx
	}
	return catalog.WithSnapshot(ctx, cat.Snapshot())
}

// attachOverlays resolves the MVCC overlays a plan execution must see:
// the admission snapshot from the context if the scheduler stamped one,
// else a fresh snapshot. A snapshot invalidated by a merge mid-queue
// falls back to a fresh one — the merged base pages contain everything
// the stale epoch could see (the window degrades to read-committed, it
// never loses writes).
func (db *DB) attachOverlays(p Plan, cfg *core.Config) error {
	db.mu.Lock()
	cat := db.cat
	db.mu.Unlock()
	if cat == nil {
		return nil
	}
	snap, ok := catalog.SnapshotFrom(cfg.Ctx)
	if !ok {
		snap = cat.Snapshot()
	}
	tables := plan.BaseTables(p)
	ovs, err := snap.Overlays(tables)
	if errors.Is(err, catalog.ErrStaleSnapshot) {
		ovs, err = cat.Snapshot().Overlays(tables)
	}
	if err != nil {
		return err
	}
	cfg.Overlays = ovs
	return nil
}

// ExecResult describes one executed write statement.
type ExecResult struct {
	// Op is the statement kind: "create", "insert", "update", "delete".
	Op string
	// Table is the target table.
	Table string
	// Rows is the number of rows affected.
	Rows int
	// Epoch is the commit epoch (0 for a no-op delete/update).
	Epoch uint64
}

// execRetries bounds the optimistic-conflict retry loop in Exec.
const execRetries = 3

// Exec parses and executes one write statement: CREATE TABLE, INSERT,
// UPDATE or DELETE. Writes commit to the in-memory delta tail and the
// on-flash WAL immediately; analytic scans fold the deltas in via their
// admission snapshot until Merge compacts them into base pages.
//
// UPDATE and DELETE pick their victims at a snapshot and commit with a
// compare-and-swap on the catalog epoch; a concurrent write in between
// re-runs the statement (up to execRetries times) before surfacing
// ErrConflict. A DB that NewCoordinator or ExtractPartition made part of
// a cluster refuses every statement with *ReadOnlyError.
func (db *DB) Exec(ctx context.Context, src string) (*ExecResult, error) {
	db.mu.Lock()
	role := db.clusterRole
	db.mu.Unlock()
	if role != "" {
		return nil, &ReadOnlyError{Mode: role}
	}
	cat := db.Catalog()
	ex, err := sql.CompileExec(src, db.Store)
	if err != nil {
		return nil, err
	}
	switch {
	case ex.Create != nil:
		if _, err := cat.CreateTable(ex.Create.Schema); err != nil {
			return nil, err
		}
		return &ExecResult{Op: "create", Table: ex.Create.Schema.Name, Epoch: cat.Epoch()}, nil
	case ex.Insert != nil:
		res, err := cat.Insert(ex.Insert.Table, ex.Insert.N, ex.Insert.Ints, ex.Insert.Strs)
		if err != nil {
			return nil, err
		}
		return &ExecResult{Op: "insert", Table: ex.Insert.Table, Rows: res.Rows, Epoch: res.Epoch}, nil
	case ex.Delete != nil:
		return db.execRetry(ctx, cat, "delete", ex.Delete.Table, func(snap catalog.Snapshot) (*catalog.Result, error) {
			b, err := db.runVictims(ctx, snap, ex.Delete.Plan)
			if err != nil {
				return nil, err
			}
			rowids, _ := b.Col(plan.RowIDCol)
			if len(rowids) == 0 {
				return &catalog.Result{}, nil
			}
			return cat.Delete(ex.Delete.Table, rowids, snap.Epoch)
		})
	case ex.Update != nil:
		return db.execRetry(ctx, cat, "update", ex.Update.Table, func(snap catalog.Snapshot) (*catalog.Result, error) {
			b, err := db.runVictims(ctx, snap, ex.Update.Plan)
			if err != nil {
				return nil, err
			}
			rowids, _ := b.Col(plan.RowIDCol)
			if len(rowids) == 0 {
				return &catalog.Result{}, nil
			}
			ints, strs, err := db.updateValues(ex.Update, b)
			if err != nil {
				return nil, err
			}
			return cat.Update(ex.Update.Table, rowids, len(rowids), ints, strs, snap.Epoch)
		})
	}
	return nil, fmt.Errorf("aquoman: empty statement")
}

// execRetry drives one snapshot→commit attempt, retrying on optimistic
// conflicts with a fresh snapshot.
func (db *DB) execRetry(ctx context.Context, cat *catalog.Catalog, op, table string,
	attempt func(catalog.Snapshot) (*catalog.Result, error)) (*ExecResult, error) {
	var err error
	for try := 0; try <= execRetries; try++ {
		if ctx != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var res *catalog.Result
		res, err = attempt(cat.Snapshot())
		if err == nil {
			return &ExecResult{Op: op, Table: table, Rows: res.Rows, Epoch: res.Epoch}, nil
		}
		if !errors.Is(err, catalog.ErrConflict) {
			return nil, err
		}
	}
	return nil, err
}

// runVictims executes a compiled victim-selection plan on the host
// engine at the given snapshot (read-your-writes: uncommitted-to-base
// tail rows and deletes are visible to the WHERE clause).
func (db *DB) runVictims(ctx context.Context, snap catalog.Snapshot, p Plan) (*Batch, error) {
	ovs, err := snap.Overlays(plan.BaseTables(p))
	if err != nil {
		return nil, err
	}
	eng := engine.New(db.Store)
	eng.SetContext(ctx)
	eng.SetOverlays(ovs)
	return eng.Run(p)
}

// updateValues converts an update plan's output batch into the
// catalog's insert-shaped column maps: integer-family values verbatim,
// Dict codes and Text heap offsets resolved back to strings (the
// catalog re-resolves them on commit, so replacement rows follow the
// exact ingest path inserts do).
func (db *DB) updateValues(up *sql.CompiledUpdate, b *Batch) (map[string][]col.Value, map[string][]string, error) {
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
		ss := make([]string, n)
		for i, v := range vals {
			if ss[i], err = ci.Str(v, flash.Host); err != nil {
				return nil, nil, err
			}
		}
		strs[uc.Name] = ss
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
