// Package delta is the in-memory half of the write path: a per-table
// MVCC delta store holding freshly ingested rows (a column-major tail
// appended after the immutable base pages) and delete marks over both
// base and tail rows. Every mutation is stamped with the catalog epoch
// that committed it, so a reader that captured epoch E at admission sees
// exactly the rows committed at or before E — long analytic scans never
// block ingest and never observe partial writes.
//
// The package is deliberately storage-agnostic: it knows nothing about
// flash, encodings, or SQL. The catalog journals each mutation to a
// WAL file (wal.go defines the record codec) and, at merge time, drains
// the visible tail and delete marks back into encoded base pages.
package delta

import (
	"fmt"
	"sync"

	"aquoman/internal/bitvec"
)

// Table is the mutable delta state for one base table. All methods are
// safe for concurrent use.
type Table struct {
	mu sync.Mutex

	name     string
	baseRows int
	colNames []string

	// deleted maps a base rowid to the epoch that deleted it. Absent
	// means live; a reader at epoch E treats the row as deleted iff
	// deleted[r] <= E.
	deleted map[int64]uint64

	// Tail rows, column-major: tailCols[c][i] is row i of column
	// colNames[c]. Row i has rowid baseRows+i, was inserted at
	// tailEpoch[i], and (if tailDel[i] != 0) deleted at tailDel[i].
	tailCols  [][]int64
	tailEpoch []uint64
	tailDel   []uint64
}

// NewTable returns an empty delta for a base table with baseRows rows
// and the given stored column names (materialized RowID companions
// included: tail rows carry placeholder values for them until merge).
func NewTable(name string, baseRows int, colNames []string) *Table {
	return &Table{
		name:     name,
		baseRows: baseRows,
		colNames: append([]string(nil), colNames...),
		deleted:  make(map[int64]uint64),
		tailCols: make([][]int64, len(colNames)),
	}
}

// Name returns the base table's name.
func (t *Table) Name() string { return t.name }

// BaseRows returns the base row count the delta is defined over.
func (t *Table) BaseRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.baseRows
}

// TailRows returns the number of tail rows (including tail rows that
// were deleted again before any merge).
func (t *Table) TailRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.tailEpoch)
}

// DeletedRows returns the number of delete marks over base rows.
func (t *Table) DeletedRows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.deleted)
}

// Dirty reports whether the delta holds any state a reader could see.
func (t *Table) Dirty() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.deleted) > 0 || len(t.tailEpoch) > 0
}

// Insert appends rows committed at the given epoch. cols is parallel to
// the table's column order (column-major; all slices the same length). It returns the
// rowids assigned to the new rows.
func (t *Table) Insert(epoch uint64, cols [][]int64) ([]int64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.insertLocked(epoch, cols)
}

func (t *Table) insertLocked(epoch uint64, cols [][]int64) ([]int64, error) {
	if len(cols) != len(t.colNames) {
		return nil, fmt.Errorf("delta: %s insert has %d columns, want %d", t.name, len(cols), len(t.colNames))
	}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = len(c)
		} else if len(c) != n {
			return nil, fmt.Errorf("delta: %s insert column %s has %d rows, want %d",
				t.name, t.colNames[i], len(c), n)
		}
	}
	if n <= 0 {
		return nil, nil
	}
	base := t.baseRows + len(t.tailEpoch)
	rowids := make([]int64, n)
	for i := range rowids {
		rowids[i] = int64(base + i)
	}
	for i, c := range cols {
		t.tailCols[i] = append(t.tailCols[i], c...)
	}
	for i := 0; i < n; i++ {
		t.tailEpoch = append(t.tailEpoch, epoch)
		t.tailDel = append(t.tailDel, 0)
	}
	return rowids, nil
}

// Delete marks the given rowids (base or tail) deleted at epoch. Rowids
// already deleted, out of range, or referring to tail rows not yet
// inserted are skipped. It returns the number of rows newly deleted.
func (t *Table) Delete(epoch uint64, rowids []int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.deleteLocked(epoch, rowids)
}

func (t *Table) deleteLocked(epoch uint64, rowids []int64) int {
	n := 0
	for _, r := range rowids {
		switch {
		case r < 0:
		case r < int64(t.baseRows):
			if _, dead := t.deleted[r]; !dead {
				t.deleted[r] = epoch
				n++
			}
		default:
			i := r - int64(t.baseRows)
			if i < int64(len(t.tailDel)) && t.tailDel[i] == 0 {
				t.tailDel[i] = epoch
				n++
			}
		}
	}
	return n
}

// Update atomically deletes rowids and inserts cols at the same epoch,
// under one lock hold — a reader at any epoch sees either the old rows
// or the new rows, never neither.
func (t *Table) Update(epoch uint64, rowids []int64, cols [][]int64) (deleted int, inserted []int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	inserted, err = t.insertLocked(epoch, cols)
	if err != nil {
		return 0, nil, err
	}
	return t.deleteLocked(epoch, rowids), inserted, nil
}

// OverlayAt captures the delta state visible at epoch. It returns nil
// when a reader at that epoch sees the base table unchanged, so callers
// can branch cheaply on "no writes visible".
func (t *Table) OverlayAt(epoch uint64) *Overlay {
	t.mu.Lock()
	defer t.mu.Unlock()

	var dead *bitvec.Mask
	for r, e := range t.deleted {
		if e > epoch {
			continue
		}
		if dead == nil {
			dead = bitvec.New(t.baseRows)
		}
		dead.Set(int(r))
	}

	// Visible tail rows: inserted at or before epoch and not deleted at
	// or before epoch.
	var keep []int
	for i, e := range t.tailEpoch {
		if e <= epoch && (t.tailDel[i] == 0 || t.tailDel[i] > epoch) {
			keep = append(keep, i)
		}
	}
	if dead == nil && len(keep) == 0 {
		return nil
	}

	ov := &Overlay{
		Table:       t.name,
		BaseRows:    t.baseRows,
		DeletedBase: dead,
		TailCols:    make(map[string][]int64, len(t.colNames)),
		TailRowIDs:  make([]int64, len(keep)),
	}
	for i, r := range keep {
		ov.TailRowIDs[i] = int64(t.baseRows + r)
	}
	// Tail values are never written after their insert, so visible rows
	// that are the tail's first len(keep) rows are shared, not copied. The
	// view's cap ends at its length, so an append to it cannot write where
	// a later insert's rows go.
	prefix := len(keep) == 0 || keep[len(keep)-1] == len(keep)-1
	for c, name := range t.colNames {
		if prefix {
			ov.TailCols[name] = t.tailCols[c][:len(keep):len(keep)]
			continue
		}
		vals := make([]int64, len(keep))
		for i, r := range keep {
			vals[i] = t.tailCols[c][r]
		}
		ov.TailCols[name] = vals
	}
	return ov
}

// Drain returns everything visible at epoch (for merge) and resets the
// delta to empty over a base of newBaseRows rows. The caller is the
// catalog's merge, which holds its own lock against concurrent writers.
func (t *Table) Drain(epoch uint64, newBaseRows int) *Overlay {
	ov := t.OverlayAt(epoch)
	t.mu.Lock()
	t.baseRows = newBaseRows
	t.deleted = make(map[int64]uint64)
	t.tailCols = make([][]int64, len(t.colNames))
	t.tailEpoch = nil
	t.tailDel = nil
	t.mu.Unlock()
	return ov
}

// Overlay is an immutable snapshot of a table's delta state as seen at
// one epoch: which base rows are deleted, plus the visible tail rows.
// Safe to share across goroutines.
type Overlay struct {
	Table    string
	BaseRows int
	// DeletedBase marks deleted base rows (nil = none deleted).
	DeletedBase *bitvec.Mask
	// TailCols holds the visible tail rows column-major, keyed by
	// column name; all slices are parallel to TailRowIDs.
	TailCols   map[string][]int64
	TailRowIDs []int64
}

// NumTail returns the number of visible tail rows.
func (o *Overlay) NumTail() int { return len(o.TailRowIDs) }

// NumDeleted returns the number of deleted base rows.
func (o *Overlay) NumDeleted() int {
	if o.DeletedBase == nil {
		return 0
	}
	return o.DeletedBase.Count()
}

// DeleteOnly reports whether the overlay carries no tail rows — the
// case the offload path can serve by ANDing a visibility mask into the
// scan, without falling back to the host engine.
func (o *Overlay) DeleteOnly() bool { return len(o.TailRowIDs) == 0 }

// BaseDeleted reports whether base rowid r is deleted in this overlay.
func (o *Overlay) BaseDeleted(r int) bool {
	return o.DeletedBase != nil && o.DeletedBase.Get(r)
}
