package tpch

// MVCC support for the differential oracle: Clone gives each concurrent
// query its own mutable snapshot, ApplyOverlay folds a delta overlay in
// the naive way (filter a slice, append a slice) so agreement with the
// engine's scan-time overlay application stays evidence, not shared code.

import (
	"fmt"

	"aquoman/internal/col"
	"aquoman/internal/delta"
	"aquoman/internal/flash"
)

// Clone returns an independently mutable copy of the snapshot. Column
// vectors are shared until ApplyOverlay replaces them wholesale (they
// are never mutated in place); dictionaries are immutable and shared;
// text maps are copied because overlays add tail offsets to them.
func (o *Oracle) Clone() *Oracle {
	c := &Oracle{
		tables: make(map[string]*oraTable, len(o.tables)),
		dicts:  o.dicts,
		texts:  make(map[*col.ColumnInfo]map[int64]string, len(o.texts)),
	}
	for ci, m := range o.texts {
		mm := make(map[int64]string, len(m))
		for k, v := range m {
			mm[k] = v
		}
		c.texts[ci] = mm
	}
	for name, t := range o.tables {
		ct := &oraTable{rows: t.rows, cols: make(map[string][]int64, len(t.cols))}
		for cn, vals := range t.cols {
			ct.cols[cn] = vals
		}
		c.tables[name] = ct
	}
	return c
}

// ApplyOverlay rewrites one table of the snapshot to an overlay's view:
// deleted base rows drop out, visible tail rows append. Tail Text
// offsets are resolved through the store's heap (they were appended at
// ingest and never move), extending the snapshot's decode map.
func (o *Oracle) ApplyOverlay(s *col.Store, ov *delta.Overlay) error {
	t, ok := o.tables[ov.Table]
	if !ok {
		return fmt.Errorf("oracle: overlay for unknown table %q", ov.Table)
	}
	if t.rows != ov.BaseRows {
		return fmt.Errorf("oracle: overlay for %s is against %d rows, snapshot has %d",
			ov.Table, ov.BaseRows, t.rows)
	}
	tab, err := s.Table(ov.Table)
	if err != nil {
		return err
	}
	// Materialized RowID companions have no tail values until the merge
	// re-derives them; the reference executor joins by value, so the
	// overlaid snapshot simply drops them.
	companion := make(map[string]bool)
	for _, def := range tab.Cols {
		if def.Typ == col.RowID {
			companion[def.Name] = true
		}
	}
	var keep []int
	if ov.NumDeleted() > 0 {
		keep = make([]int, 0, t.rows-ov.NumDeleted())
		for r := 0; r < t.rows; r++ {
			if !ov.BaseDeleted(r) {
				keep = append(keep, r)
			}
		}
	}
	for name, base := range t.cols {
		var tail []int64
		if len(ov.TailRowIDs) > 0 {
			if tail, ok = ov.TailCols[name]; !ok {
				if companion[name] {
					delete(t.cols, name)
					continue
				}
				return fmt.Errorf("oracle: overlay for %s has no column %q", ov.Table, name)
			}
		}
		out := make([]int64, 0, len(base)+len(tail))
		if keep != nil {
			for _, r := range keep {
				out = append(out, base[r])
			}
		} else {
			out = append(out, base...)
		}
		t.cols[name] = append(out, tail...)
	}
	if keep != nil {
		t.rows = len(keep) + len(ov.TailRowIDs)
	} else {
		t.rows += len(ov.TailRowIDs)
	}
	// Tail rows of Text columns may carry offsets the snapshot has not
	// seen; resolve them once through the real heap.
	for _, def := range tab.Cols {
		if def.Typ != col.Text || len(ov.TailRowIDs) == 0 {
			continue
		}
		ci, err := tab.Column(def.Name)
		if err != nil {
			return err
		}
		m := o.texts[ci]
		if m == nil {
			m = make(map[int64]string)
			o.texts[ci] = m
		}
		offs := ov.TailCols[def.Name]
		strs, err := ci.Strs(nil, offs, flash.Host)
		if err != nil {
			return fmt.Errorf("oracle: overlay heap read %s.%s: %w", ov.Table, def.Name, err)
		}
		for i, off := range offs {
			m[off] = strs[i]
		}
	}
	return nil
}
