package col

// Merge-support helpers for the write path (internal/catalog). They
// live in this package because a rebuild must touch the unexported
// column map and row counts; the catalog drives *what* to rebuild, this
// file does the storage mutation.

import (
	"fmt"

	"aquoman/internal/enc"
)

// selectionFor maps a column's current on-flash codec back to the
// encoding selection that reproduces it, so a merge rewrite preserves
// each column's layout (and its zone maps) instead of resetting
// everything to the store default.
func selectionFor(ci *ColumnInfo) enc.Selection {
	if ci.Enc == nil {
		return enc.SelRaw
	}
	switch ci.Enc.Codec {
	case enc.Dict:
		return enc.SelDict
	case enc.RLE:
		return enc.SelRLE
	case enc.FOR:
		return enc.SelFOR
	default:
		return enc.SelRaw
	}
}

// DropColumn removes a column from the table and deletes its data file
// from the device. It is how a merge discards stale materialized RowID
// companions before re-deriving them over the compacted row set; the
// string heap (if any) is left in place because other state may still
// reference it, and companions never have one.
func (t *Table) DropColumn(name string) error {
	ci, err := t.Column(name)
	if err != nil {
		return err
	}
	t.store.Dev.Remove(ci.File.Name())
	delete(t.cols, name)
	for i, def := range t.Cols {
		if def.Name == name {
			t.Cols = append(t.Cols[:i], t.Cols[i+1:]...)
			break
		}
	}
	return nil
}

// RowIDColumns returns the names of the table's materialized RowID
// companion columns (the merge drops and re-derives these).
func (t *Table) RowIDColumns() []string {
	var names []string
	for _, def := range t.Cols {
		if def.Typ == RowID {
			names = append(names, def.Name)
		}
	}
	return names
}

// RebuildRows rewrites every stored column of the table with the given
// values (one slice per remaining column, all of length n) and sets the
// row count to n. Each column keeps its current codec; re-creating the
// data file bumps the device's file generation, so page caches and
// result-cache fingerprints in front of the store invalidate on their
// existing seams. String heaps are not rewritten: Dict and Text values
// are codes/offsets into the existing heaps, which only ever grow.
func (t *Table) RebuildRows(n int, vals map[string][]Value) error {
	for _, def := range t.Cols {
		v, ok := vals[def.Name]
		if !ok {
			return fmt.Errorf("col: rebuild of %s is missing column %s", t.Name, def.Name)
		}
		if len(v) != n {
			return colLenErr(t.Name, def.Name, len(v), n)
		}
	}
	for _, def := range t.Cols {
		ci := t.cols[def.Name]
		v := vals[def.Name]
		sel := selectionFor(ci)
		ci.File = t.store.Dev.Create(t.Name + "/" + def.Name + ".dat")
		ci.Sorted, ci.Unique = orderFlags(v)
		ci.numRows = n
		if err := writeColumnData(ci, v, sel); err != nil {
			return fmt.Errorf("col: rebuild %s.%s: %w", t.Name, def.Name, err)
		}
	}
	t.NumRows = n
	return nil
}

// ValueInRange reports whether v fits the on-flash width of typ (the
// write path validates user input before committing, because the raw
// encoder treats overflow as a programming error and panics).
func ValueInRange(typ Type, v Value) bool {
	switch typ.Width() {
	case 8:
		return true
	case 4:
		return v <= (1<<31)-1 && v >= -(1<<31)
	default: // Bool
		return v == 0 || v == 1
	}
}
