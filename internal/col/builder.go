package col

import (
	"fmt"
	"sort"

	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// TableBuilder accumulates rows column-wise and writes them to flash on
// Finalize. Dict columns are dictionary-encoded with codes assigned in
// lexicographic order of the distinct strings (so code order == string
// order); Text columns append to a string heap.
type TableBuilder struct {
	store  *Store
	schema Schema
	num    int

	ints   [][]Value  // per Non-string column: buffered values
	strs   [][]string // per string column: buffered strings
	strIdx []int      // schema index -> strs index (or -1)
	intIdx []int      // schema index -> ints index (or -1)
	// dictSeeds pre-interns dictionary values (SeedDictionary).
	dictSeeds map[string][]string
	// encSel is the table-wide encoding selection (the store's default
	// when the build started).
	encSel enc.Selection
	done   bool
}

// NewTable starts building a table with the given schema. The table
// replaces any existing table of the same name when finalized.
func (s *Store) NewTable(schema Schema) *TableBuilder {
	b := &TableBuilder{store: s, schema: schema, encSel: s.DefaultEncoding}
	b.strIdx = make([]int, len(schema.Cols))
	b.intIdx = make([]int, len(schema.Cols))
	for i, c := range schema.Cols {
		if c.Typ.IsString() {
			b.strIdx[i] = len(b.strs)
			b.intIdx[i] = -1
			b.strs = append(b.strs, nil)
		} else {
			b.intIdx[i] = len(b.ints)
			b.strIdx[i] = -1
			b.ints = append(b.ints, nil)
		}
	}
	return b
}

// Append adds one row. vals must match the schema positionally: string
// columns take string, everything else takes an int64-compatible Value.
func (b *TableBuilder) Append(vals ...any) {
	if len(vals) != len(b.schema.Cols) {
		panic(fmt.Sprintf("col: Append got %d values for %d columns of %s",
			len(vals), len(b.schema.Cols), b.schema.Name))
	}
	for i, v := range vals {
		if si := b.strIdx[i]; si >= 0 {
			s, ok := v.(string)
			if !ok {
				panic(fmt.Sprintf("col: column %s wants string, got %T",
					b.schema.Cols[i].Name, v))
			}
			b.strs[si] = append(b.strs[si], s)
			continue
		}
		var x Value
		switch n := v.(type) {
		case int64:
			x = n
		case int:
			x = int64(n)
		case int32:
			x = int64(n)
		case bool:
			if n {
				x = 1
			}
		default:
			panic(fmt.Sprintf("col: column %s wants integer value, got %T",
				b.schema.Cols[i].Name, v))
		}
		b.ints[b.intIdx[i]] = append(b.ints[b.intIdx[i]], x)
	}
	b.num++
}

// AppendColumnValues bulk-appends an entire integer column; all integer
// columns must be given the same length and string columns must use
// AppendColumnStrings. It is the fast path for generators.
func (b *TableBuilder) AppendColumnValues(name string, vals []Value) {
	i := b.colIndex(name)
	if b.intIdx[i] < 0 {
		panic(fmt.Sprintf("col: %s is a string column", name))
	}
	b.ints[b.intIdx[i]] = append(b.ints[b.intIdx[i]], vals...)
}

// AppendColumnStrings bulk-appends an entire string column.
func (b *TableBuilder) AppendColumnStrings(name string, vals []string) {
	i := b.colIndex(name)
	if b.strIdx[i] < 0 {
		panic(fmt.Sprintf("col: %s is not a string column", name))
	}
	b.strs[b.strIdx[i]] = append(b.strs[b.strIdx[i]], vals...)
}

// SetNumRows fixes the row count after bulk appends.
func (b *TableBuilder) SetNumRows(n int) { b.num = n }

// SeedDictionary pre-interns values into a Dict column's dictionary so
// that stores holding different subsets of a domain (e.g. horizontal
// partitions) still assign identical codes. The final dictionary is the
// sorted union of the seed and the appended values.
func (b *TableBuilder) SeedDictionary(name string, values []string) {
	i := b.colIndex(name)
	if b.schema.Cols[i].Typ != Dict {
		panic(fmt.Sprintf("col: SeedDictionary on non-dict column %q", name))
	}
	if b.dictSeeds == nil {
		b.dictSeeds = make(map[string][]string)
	}
	b.dictSeeds[name] = append(b.dictSeeds[name], values...)
}

func (b *TableBuilder) colIndex(name string) int {
	for i, c := range b.schema.Cols {
		if c.Name == name {
			return i
		}
	}
	panic(fmt.Sprintf("col: schema %s has no column %q", b.schema.Name, name))
}

// Finalize writes all column files to flash and registers the table.
func (b *TableBuilder) Finalize() (*Table, error) {
	if b.done {
		return nil, fmt.Errorf("col: table %s already finalized", b.schema.Name)
	}
	b.done = true
	t := &Table{
		Schema:  b.schema,
		NumRows: b.num,
		store:   b.store,
		cols:    make(map[string]*ColumnInfo),
	}
	for i, def := range b.schema.Cols {
		ci := &ColumnInfo{Def: def, numRows: b.num}
		base := b.schema.Name + "/" + def.Name
		ci.File = b.store.Dev.Create(base + ".dat")
		var vals []Value
		switch {
		case b.strIdx[i] >= 0 && def.Typ == Dict:
			strs := b.strs[b.strIdx[i]]
			if len(strs) != b.num {
				return nil, colLenErr(b.schema.Name, def.Name, len(strs), b.num)
			}
			dict, codes := dictEncode(strs, b.dictSeeds[def.Name])
			ci.dict = dict
			ci.Heap = b.store.Dev.Create(base + ".heap")
			writeHeap(ci.Heap, dict)
			vals = codes
		case b.strIdx[i] >= 0: // Text
			strs := b.strs[b.strIdx[i]]
			if len(strs) != b.num {
				return nil, colLenErr(b.schema.Name, def.Name, len(strs), b.num)
			}
			ci.Heap = b.store.Dev.Create(base + ".heap")
			vals = writeHeap(ci.Heap, strs)
		default:
			vals = b.ints[b.intIdx[i]]
			if len(vals) != b.num {
				return nil, colLenErr(b.schema.Name, def.Name, len(vals), b.num)
			}
		}
		ci.Sorted, ci.Unique = orderFlags(vals)
		if err := writeColumnData(ci, vals, b.encSel); err != nil {
			return nil, fmt.Errorf("col: table %s column %s: %w", b.schema.Name, def.Name, err)
		}
		t.cols[def.Name] = ci
	}
	b.store.mu.Lock()
	b.store.tables[t.Name] = t
	b.store.mu.Unlock()
	// Release builder buffers.
	b.ints, b.strs = nil, nil
	return t, nil
}

func colLenErr(table, col string, got, want int) error {
	return fmt.Errorf("col: table %s column %s has %d values, want %d", table, col, got, want)
}

// writeColumnData appends the column's values to its (fresh) flash file
// under the selected encoding and records the page directory on ci. The
// raw selection keeps the legacy fixed-width layout byte-identical.
func writeColumnData(ci *ColumnInfo, vals []Value, sel enc.Selection) error {
	codec := sel.Pick(vals, ci.Def.Typ.Width())
	if codec == enc.Raw {
		ci.Enc = nil
		ci.File.Append(encode(ci.Def.Typ, vals), flash.Host)
		return nil
	}
	data, meta, err := enc.EncodeColumn(vals, codec)
	if err != nil {
		return err
	}
	ci.Enc = meta
	ci.File.Append(data, flash.Host)
	return nil
}

// orderFlags reports whether vals are non-decreasing / strictly
// increasing.
func orderFlags(vals []Value) (sorted, unique bool) {
	sorted, unique = true, true
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			return false, false
		}
		if vals[i] == vals[i-1] {
			unique = false
		}
	}
	return sorted, unique
}

// dictEncode returns the sorted distinct strings (including any seeded
// values) and the per-row codes.
func dictEncode(strs, seed []string) ([]string, []Value) {
	set := make(map[string]struct{}, 64)
	for _, s := range seed {
		set[s] = struct{}{}
	}
	for _, s := range strs {
		set[s] = struct{}{}
	}
	dict := make([]string, 0, len(set))
	for s := range set {
		dict = append(dict, s)
	}
	sort.Strings(dict)
	code := make(map[string]Value, len(dict))
	for i, s := range dict {
		code[s] = Value(i)
	}
	out := make([]Value, len(strs))
	for i, s := range strs {
		out[i] = code[s]
	}
	return dict, out
}

// AddRowIDColumn attaches a materialized RowID column (MonetDB's join
// index for a foreign key) to table t under the given name. vals[i] must
// be the referenced table's row index for row i.
func (t *Table) AddRowIDColumn(name string, vals []Value) error {
	if len(vals) != t.NumRows {
		return colLenErr(t.Name, name, len(vals), t.NumRows)
	}
	if t.HasColumn(name) {
		return fmt.Errorf("col: table %s already has column %q", t.Name, name)
	}
	def := ColDef{Name: name, Typ: RowID}
	ci := &ColumnInfo{Def: def, numRows: t.NumRows}
	ci.Sorted, ci.Unique = orderFlags(vals)
	ci.File = t.store.Dev.Create(t.Name + "/" + name + ".dat")
	if err := writeColumnData(ci, vals, t.store.DefaultEncoding); err != nil {
		return fmt.Errorf("col: table %s column %s: %w", t.Name, name, err)
	}
	t.cols[name] = ci
	t.Cols = append(t.Cols, def)
	return nil
}

// ReEncodeColumn rewrites one column's flash file under a (possibly
// different) encoding selection. The file is re-created in place, which
// bumps the device's file generation and invalidates any page cache in
// front of it — stale raw pages can never be served for the re-encoded
// layout.
func (t *Table) ReEncodeColumn(name string, sel enc.Selection) error {
	ci, err := t.Column(name)
	if err != nil {
		return err
	}
	vals, err := ci.ReadAll(flash.Host)
	if err != nil {
		return err
	}
	ci.File = t.store.Dev.Create(t.Name + "/" + name + ".dat")
	if err := writeColumnData(ci, vals, sel); err != nil {
		return fmt.Errorf("col: table %s column %s: %w", t.Name, name, err)
	}
	return nil
}

// ReEncodeTable rewrites every column of the table under sel.
func (t *Table) ReEncodeTable(sel enc.Selection) error {
	for _, name := range t.ColumnNames() {
		if err := t.ReEncodeColumn(name, sel); err != nil {
			return err
		}
	}
	return nil
}

// RowIDColumnName is the naming convention for a foreign-key column's
// materialized RowID companion.
func RowIDColumnName(fkCol string) string { return fkCol + "@rowid" }

// MaterializeFK builds and attaches the RowID companion column for
// fact.fkCol referencing dim.pkCol. Every foreign key must find its
// primary key (TPC-H guarantees referential integrity).
func MaterializeFK(fact *Table, fkCol string, dim *Table, pkCol string) error {
	fk, err := fact.Column(fkCol)
	if err != nil {
		return err
	}
	pk, err := dim.Column(pkCol)
	if err != nil {
		return err
	}
	pkVals, err := pk.ReadAll(flash.Host)
	if err != nil {
		return err
	}
	idx := make(map[Value]Value, len(pkVals))
	for i, v := range pkVals {
		idx[v] = Value(i)
	}
	fkVals, err := fk.ReadAll(flash.Host)
	if err != nil {
		return err
	}
	rowids := make([]Value, len(fkVals))
	for i, v := range fkVals {
		r, ok := idx[v]
		if !ok {
			return fmt.Errorf("col: %s.%s=%d has no match in %s.%s",
				fact.Name, fkCol, v, dim.Name, pkCol)
		}
		rowids[i] = r
	}
	return fact.AddRowIDColumn(RowIDColumnName(fkCol), rowids)
}
