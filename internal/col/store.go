package col

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"aquoman/internal/bitvec"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// ColDef describes one column of a schema.
type ColDef struct {
	Name string
	Typ  Type
}

// Schema is an ordered list of column definitions for a named table.
type Schema struct {
	Name string
	Cols []ColDef
}

// Col returns the definition of the named column and whether it exists.
func (s Schema) Col(name string) (ColDef, bool) {
	for _, c := range s.Cols {
		if c.Name == name {
			return c, true
		}
	}
	return ColDef{}, false
}

// Store is a catalog of tables backed by a simulated flash device.
type Store struct {
	Dev *flash.Device

	// DefaultEncoding is the column encoding applied by subsequent table
	// builds (NewTable, AddRowIDColumn). The zero value keeps the legacy
	// raw layout; set it before generating or loading data.
	DefaultEncoding enc.Selection

	mu     sync.Mutex
	tables map[string]*Table
}

// NewStore returns an empty store on the given device.
func NewStore(dev *flash.Device) *Store {
	return &Store{Dev: dev, tables: make(map[string]*Table)}
}

// Table returns the named table, or an error if absent.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("col: no table %q", name)
	}
	return t, nil
}

// MustTable is Table for callers that know the table exists.
func (s *Store) MustTable(name string) *Table {
	t, err := s.Table(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Tables returns all table names in deterministic order.
func (s *Store) Tables() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table is a loaded table: a schema plus per-column flash files.
type Table struct {
	Schema
	NumRows int

	store *Store
	cols  map[string]*ColumnInfo
}

// Column returns the named column's storage info.
func (t *Table) Column(name string) (*ColumnInfo, error) {
	c, ok := t.cols[name]
	if !ok {
		return nil, fmt.Errorf("col: table %q has no column %q", t.Name, name)
	}
	return c, nil
}

// MustColumn is Column for callers that know the column exists.
func (t *Table) MustColumn(name string) *ColumnInfo {
	c, err := t.Column(name)
	if err != nil {
		panic(err)
	}
	return c
}

// HasColumn reports whether the table stores the named column.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.cols[name]
	return ok
}

// ColumnNames returns the column names in schema order (materialized RowID
// companions included, after the declared columns).
func (t *Table) ColumnNames() []string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return names
}

// NumVecs returns the number of 32-row Row Vectors covering the table.
func (t *Table) NumVecs() int {
	return (t.NumRows + bitvec.VecSize - 1) / bitvec.VecSize
}

// BytesOnFlash returns the summed size of the table's column and heap files.
func (t *Table) BytesOnFlash() int64 {
	var n int64
	for _, c := range t.cols {
		n += c.File.Size()
		if c.Heap != nil {
			n += c.Heap.Size()
		}
	}
	return n
}

// ColumnInfo is the storage handle for one column: its data file, optional
// string heap, and (for Dict columns) the in-memory dictionary.
type ColumnInfo struct {
	Def  ColDef
	File *flash.File
	// Heap holds string content for Dict and Text columns.
	Heap *flash.File
	// dict maps code -> string for Dict columns (codes are assigned in
	// lexicographic order, so code comparisons agree with string order).
	dict []string
	// numRows mirrors the owning table's row count.
	numRows int
	// Sorted reports non-decreasing stored order; Unique reports strictly
	// increasing order (TPC-H primary keys are both). Computed at build
	// time, these drive the offload compiler's MERGE-vs-SORT_MERGE and
	// join-cardinality decisions.
	Sorted bool
	Unique bool
	// Enc describes the column's on-flash encoding and page directory;
	// nil means the legacy raw fixed-width layout.
	Enc *enc.ColumnMeta
}

// Codec returns the column's on-flash codec (enc.Raw for the legacy
// layout).
func (c *ColumnInfo) Codec() enc.Codec {
	if c.Enc == nil {
		return enc.Raw
	}
	return c.Enc.Codec
}

// NumRows returns the number of values stored.
func (c *ColumnInfo) NumRows() int { return c.numRows }

// Dict returns the dictionary of a Dict column (code -> string).
func (c *ColumnInfo) Dict() []string { return c.dict }

// Code returns the dictionary code for s in a Dict column, or (-1, false).
func (c *ColumnInfo) Code(s string) (Value, bool) {
	i := sort.SearchStrings(c.dict, s)
	if i < len(c.dict) && c.dict[i] == s {
		return Value(i), true
	}
	return -1, false
}

// CodeRangeForPrefix returns the half-open code interval [lo, hi) of
// dictionary entries with the given prefix (used to compile LIKE 'x%' on a
// Dict column into an integer range predicate).
func (c *ColumnInfo) CodeRangeForPrefix(prefix string) (lo, hi Value) {
	lo = Value(sort.SearchStrings(c.dict, prefix))
	hi = Value(sort.Search(len(c.dict), func(i int) bool {
		s := c.dict[i]
		if len(s) >= len(prefix) {
			return s[:len(prefix)] > prefix
		}
		return s > prefix
	}))
	return lo, hi
}

// ReadRange reads count values starting at row start into out, accounting
// flash traffic to who. It returns the number of values read.
func (c *ColumnInfo) ReadRange(start, count int, who flash.Requester, out []Value) (int, error) {
	return c.ReadRangeCtx(nil, start, count, who, out)
}

// ReadRangeCtx is ReadRange with cooperative cancellation: the underlying
// bulk read checks ctx at page-aligned chunk boundaries, so a cancelled
// query stops issuing flash page reads mid-column. A nil ctx never
// cancels.
func (c *ColumnInfo) ReadRangeCtx(ctx context.Context, start, count int, who flash.Requester, out []Value) (int, error) {
	if start >= c.numRows {
		return 0, nil
	}
	if start+count > c.numRows {
		count = c.numRows - start
	}
	if count <= 0 {
		return 0, nil
	}
	if c.Enc != nil {
		return c.readRangeEnc(ctx, start, count, who, out)
	}
	w := c.Def.Typ.Width()
	buf := make([]byte, count*w)
	n, err := c.File.ReadAtCtx(ctx, buf, int64(start)*int64(w), who)
	if err != nil {
		return 0, err
	}
	count = n / w
	decode(c.Def.Typ, buf[:count*w], out[:count])
	return count, nil
}

// ReadVec reads Row Vector vec (32 rows) into out and returns how many
// rows it held (the final vector may be short).
func (c *ColumnInfo) ReadVec(vec int, who flash.Requester, out []Value) (int, error) {
	return c.ReadRange(vec*bitvec.VecSize, bitvec.VecSize, who, out)
}

// ReadAll reads the entire column sequentially.
func (c *ColumnInfo) ReadAll(who flash.Requester) ([]Value, error) {
	return c.ReadAllCtx(nil, who)
}

// ReadAllCtx is ReadAll with cooperative cancellation (see ReadRangeCtx).
func (c *ColumnInfo) ReadAllCtx(ctx context.Context, who flash.Requester) ([]Value, error) {
	out := make([]Value, c.numRows)
	if _, err := c.ReadRangeCtx(ctx, 0, c.numRows, who, out); err != nil {
		return nil, err
	}
	return out, nil
}

// MustReadAll is ReadAll for fault-free contexts (build/test helpers); it
// panics on a read error.
func (c *ColumnInfo) MustReadAll(who flash.Requester) []Value {
	out, err := c.ReadAll(who)
	if err != nil {
		panic(err)
	}
	return out
}

// decodePage materializes the values of encoded page pi from its flash
// image.
func (c *ColumnInfo) decodePage(pi int, buf []byte) ([]Value, error) {
	p, err := enc.DecodePage(buf, c.Enc.Dict)
	if err != nil {
		return nil, fmt.Errorf("col: column %s page %d: %w", c.Def.Name, pi, err)
	}
	return p.Values(), nil
}

// readRangeEnc serves ReadRange over an encoded column: the pages
// overlapping [start, start+count) are fetched a device batch (at most
// flash.QueueDepth pages) at a time, each decoded once, and the requested
// rows copied out of the materialized values. count is positive and already
// clamped to the column's row range.
func (c *ColumnInfo) readRangeEnc(ctx context.Context, start, count int, who flash.Requester, out []Value) (int, error) {
	end := start + count
	var b flash.Batch
	for lo, last := c.Enc.PageFor(start), c.Enc.PageFor(end-1); lo <= last; lo += flash.QueueDepth {
		b.Reset(nil)
		for pi := lo; pi <= min(lo+flash.QueueDepth-1, last); pi++ {
			b.Add(c.File, int64(pi))
		}
		if err := b.Read(ctx, who); err != nil {
			return 0, err
		}
		for k := 0; k < b.Len(); k++ {
			vals, err := c.decodePage(lo+k, b.Page(k))
			if err != nil {
				return 0, err
			}
			pm := c.Enc.Pages[lo+k]
			from, to := max(start, pm.StartRow), min(end, pm.StartRow+pm.Count)
			copy(out[from-start:to-start], vals[from-pm.StartRow:to-pm.StartRow])
		}
	}
	return count, nil
}

// rowPage maps a row to the flash page holding it.
func (c *ColumnInfo) rowPage(row int) int64 {
	if c.Enc != nil {
		return int64(c.Enc.PageFor(row))
	}
	return int64(row) * int64(c.Def.Typ.Width()) / flash.PageSize
}

// Gather reads the values at the given row ids (0 for a row id out of
// range). The walk over rowids is the one a one-page buffer would make —
// consecutive rowids on the same flash page cost a single page read, so
// clustered gathers (sorted RowID columns) approach sequential cost while
// scattered ones pay a page per element — but the pages it calls for go to
// the device a batch (at most flash.QueueDepth) at a time, under the
// query's ctx (nil = never cancelled). Raw and encoded columns differ only
// in how a fetched page yields a value.
func (c *ColumnInfo) Gather(ctx context.Context, rowids []Value, who flash.Requester) ([]Value, error) {
	out := make([]Value, len(rowids))
	inRange := func(r Value) bool { return r >= 0 && r < Value(c.numRows) }
	w := c.Def.Typ.Width()
	var b flash.Batch
	for lo := 0; lo < len(rowids); {
		// Plan the batch: one page per change of page along rowids[lo:hi].
		b.Reset(nil)
		cur, hi := int64(-1), lo
		for ; hi < len(rowids); hi++ {
			if !inRange(rowids[hi]) {
				continue
			}
			if p := c.rowPage(int(rowids[hi])); p != cur {
				if b.Len() == flash.QueueDepth {
					break
				}
				b.Add(c.File, p)
				cur = p
			}
		}
		if err := b.Read(ctx, who); err != nil {
			return nil, err
		}
		// Walk the same rowids again, now with their pages in hand.
		var (
			k    = -1
			raw  []byte  // page k of a raw column
			vals []Value // page k of an encoded one, decoded
			base int     // its first row
		)
		cur = -1
		for i := lo; i < hi; i++ {
			r := int(rowids[i])
			if !inRange(rowids[i]) {
				continue
			}
			if p := c.rowPage(r); p != cur {
				k, cur = k+1, p
				if c.Enc == nil {
					raw, base = b.Page(k), int(p)*flash.PageSize/w
				} else {
					var err error
					if vals, err = c.decodePage(int(p), b.Page(k)); err != nil {
						return nil, err
					}
					base = c.Enc.Pages[p].StartRow
				}
			}
			if c.Enc == nil {
				out[i] = decodeOne(c.Def.Typ, raw[(r-base)*w:])
			} else {
				out[i] = vals[r-base]
			}
		}
		lo = hi
	}
	return out, nil
}

// decode unpacks len(out) values of type t from buf. Each case reslices
// buf to exactly those values once, so its loop checks at most one full
// slice expression per value, and the 1-byte loop none.
func decode(t Type, buf []byte, out []Value) {
	switch t.Width() {
	case 8:
		buf := buf[:len(out)*8]
		for i := range out {
			j := i * 8
			out[i] = int64(binary.LittleEndian.Uint64(buf[j : j+8 : j+8]))
		}
	case 4:
		buf := buf[:len(out)*4]
		for i := range out {
			j := i * 4
			out[i] = int64(int32(binary.LittleEndian.Uint32(buf[j : j+4 : j+4])))
		}
	case 1:
		buf := buf[:len(out)]
		for i := range out {
			out[i] = int64(buf[i])
		}
	}
}

func decodeOne(t Type, buf []byte) Value {
	switch t.Width() {
	case 8:
		return int64(binary.LittleEndian.Uint64(buf))
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(buf)))
	default:
		return int64(buf[0])
	}
}

func encode(t Type, vals []Value) []byte {
	w := t.Width()
	buf := make([]byte, len(vals)*w)
	switch w {
	case 8:
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
		}
	case 4:
		for i, v := range vals {
			if v > (1<<31)-1 || v < -(1<<31) {
				panic(fmt.Sprintf("col: value %d overflows 32-bit %s column", v, t))
			}
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(int32(v)))
		}
	case 1:
		for i, v := range vals {
			buf[i] = byte(v & 1)
		}
	}
	return buf
}
