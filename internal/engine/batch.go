// Package engine is the host-side software query executor — the stand-in
// for MonetDB in the paper's evaluation. It executes bound plan trees over
// the column store, reading base tables through the flash device (so host
// I/O is accounted) and tracking the work and memory footprint the timing
// model converts into baseline run times for the S and L machines.
//
// Expression evaluation shares plan.Lower with the offload path, so host
// and AQUOMAN execution produce bit-identical results; only string-heap
// (Text) predicates take a host-only path, mirroring the paper where such
// queries are not offloadable.
package engine

import (
	"context"
	"fmt"
	"strings"

	"aquoman/internal/col"
	"aquoman/internal/plan"
)

// Batch is a fully materialized intermediate table.
type Batch struct {
	Schema plan.Schema
	// Cols is column-major data, one slice per schema field.
	Cols [][]int64
}

// NewBatch allocates an empty batch with the given schema.
func NewBatch(s plan.Schema) *Batch {
	return &Batch{Schema: s, Cols: make([][]int64, len(s))}
}

// NumRows returns the row count.
func (b *Batch) NumRows() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return len(b.Cols[0])
}

// Bytes returns the in-memory footprint (8 bytes per value).
func (b *Batch) Bytes() int64 {
	var n int64
	for _, c := range b.Cols {
		n += int64(len(c)) * 8
	}
	return n
}

// Col returns the column with the given name.
func (b *Batch) Col(name string) ([]int64, error) {
	i := b.Schema.Index(name)
	if i < 0 {
		return nil, fmt.Errorf("engine: batch has no column %q", name)
	}
	return b.Cols[i], nil
}

// Strings resolves every Dict and Text column to its strings, with one
// string read per column under ctx (nil = never cancelled); the entries of
// the other columns are nil.
func (b *Batch) Strings(ctx context.Context) ([][]string, error) {
	out := make([][]string, len(b.Schema))
	for c, f := range b.Schema {
		if f.Typ.IsString() && f.Src != nil {
			strs, err := f.Src.Strs(ctx, b.Cols[c], hostRequester)
			if err != nil {
				return nil, err
			}
			out[c] = strs
		}
	}
	return out, nil
}

// head returns the batch's first n rows, sharing its columns.
func (b *Batch) head(n int) *Batch {
	out := NewBatch(b.Schema)
	for c := range b.Cols {
		out.Cols[c] = b.Cols[c][:n]
	}
	return out
}

// Render formats the batch for display. The shown rows' string columns
// resolve with one string read each; if that fails, cell by cell, a cell
// whose read fails showing an error placeholder (display-only).
func (b *Batch) Render(maxRows int) string {
	var sb strings.Builder
	names := make([]string, len(b.Schema))
	for i, f := range b.Schema {
		names[i] = f.Name
	}
	sb.WriteString(strings.Join(names, "\t"))
	sb.WriteByte('\n')
	n := b.NumRows()
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	strs, err := b.head(n).Strings(nil)
	if err != nil {
		strs = make([][]string, len(b.Schema))
	}
	for r := 0; r < n; r++ {
		cells := make([]string, len(b.Schema))
		for c, f := range b.Schema {
			if strs[c] != nil {
				cells[c] = strs[c][r]
			} else {
				cells[c] = RenderValue(f, b.Cols[c][r])
			}
		}
		sb.WriteString(strings.Join(cells, "\t"))
		sb.WriteByte('\n')
	}
	if b.NumRows() > n {
		fmt.Fprintf(&sb, "... (%d rows total)\n", b.NumRows())
	}
	return sb.String()
}

// RenderValue formats a single value according to its field; a string by
// its own one-value read (a column is cheaper through Batch.Strings), a
// failed read as an error placeholder.
func RenderValue(f plan.Field, v int64) string {
	switch {
	case (f.Typ == col.Dict || f.Typ == col.Text) && f.Src != nil:
		s, err := f.Src.Str(v, hostRequester)
		if err != nil {
			return "<read error>"
		}
		return s
	default:
		return col.FormatValue(f.Typ, v)
	}
}
