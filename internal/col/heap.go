package col

// The string heap of a Dict or Text column: length-prefixed strings (a
// 4-byte little-endian length, then the bytes) back to back. A Text value
// is its string's heap offset; a Dict heap persists the dictionary. Only
// this file knows the layout, and every string read goes through Strs.

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"aquoman/internal/flash"
)

// appendHeapString appends s to buf in the heap layout.
func appendHeapString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// heapString decodes the string at byte off of heap bytes buf and returns
// it with the offset just past it. When buf stops short of that end the
// string is "" and end says how far buf must reach to decode it (off+4
// while the length prefix itself is cut).
func heapString(buf []byte, off int) (s string, end int) {
	if off+4 > len(buf) {
		return "", off + 4
	}
	end = off + 4 + int(binary.LittleEndian.Uint32(buf[off:]))
	if end > len(buf) {
		return "", end
	}
	return string(buf[off+4 : end]), end
}

// writeHeap appends strs to the end of heap and returns each string's
// offset (a Text column's stored values). For a Dict column the offsets
// are unused; the heap just persists the dictionary.
func writeHeap(heap *flash.File, strs []string) []Value {
	offs := make([]Value, len(strs))
	off := heap.Size()
	var buf []byte
	for i, s := range strs {
		offs[i] = off + int64(len(buf))
		buf = appendHeapString(buf, s)
		if len(buf) >= 1<<20 {
			heap.Append(buf, flash.Host)
			off += int64(len(buf))
			buf = buf[:0]
		}
	}
	heap.Append(buf, flash.Host)
	return offs
}

// AppendHeapStrings appends strings to a Text column's heap and returns
// each string's offset — the stored values for freshly ingested rows. The
// heap append bumps the file's generation like any other write.
func AppendHeapStrings(ci *ColumnInfo, strs []string) ([]Value, error) {
	if ci.Def.Typ != Text || ci.Heap == nil {
		return nil, fmt.Errorf("col: AppendHeapStrings on non-text column %q", ci.Def.Name)
	}
	return writeHeap(ci.Heap, strs), nil
}

// readDict decodes a Dict column's dictionary from its heap.
func readDict(ci *ColumnInfo) ([]string, error) {
	buf := make([]byte, ci.Heap.Size())
	if _, err := ci.Heap.ReadAt(buf, 0, flash.Host); err != nil {
		return nil, err
	}
	var dict []string
	for off := 0; off < len(buf); {
		s, end := heapString(buf, off)
		if end > len(buf) {
			return nil, fmt.Errorf("truncated dictionary heap")
		}
		dict = append(dict, s)
		off = end
	}
	return dict, nil
}

// HeapBytes returns the string-heap size (0 for non-string columns). The
// compiler compares this against the regex accelerator's 1 MB cache to
// decide whether string filtering must be suspended to the host
// (Sec. VI-E condition 2).
func (c *ColumnInfo) HeapBytes() int64 {
	if c.Heap == nil {
		return 0
	}
	return c.Heap.Size()
}

// Str is Strs for one value.
func (c *ColumnInfo) Str(v Value, who flash.Requester) (string, error) {
	s, err := c.Strs(nil, []Value{v}, who)
	if err != nil {
		return "", err
	}
	return s[0], nil
}

// Strs resolves stored values of a Dict or Text column to their strings.
// The values may come in any order and repeat; one that names no string
// resolves to "". A Dict column answers from its dictionary. A Text column
// reads each heap page that holds a byte of a requested string once,
// ascending, at most flash.QueueDepth pages a trip, under ctx (nil = never
// cancelled): resolving every row reads the heap once as one sequential
// stream. A page that cannot be read fails the call with the typed fault.
func (c *ColumnInfo) Strs(ctx context.Context, vals []Value, who flash.Requester) ([]string, error) {
	out := make([]string, len(vals))
	switch c.Def.Typ {
	case Dict:
		for i, v := range vals {
			if v >= 0 && int(v) < len(c.dict) {
				out[i] = c.dict[v]
			}
		}
	case Text:
		if err := c.heapStrs(ctx, vals, who, out); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("col: string read of %s column %q", c.Def.Typ, c.Def.Name)
	}
	return out, nil
}

// heapStrs is Strs for a Text column. The requests are counting-sorted by
// the page each starts on and walked with a window of heap bytes from the
// first unresolved request's page to the last page read. A trip reads the
// pages the first unresolved request is known to need and runs on only
// while the next request starts on the following page: a string's length
// is known only once its prefix is read, so a trip reaching across a gap
// could leave a needed page behind it.
func (c *ColumnInfo) heapStrs(ctx context.Context, vals []Value, who flash.Requester, out []string) error {
	const ps = flash.PageSize
	size := c.HeapBytes()
	valid := func(v Value) bool { return v >= 0 && v <= size-4 }
	lo, hi := int64(math.MaxInt64), int64(-1)
	for _, v := range vals {
		if valid(v) {
			lo, hi = min(lo, v/ps), max(hi, v/ps)
		}
	}
	if hi < 0 {
		return nil
	}
	at := make([]int, hi-lo+2)
	for _, v := range vals {
		if valid(v) {
			at[v/ps-lo+1]++
		}
	}
	for p := 1; p < len(at); p++ {
		at[p] += at[p-1]
	}
	order := make([]int, at[len(at)-1])
	for i, v := range vals {
		if valid(v) {
			order[at[v/ps-lo]] = i
			at[v/ps-lo]++
		}
	}

	var b flash.Batch
	var win []byte       // heap bytes [base, base+len(win)): whole pages but the heap's last
	var base, next int64 // next is the page after the window
	for k := 0; k < len(order); {
		off := vals[order[k]]
		if off >= base+int64(len(win)) { // every string in the window is resolved
			base, win, next = off/ps*ps, win[:0], off/ps
		}
		s, end := heapString(win, int(off-base))
		if e := base + int64(end); e <= base+int64(len(win)) || e > size { // whole, or cut by the heap's end
			out[order[k]] = s
			k++
			continue
		}
		// Read through the string's known end, and on while the following
		// requests start on the next page, keeping the window from off's
		// page on. The window's spare capacity is the batch's scratch, so
		// an uncached device delivers in place.
		last, stop := (base+int64(end)-1)/ps, next+flash.QueueDepth-1
		for j := k + 1; j < len(order) && last < stop && vals[order[j]]/ps <= last+1; j++ {
			last = max(last, (vals[order[j]]+3)/ps)
		}
		last = min(last, stop)
		if t := off/ps*ps - base; t > 0 {
			win, base = win[:copy(win, win[t:])], base+t
		}
		win = slices.Grow(win, int(last-next+1)*ps)
		b.Reset(win[len(win):cap(win)])
		for p := next; p <= last; p++ {
			b.Add(c.Heap, p)
		}
		if err := b.Read(ctx, who); err != nil {
			return err
		}
		for q := 0; q < b.Len(); q++ {
			win = append(win, b.Page(q)...)
		}
		next += int64(b.Len())
	}
	return nil
}
