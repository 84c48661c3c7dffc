// Package enc implements AQUOMAN's compressed column encodings: the
// on-flash page formats, per-page zone maps, and the build-time codec
// selector. The premise of in-storage analytics is that every byte NOT
// moved across the flash interface is pure win (cf. computation-pushdown
// systems pairing operator offload with compact layouts), so hot columns
// are stored bit-packed and every page carries a min/max/count header the
// Row Selector can consult to skip the page without reading it.
//
// Three codecs are provided on top of the legacy raw layout:
//
//   - Dict: the column's distinct values are collected into a sorted
//     dictionary (held in ColumnMeta, persisted in the catalog) and each
//     row stores a bit-packed code. Codes are assigned in value order, so
//     code comparisons agree with value comparisons.
//   - RLE: runs of equal values are stored as (value, length) pairs.
//   - FOR: frame-of-reference — each page stores a base (its minimum)
//     and bit-packed unsigned deltas sized to the page's value range.
//
// Every encoded page occupies exactly one flash page (flash.PageSize,
// padded), so the encoded page index IS the flash page number and all
// existing page-granular accounting, caching, and skipping semantics
// carry over unchanged; compression shows up as more rows per page. Row
// counts per page are aligned to 32 (the Row Vector size) except for the
// final page, so a Row Vector never straddles pages.
package enc

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"aquoman/internal/flash"
)

// Codec identifies a column's on-flash layout.
type Codec uint8

const (
	// Raw is the legacy fixed-width layout: no page headers, no zone
	// maps, rows addressed by plain byte arithmetic.
	Raw Codec = iota
	// Dict bit-packs per-row codes into a column-level sorted dictionary.
	Dict
	// RLE stores (value, run-length) pairs.
	RLE
	// FOR stores a per-page base plus bit-packed unsigned deltas.
	FOR

	numCodecs
)

// NumCodecs is the number of codec variants (for per-codec counters).
const NumCodecs = int(numCodecs)

func (c Codec) String() string {
	switch c {
	case Raw:
		return "raw"
	case Dict:
		return "dict"
	case RLE:
		return "rle"
	case FOR:
		return "for"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Selection is a build-time encoding choice for a column or store:
// either a forced codec, the legacy raw layout, or automatic selection
// from sampled statistics. The zero value is SelRaw, so existing stores
// build byte-identically unless a caller opts in.
type Selection int

const (
	SelRaw Selection = iota
	SelAuto
	SelDict
	SelRLE
	SelFOR
)

func (s Selection) String() string {
	switch s {
	case SelRaw:
		return "raw"
	case SelAuto:
		return "auto"
	case SelDict:
		return "dict"
	case SelRLE:
		return "rle"
	case SelFOR:
		return "for"
	default:
		return fmt.Sprintf("selection(%d)", int(s))
	}
}

// ParseSelection parses the CLI encoding spelling (auto|raw|dict|rle|for).
func ParseSelection(s string) (Selection, error) {
	switch s {
	case "raw":
		return SelRaw, nil
	case "auto":
		return SelAuto, nil
	case "dict":
		return SelDict, nil
	case "rle":
		return SelRLE, nil
	case "for":
		return SelFOR, nil
	default:
		return SelRaw, fmt.Errorf("enc: unknown encoding %q (want auto|raw|dict|rle|for)", s)
	}
}

// Pick resolves the selection for a concrete column: forced selections
// map to their codec, SelAuto consults Choose.
func (s Selection) Pick(vals []int64, rawWidth int) Codec {
	switch s {
	case SelDict:
		return Dict
	case SelRLE:
		return RLE
	case SelFOR:
		return FOR
	case SelAuto:
		return Choose(vals, rawWidth)
	default:
		return Raw
	}
}

// Page geometry. The 24-byte header makes every page self-describing:
//
//	[0]     magic 0xEC
//	[1]     format version
//	[2]     codec
//	[3]     reserved
//	[4:8]   row count (uint32 LE)
//	[8:16]  zone-map min (int64 LE)
//	[16:24] zone-map max (int64 LE)
//
// followed by the codec payload:
//
//	FOR:  base int64, width uint8, bit-packed deltas
//	Dict: width uint8, bit-packed codes
//	RLE:  nruns uint32, then (value int64, length uint32) pairs
const (
	headerSize  = 24
	pageMagic   = 0xEC
	pageVersion = 1

	// alignRows keeps every Row Vector inside one page.
	alignRows = 32

	// MaxPageRows caps rows per encoded page so a single page decode
	// stays bounded (a giant RLE run could otherwise cover millions of
	// rows) and zone maps keep useful granularity.
	MaxPageRows = 65536
)

// PageMeta is one page's directory entry: its row range and zone map.
// Min/Max are over the decoded values (for Dict pages too — codes are
// value-ordered, so the value extremes are the extreme codes' values).
type PageMeta struct {
	StartRow int
	Count    int
	Min, Max int64
}

// ColumnMeta is the in-memory directory of an encoded column: the codec,
// the column-level dictionary (Dict codec only), and the per-page zone
// maps. It is persisted in the store catalog and is the source of truth
// for row→page addressing (the on-flash headers duplicate the zone maps
// so pages stay self-describing).
type ColumnMeta struct {
	Codec Codec
	Dict  []int64
	Pages []PageMeta
}

// NumRows returns the total row count across pages.
func (m *ColumnMeta) NumRows() int {
	if len(m.Pages) == 0 {
		return 0
	}
	last := m.Pages[len(m.Pages)-1]
	return last.StartRow + last.Count
}

// PageFor returns the index of the page containing row (clamped to the
// directory bounds for out-of-range rows).
func (m *ColumnMeta) PageFor(row int) int {
	i := sort.Search(len(m.Pages), func(i int) bool {
		return m.Pages[i].StartRow > row
	}) - 1
	if i < 0 {
		return 0
	}
	return i
}

// EncodeColumn encodes vals under the given codec into flash page images
// (len = numPages × flash.PageSize) plus the column directory. Raw is not
// a paged codec; callers keep the legacy layout for it.
func EncodeColumn(vals []int64, codec Codec) ([]byte, *ColumnMeta, error) {
	switch codec {
	case Dict:
		return encodeDict(vals)
	case RLE:
		return encodeRLE(vals)
	case FOR:
		return encodeFOR(vals)
	default:
		return nil, nil, fmt.Errorf("enc: %s is not a paged codec", codec)
	}
}

func writeHeader(page []byte, codec Codec, count int, min, max int64) {
	page[0] = pageMagic
	page[1] = pageVersion
	page[2] = byte(codec)
	binary.LittleEndian.PutUint32(page[4:], uint32(count))
	binary.LittleEndian.PutUint64(page[8:], uint64(min))
	binary.LittleEndian.PutUint64(page[16:], uint64(max))
}

func minMax(vals []int64) (mn, mx int64) {
	mn, mx = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	return mn, mx
}

// widthOf returns the bit width needed for the unsigned range [min,max].
func widthOf(min, max int64) int {
	return bits.Len64(uint64(max) - uint64(min))
}

// alignDown rounds n down to a Row Vector multiple, except that a count
// already below one vector is kept as-is (only possible on the final
// page).
func alignDown(n int) int {
	if a := n / alignRows * alignRows; a > 0 {
		return a
	}
	return n
}

func encodeFOR(vals []int64) ([]byte, *ColumnMeta, error) {
	meta := &ColumnMeta{Codec: FOR}
	var out []byte
	const maxPayload = flash.PageSize - headerSize - 9 // base + width byte
	for i := 0; i < len(vals); {
		mn, mx := vals[i], vals[i]
		j := i
		for j < len(vals) && j-i < MaxPageRows {
			nmn, nmx := mn, mx
			if vals[j] < nmn {
				nmn = vals[j]
			}
			if vals[j] > nmx {
				nmx = vals[j]
			}
			n := j - i + 1
			w := widthOf(nmn, nmx)
			if (n*w+7)/8 > maxPayload {
				break
			}
			mn, mx = nmn, nmx
			j++
		}
		count := j - i
		if j < len(vals) {
			count = alignDown(count)
		}
		window := vals[i : i+count]
		mn, mx = minMax(window)
		w := widthOf(mn, mx)
		page := make([]byte, flash.PageSize)
		writeHeader(page, FOR, count, mn, mx)
		binary.LittleEndian.PutUint64(page[headerSize:], uint64(mn))
		page[headerSize+8] = byte(w)
		deltas := make([]uint64, count)
		for k, v := range window {
			deltas[k] = uint64(v) - uint64(mn)
		}
		packBits(page[headerSize+9:], deltas, w)
		meta.Pages = append(meta.Pages, PageMeta{StartRow: i, Count: count, Min: mn, Max: mx})
		out = append(out, page...)
		i += count
	}
	return out, meta, nil
}

func encodeRLE(vals []int64) ([]byte, *ColumnMeta, error) {
	meta := &ColumnMeta{Codec: RLE}
	var out []byte
	const maxRuns = (flash.PageSize - headerSize - 4) / 12
	for i := 0; i < len(vals); {
		// Count how many rows fit as whole runs.
		j, runs := i, 0
		for j < len(vals) && runs < maxRuns && j-i < MaxPageRows {
			k := j
			for k < len(vals) && vals[k] == vals[j] && k-i < MaxPageRows {
				k++
			}
			j = k
			runs++
		}
		count := j - i
		if j < len(vals) {
			count = alignDown(count)
		}
		window := vals[i : i+count]
		mn, mx := minMax(window)
		page := make([]byte, flash.PageSize)
		writeHeader(page, RLE, count, mn, mx)
		// Re-emit runs over the (possibly truncated) window.
		nruns := 0
		off := headerSize + 4
		for p := 0; p < count; {
			q := p
			for q < count && window[q] == window[p] {
				q++
			}
			binary.LittleEndian.PutUint64(page[off:], uint64(window[p]))
			binary.LittleEndian.PutUint32(page[off+8:], uint32(q-p))
			off += 12
			nruns++
			p = q
		}
		binary.LittleEndian.PutUint32(page[headerSize:], uint32(nruns))
		meta.Pages = append(meta.Pages, PageMeta{StartRow: i, Count: count, Min: mn, Max: mx})
		out = append(out, page...)
		i += count
	}
	return out, meta, nil
}

func encodeDict(vals []int64) ([]byte, *ColumnMeta, error) {
	dict := buildDict(vals)
	w := 0
	if len(dict) > 1 {
		w = bits.Len64(uint64(len(dict) - 1))
	}
	rowsPerPage := MaxPageRows
	if w > 0 {
		if c := (flash.PageSize - headerSize - 1) * 8 / w; c < rowsPerPage {
			rowsPerPage = c
		}
	}
	rowsPerPage = rowsPerPage / alignRows * alignRows
	meta := &ColumnMeta{Codec: Dict, Dict: dict}
	var out []byte
	for i := 0; i < len(vals); i += rowsPerPage {
		count := rowsPerPage
		if i+count > len(vals) {
			count = len(vals) - i
		}
		window := vals[i : i+count]
		mn, mx := minMax(window)
		page := make([]byte, flash.PageSize)
		writeHeader(page, Dict, count, mn, mx)
		page[headerSize] = byte(w)
		codes := make([]uint64, count)
		for k, v := range window {
			codes[k] = uint64(sort.Search(len(dict), func(d int) bool { return dict[d] >= v }))
		}
		packBits(page[headerSize+1:], codes, w)
		meta.Pages = append(meta.Pages, PageMeta{StartRow: i, Count: count, Min: mn, Max: mx})
		out = append(out, page...)
	}
	return out, meta, nil
}

// buildDict returns the sorted distinct values.
func buildDict(vals []int64) []int64 {
	set := make(map[int64]struct{}, 256)
	for _, v := range vals {
		set[v] = struct{}{}
	}
	dict := make([]int64, 0, len(set))
	for v := range set {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	return dict
}

// Page is one decoded page. Native holds the codec's un-materialized
// form — dictionary codes (Dict), unsigned deltas (FOR), or the expanded
// values (RLE) — so predicate evaluation can run on encoded data and
// defer materialization (Values) until raw values are actually needed.
//
// A Page is reusable: DecodePageInto overwrites it in place, recycling
// the Native and materialization buffers, so a PagedReader walking a
// column decodes every page into the same scratch without allocating
// (the fused scan path's steady state depends on this).
type Page struct {
	Codec Codec
	Count int
	Min   int64
	Max   int64
	// Base is the FOR frame base (page minimum).
	Base   int64
	Native []int64

	dict []int64
	vals []int64
	// valsBuf is the reusable backing array behind vals for codecs that
	// materialize (Dict, FOR); RLE/raw alias Native instead.
	valsBuf []int64
}

// Values materializes the page's decoded values (cached after the first
// call). For RLE pages this is the native form already.
func (p *Page) Values() []int64 {
	if p.vals != nil {
		return p.vals
	}
	switch p.Codec {
	case Dict:
		vals := growInts(p.valsBuf, p.Count)
		for i, c := range p.Native {
			vals[i] = p.dict[c]
		}
		p.valsBuf, p.vals = vals, vals
	case FOR:
		vals := growInts(p.valsBuf, p.Count)
		for i, d := range p.Native {
			vals[i] = int64(uint64(p.Base) + uint64(d))
		}
		p.valsBuf, p.vals = vals, vals
	default:
		p.vals = p.Native
	}
	return p.vals
}

// growInts returns buf resized to n elements, reusing its backing array
// when the capacity allows.
func growInts(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	return buf[:n]
}

// DecodePage parses one encoded flash page. dict is the column-level
// dictionary (required for Dict pages; ignored otherwise).
func DecodePage(buf []byte, dict []int64) (*Page, error) {
	p := new(Page)
	if err := DecodePageInto(p, buf, dict); err != nil {
		return nil, err
	}
	return p, nil
}

// DecodePageInto parses one encoded flash page into p, reusing p's
// decode buffers. On error p's contents are unspecified. This is the
// allocation-free decode the fused scan path runs per page: after the
// first page of a column has grown the scratch, subsequent decodes do
// not touch the heap.
func DecodePageInto(p *Page, buf []byte, dict []int64) error {
	if len(buf) < headerSize {
		return fmt.Errorf("enc: page shorter than header (%d bytes)", len(buf))
	}
	if buf[0] != pageMagic {
		return fmt.Errorf("enc: bad page magic 0x%02x", buf[0])
	}
	if buf[1] != pageVersion {
		return fmt.Errorf("enc: unsupported page version %d", buf[1])
	}
	codec := Codec(buf[2])
	count := int(binary.LittleEndian.Uint32(buf[4:]))
	if count > MaxPageRows {
		return fmt.Errorf("enc: page row count %d exceeds limit %d", count, MaxPageRows)
	}
	p.Codec = codec
	p.Count = count
	p.Min = int64(binary.LittleEndian.Uint64(buf[8:]))
	p.Max = int64(binary.LittleEndian.Uint64(buf[16:]))
	p.Base = 0
	p.dict = dict
	p.vals = nil
	switch codec {
	case FOR:
		if len(buf) < headerSize+9 {
			return fmt.Errorf("enc: truncated FOR page")
		}
		p.Base = int64(binary.LittleEndian.Uint64(buf[headerSize:]))
		w := int(buf[headerSize+8])
		if w > 64 {
			return fmt.Errorf("enc: FOR width %d", w)
		}
		if headerSize+9+(count*w+7)/8 > len(buf) {
			return fmt.Errorf("enc: truncated FOR payload")
		}
		p.Native = growInts(p.Native, count)
		unpackBitsInto(p.Native, buf[headerSize+9:], w)
	case Dict:
		if len(buf) < headerSize+1 {
			return fmt.Errorf("enc: truncated dict page")
		}
		w := int(buf[headerSize])
		if w > 64 {
			return fmt.Errorf("enc: dict width %d", w)
		}
		if headerSize+1+(count*w+7)/8 > len(buf) {
			return fmt.Errorf("enc: truncated dict payload")
		}
		p.Native = growInts(p.Native, count)
		unpackBitsInto(p.Native, buf[headerSize+1:], w)
		for _, c := range p.Native {
			if uint64(c) >= uint64(len(dict)) {
				return fmt.Errorf("enc: dict code %d outside dictionary of %d", c, len(dict))
			}
		}
	case RLE:
		if len(buf) < headerSize+4 {
			return fmt.Errorf("enc: truncated RLE page")
		}
		nruns := int(binary.LittleEndian.Uint32(buf[headerSize:]))
		if nruns < 0 || headerSize+4+nruns*12 > len(buf) {
			return fmt.Errorf("enc: truncated RLE payload")
		}
		native := growInts(p.Native, count)[:0]
		off := headerSize + 4
		for r := 0; r < nruns; r++ {
			v := int64(binary.LittleEndian.Uint64(buf[off:]))
			n := int(binary.LittleEndian.Uint32(buf[off+8:]))
			off += 12
			if len(native)+n > count {
				return fmt.Errorf("enc: RLE runs exceed page row count")
			}
			for k := 0; k < n; k++ {
				native = append(native, v)
			}
		}
		if len(native) != count {
			return fmt.Errorf("enc: RLE runs cover %d rows, header says %d", len(native), count)
		}
		p.Native = native
	default:
		return fmt.Errorf("enc: unknown page codec %d", codec)
	}
	return nil
}

// PageAgg is the result of folding one encoded page into aggregate form
// without materializing its rows.
type PageAgg struct {
	Count int
	Sum   int64
	Min   int64
	Max   int64
}

// AggregatePage computes SUM/COUNT/MIN/MAX directly over one encoded
// page image: RLE pages as Σ value×runlength over the run pairs, FOR
// pages as base×count + Σdeltas unpacked on the fly. Neither path
// expands the page into row vectors. Min/Max come from the zone-map
// header, which is exact (computed from the page's own rows) for every
// paged codec. ok is false for codecs without an encoded-agg kernel
// (Dict would need a per-code histogram to beat plain decode; Raw pages
// have no header at all). Sums wrap modulo 2^64 exactly like the
// decode-then-accumulate path, so differential comparisons stay exact
// even on overflow.
func AggregatePage(buf []byte) (PageAgg, bool, error) {
	var agg PageAgg
	if len(buf) < headerSize {
		return agg, false, fmt.Errorf("enc: page shorter than header (%d bytes)", len(buf))
	}
	if buf[0] != pageMagic {
		return agg, false, fmt.Errorf("enc: bad page magic 0x%02x", buf[0])
	}
	if buf[1] != pageVersion {
		return agg, false, fmt.Errorf("enc: unsupported page version %d", buf[1])
	}
	codec := Codec(buf[2])
	count := int(binary.LittleEndian.Uint32(buf[4:]))
	if count > MaxPageRows {
		return agg, false, fmt.Errorf("enc: page row count %d exceeds limit %d", count, MaxPageRows)
	}
	agg.Count = count
	agg.Min = int64(binary.LittleEndian.Uint64(buf[8:]))
	agg.Max = int64(binary.LittleEndian.Uint64(buf[16:]))
	switch codec {
	case RLE:
		if len(buf) < headerSize+4 {
			return agg, false, fmt.Errorf("enc: truncated RLE page")
		}
		nruns := int(binary.LittleEndian.Uint32(buf[headerSize:]))
		if nruns < 0 || headerSize+4+nruns*12 > len(buf) {
			return agg, false, fmt.Errorf("enc: truncated RLE payload")
		}
		covered := 0
		var sum uint64
		off := headerSize + 4
		for r := 0; r < nruns; r++ {
			v := binary.LittleEndian.Uint64(buf[off:])
			n := int(binary.LittleEndian.Uint32(buf[off+8:]))
			off += 12
			covered += n
			sum += v * uint64(n)
		}
		if covered != count {
			return agg, false, fmt.Errorf("enc: RLE runs cover %d rows, header says %d", covered, count)
		}
		agg.Sum = int64(sum)
		return agg, true, nil
	case FOR:
		if len(buf) < headerSize+9 {
			return agg, false, fmt.Errorf("enc: truncated FOR page")
		}
		base := binary.LittleEndian.Uint64(buf[headerSize:])
		w := int(buf[headerSize+8])
		if w > 64 {
			return agg, false, fmt.Errorf("enc: FOR width %d", w)
		}
		if headerSize+9+(count*w+7)/8 > len(buf) {
			return agg, false, fmt.Errorf("enc: truncated FOR payload")
		}
		sum := base * uint64(count)
		if w > 0 {
			src := buf[headerSize+9:]
			bit := 0
			for i := 0; i < count; i++ {
				var v uint64
				got := 0
				for got < w {
					idx, off := bit/8, bit%8
					chunk := 8 - off
					if chunk > w-got {
						chunk = w - got
					}
					v |= (uint64(src[idx]) >> uint(off) & (1<<uint(chunk) - 1)) << uint(got)
					got += chunk
					bit += chunk
				}
				sum += v
			}
		}
		agg.Sum = int64(sum)
		return agg, true, nil
	case Dict:
		return agg, false, nil
	default:
		return agg, false, fmt.Errorf("enc: unknown page codec %d", codec)
	}
}

// packBits writes each value's low `width` bits LSB-first into dst.
func packBits(dst []byte, vals []uint64, width int) {
	if width == 0 {
		return
	}
	mask := ^uint64(0)
	if width < 64 {
		mask = (1 << uint(width)) - 1
	}
	bit := 0
	for _, v := range vals {
		v &= mask
		remaining := width
		for remaining > 0 {
			idx, off := bit/8, bit%8
			chunk := 8 - off
			if chunk > remaining {
				chunk = remaining
			}
			dst[idx] |= byte(v << uint(off))
			v >>= uint(chunk)
			remaining -= chunk
			bit += chunk
		}
	}
}

// unpackBitsInto reads len(dst) width-bit values LSB-first from src into
// dst. A value of at most 56 bits that starts 8 or more bytes before the
// end of src is one little-endian word load, shift and mask; the last few
// values, and every value wider than 56 bits, are assembled a byte at a
// time.
func unpackBitsInto(dst []int64, src []byte, width int) {
	if width == 0 {
		clear(dst)
		return
	}
	mask := ^uint64(0) >> uint(64-width)
	bit := 0
	for i := range dst {
		if idx := bit / 8; width <= 56 && idx+8 <= len(src) {
			dst[i] = int64(binary.LittleEndian.Uint64(src[idx:]) >> uint(bit%8) & mask)
		} else {
			dst[i] = int64(unpackBytes(src, bit, width))
		}
		bit += width
	}
}

// unpackBytes assembles the width-bit value at bit offset bit of src a
// byte at a time.
func unpackBytes(src []byte, bit, width int) uint64 {
	var v uint64
	for got := 0; got < width; {
		idx, off := bit/8, bit%8
		chunk := min(8-off, width-got)
		v |= (uint64(src[idx]) >> uint(off) & (1<<uint(chunk) - 1)) << uint(got)
		got += chunk
		bit += chunk
	}
	return v
}

// Choose picks a codec for a column from one statistics pass: the raw
// layout unless some codec's estimated page count is a strict
// improvement. The FOR width is estimated from per-window value ranges
// (window ≈ one raw page of rows) so that sorted columns — whose global
// range is large but whose per-page range is tiny — are still
// recognized; the dictionary is only considered up to 4096 distinct
// values.
func Choose(vals []int64, rawWidth int) Codec {
	n := len(vals)
	if n == 0 {
		return Raw
	}
	const maxDistinct = 4096
	const window = 2048
	distinct := make(map[int64]struct{}, 512)
	runs := 1
	forWidth := 0
	wMin, wMax := vals[0], vals[0]
	for i, v := range vals {
		if len(distinct) <= maxDistinct {
			distinct[v] = struct{}{}
		}
		if i > 0 && v != vals[i-1] {
			runs++
		}
		if i%window == 0 && i > 0 {
			if w := widthOf(wMin, wMax); w > forWidth {
				forWidth = w
			}
			wMin, wMax = v, v
		} else {
			if v < wMin {
				wMin = v
			}
			if v > wMax {
				wMax = v
			}
		}
	}
	if w := widthOf(wMin, wMax); w > forWidth {
		forWidth = w
	}

	pages := func(bytes, perPage int) int {
		if perPage <= 0 {
			perPage = 1
		}
		return (bytes + perPage - 1) / perPage
	}
	rowBytes := func(w int) int { return (n*w + 7) / 8 }
	rawPages := pages(n*rawWidth, flash.PageSize)

	best, bestPages := Raw, rawPages
	// Preference on ties: FOR (cheapest decode), then Dict, then RLE.
	if p := pages(rowBytes(forWidth), flash.PageSize-headerSize-9); p < bestPages {
		best, bestPages = FOR, p
	}
	if len(distinct) <= maxDistinct {
		dw := 0
		if len(distinct) > 1 {
			dw = bits.Len64(uint64(len(distinct) - 1))
		}
		if p := pages(rowBytes(dw), flash.PageSize-headerSize-1); p < bestPages {
			best, bestPages = Dict, p
		}
	}
	if p := pages(runs*12, flash.PageSize-headerSize-4); p < bestPages {
		best, bestPages = RLE, p
	}
	return best
}
