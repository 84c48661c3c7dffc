package enc

import (
	"math"
	"math/rand"
	"testing"

	"aquoman/internal/flash"
)

// decodeAll round-trips a full encoded column back to values.
func decodeAll(t *testing.T, data []byte, meta *ColumnMeta) []int64 {
	t.Helper()
	var out []int64
	for i, pm := range meta.Pages {
		buf := data[i*flash.PageSize : (i+1)*flash.PageSize]
		p, err := DecodePage(buf, meta.Dict)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if p.Count != pm.Count || p.Min != pm.Min || p.Max != pm.Max {
			t.Fatalf("page %d: header (%d,%d,%d) != meta (%d,%d,%d)",
				i, p.Count, p.Min, p.Max, pm.Count, pm.Min, pm.Max)
		}
		out = append(out, p.Values()...)
	}
	return out
}

func checkRoundTrip(t *testing.T, vals []int64, codec Codec) {
	t.Helper()
	data, meta, err := EncodeColumn(vals, codec)
	if err != nil {
		t.Fatalf("%s: %v", codec, err)
	}
	if len(data) != len(meta.Pages)*flash.PageSize {
		t.Fatalf("%s: %d bytes for %d pages", codec, len(data), len(meta.Pages))
	}
	if meta.NumRows() != len(vals) {
		t.Fatalf("%s: meta covers %d rows, want %d", codec, meta.NumRows(), len(vals))
	}
	got := decodeAll(t, data, meta)
	if len(got) != len(vals) {
		t.Fatalf("%s: decoded %d values, want %d", codec, len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%s: value %d = %d, want %d", codec, i, got[i], vals[i])
		}
	}
	// Zone maps must be exact; pages (except the last) vector-aligned.
	row := 0
	for i, pm := range meta.Pages {
		if pm.StartRow != row {
			t.Fatalf("%s: page %d starts at %d, want %d", codec, i, pm.StartRow, row)
		}
		if i < len(meta.Pages)-1 && pm.Count%alignRows != 0 {
			t.Fatalf("%s: interior page %d count %d not vector-aligned", codec, i, pm.Count)
		}
		mn, mx := minMax(vals[row : row+pm.Count])
		if mn != pm.Min || mx != pm.Max {
			t.Fatalf("%s: page %d zone map [%d,%d], want [%d,%d]", codec, i, pm.Min, pm.Max, mn, mx)
		}
		row += pm.Count
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string][]int64{
		"single":   {42},
		"constant": make([]int64, 5000),
		"extremes": {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64, math.MaxInt64, 5},
	}
	small := make([]int64, 10000)
	for i := range small {
		small[i] = int64(rng.Intn(50))
	}
	cases["small-domain"] = small
	sorted := make([]int64, 30000)
	for i := range sorted {
		sorted[i] = int64(i) * 3
	}
	cases["sorted"] = sorted
	wide := make([]int64, 20000)
	for i := range wide {
		wide[i] = rng.Int63() - rng.Int63()
	}
	cases["wide-random"] = wide
	runs := make([]int64, 0, 25000)
	for len(runs) < 25000 {
		v := int64(rng.Intn(8))
		for k := 0; k < 1+rng.Intn(600); k++ {
			runs = append(runs, v)
		}
	}
	cases["runny"] = runs

	for name, vals := range cases {
		for _, codec := range []Codec{Dict, RLE, FOR} {
			t.Run(name+"/"+codec.String(), func(t *testing.T) {
				checkRoundTrip(t, vals, codec)
			})
		}
	}
}

func TestEncodeEmpty(t *testing.T) {
	for _, codec := range []Codec{Dict, RLE, FOR} {
		data, meta, err := EncodeColumn(nil, codec)
		if err != nil {
			t.Fatalf("%s: %v", codec, err)
		}
		if len(data) != 0 || len(meta.Pages) != 0 {
			t.Fatalf("%s: empty column produced %d bytes, %d pages", codec, len(data), len(meta.Pages))
		}
	}
}

func TestEncodeRawRefused(t *testing.T) {
	if _, _, err := EncodeColumn([]int64{1}, Raw); err == nil {
		t.Fatal("EncodeColumn(Raw) should refuse")
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	// 50 distinct scaled decimals in a 4-byte column, the l_quantity shape.
	vals := make([]int64, 200000)
	rng := rand.New(rand.NewSource(3))
	for i := range vals {
		vals[i] = int64(1+rng.Intn(50)) * 100
	}
	rawPages := (len(vals)*4 + flash.PageSize - 1) / flash.PageSize
	for _, codec := range []Codec{Dict, FOR} {
		_, meta, err := EncodeColumn(vals, codec)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(meta.Pages); got*2 > rawPages {
			t.Errorf("%s: %d pages vs %d raw — expected at least 2x compression", codec, got, rawPages)
		}
	}
}

func TestPackUnpackWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for width := 0; width <= 64; width++ {
		n := 257
		vals := make([]uint64, n)
		mask := ^uint64(0)
		if width < 64 {
			mask = 1<<uint(width) - 1
		}
		for i := range vals {
			vals[i] = rng.Uint64() & mask
		}
		if width == 0 {
			for i := range vals {
				vals[i] = 0
			}
		}
		// With and without slack after the last value: the tail values
		// take the byte-at-a-time path, the rest one word load each.
		for _, slack := range []int{0, 1, 8} {
			buf := make([]byte, (n*width+7)/8+slack)
			packBits(buf, vals, width)
			got := make([]int64, n)
			unpackBitsInto(got, buf, width)
			for i := range vals {
				if uint64(got[i]) != vals[i] {
					t.Fatalf("width %d slack %d: value %d = %d, want %d", width, slack, i, got[i], vals[i])
				}
			}
		}
	}
}

func TestChoose(t *testing.T) {
	n := 100000
	constant := make([]int64, n)
	if got := Choose(constant, 8); got != RLE && got != Dict && got != FOR {
		t.Errorf("constant column chose %s", got)
	}
	rng := rand.New(rand.NewSource(5))
	wide := make([]int64, n)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
	}
	if got := Choose(wide, 8); got != Raw {
		t.Errorf("64-bit random column chose %s, want raw", got)
	}
	smallDomain := make([]int64, n)
	for i := range smallDomain {
		smallDomain[i] = int64(rng.Intn(50)) * 100
	}
	if got := Choose(smallDomain, 4); got == Raw {
		t.Error("50-distinct column chose raw")
	}
	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i)
	}
	if got := Choose(sorted, 8); got == Raw {
		t.Error("sorted rowid-like column chose raw")
	}
	if got := Choose(nil, 8); got != Raw {
		t.Errorf("empty column chose %s, want raw", got)
	}
}

func TestPageForLookup(t *testing.T) {
	vals := make([]int64, 50000)
	for i := range vals {
		vals[i] = int64(i)
	}
	_, meta, err := EncodeColumn(vals, FOR)
	if err != nil {
		t.Fatal(err)
	}
	if len(meta.Pages) < 2 {
		t.Fatalf("want multiple pages, got %d", len(meta.Pages))
	}
	for _, row := range []int{0, 1, 31, 32, 4999, 25000, 49999} {
		pi := meta.PageFor(row)
		pm := meta.Pages[pi]
		if row < pm.StartRow || row >= pm.StartRow+pm.Count {
			t.Fatalf("row %d mapped to page %d [%d,%d)", row, pi, pm.StartRow, pm.StartRow+pm.Count)
		}
	}
	if meta.PageFor(-5) != 0 {
		t.Error("negative row should clamp to page 0")
	}
	if meta.PageFor(1<<40) != len(meta.Pages)-1 {
		t.Error("past-the-end row should clamp to the last page")
	}
}
