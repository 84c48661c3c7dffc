package col

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"aquoman/internal/enc"
	"aquoman/internal/flash"
)

// Gather is a device read like any other: it answers to the query's
// context, and the pages it walks reach the device a command queue's worth
// at a time instead of one trip each — raw and encoded alike. Mutation:
// handing the batch nil instead of ctx reads the pages of a cancelled query.
func TestGatherHonoursContextAndBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	vals := make([]Value, 700_000)
	for i := range vals {
		vals[i] = Value(rng.Int31n(1 << 30)) // wide enough that FOR packs few rows a page
	}
	const pages = 300
	for _, sel := range []enc.Selection{enc.SelRaw, enc.SelFOR} {
		t.Run(sel.String(), func(t *testing.T) {
			s, tab := buildEnc(t, sel, vals)
			ci := tab.MustColumn("v")
			if n := ci.File.NumPages(); n < pages {
				t.Fatalf("column has %d pages, the test needs %d", n, pages)
			}
			// Sorted rowids, two to a page, over the first 300 pages.
			var rowids []Value
			for p := 0; p < pages; p++ {
				first := p * flash.PageSize / ci.Def.Typ.Width()
				if ci.Enc != nil {
					first = ci.Enc.Pages[p].StartRow
				}
				rowids = append(rowids, Value(first), Value(first+1))
			}

			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			s.Dev.ResetStats()
			if _, err := ci.Gather(cancelled, rowids, flash.Host); !errors.Is(err, context.Canceled) {
				t.Fatalf("Gather under a cancelled context: err = %v, want context.Canceled", err)
			}
			if n := s.Dev.Stats().TotalPagesRead(); n != 0 {
				t.Fatalf("Gather under a cancelled context read %d pages", n)
			}

			s.Dev.SetReadLatency(time.Nanosecond)
			before := s.Dev.QueueSubmits()
			got, err := ci.Gather(context.Background(), rowids, flash.Host)
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rowids {
				if got[i] != vals[r] {
					t.Fatalf("row %d = %d, want %d", r, got[i], vals[r])
				}
			}
			st := s.Dev.Stats()
			if st.PagesRead[flash.Host] != pages || st.PagesReadRandom[flash.Host] != 0 {
				t.Fatalf("read %d pages, %d of them seeks; want %d sequential",
					st.PagesRead[flash.Host], st.PagesReadRandom[flash.Host], pages)
			}
			want := int64((pages + flash.QueueDepth - 1) / flash.QueueDepth)
			if trips := s.Dev.QueueSubmits() - before; trips != want {
				t.Fatalf("%d pages took %d device trips, want %d (one per %d pages)", pages, trips, want, flash.QueueDepth)
			}
		})
	}
}
