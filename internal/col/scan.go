package col

import (
	"context"
	"sort"

	"aquoman/internal/bitvec"
	"aquoman/internal/flash"
	"aquoman/internal/pool"
)

// scanChunkVecs bounds a Scanner chunk at 32 k rows, so that its buffers
// stay a fixed, small size however long the table is.
const scanChunkVecs = 1024

// Scanner reads whole rows of some columns of one table, in row order, a
// chunk at a time into buffers it reuses: the way a host that reads full
// columns consumes flash. Each column streams through a PagedReader of its
// own, and a chunk's pages, over every column, go to the device as one
// batch of at most flash.QueueDepth pages. A page that straddles two
// chunks stays under its reader's cursor, so every page of every column is
// read exactly once, in order: the device sees the reads ReadAll would
// make. A Scanner allocates nothing per chunk.
type Scanner struct {
	ctx     context.Context
	who     flash.Requester
	numRows int
	next    int            // the first Row Vector not yet read
	rds     []*PagedReader // nil for a row-id column
	batch   flash.Batch
	window  []byte  // where an uncached device delivers a chunk's pages
	backing []Value // Cols' storage, pooled

	// Cols holds the chunk Next read last: Cols[c][:n] are its n values
	// of column c. Next overwrites them.
	Cols [][]Value
}

// NewScanner starts a scan of rows [0, numRows) of cols under ctx (nil =
// never cancelled), accounting the reads to who. A nil column reads as the
// row ids themselves. Callers must Close the scanner.
func NewScanner(ctx context.Context, cols []*ColumnInfo, numRows int, who flash.Requester) *Scanner {
	s := &Scanner{
		ctx: ctx, who: who, numRows: numRows,
		rds: make([]*PagedReader, len(cols)), Cols: make([][]Value, len(cols)),
		window: pool.Windows.Get(),
	}
	chunk := min(numRows, scanChunkVecs*bitvec.VecSize)
	if len(cols)*chunk > 0 {
		s.backing = pool.Vals.Get(len(cols) * chunk)
	}
	for c, ci := range cols {
		s.Cols[c] = s.backing[c*chunk : (c+1)*chunk : (c+1)*chunk]
		if ci != nil {
			s.rds[c] = NewPagedReader(ci, who)
			s.rds[c].SetContext(ctx)
		}
	}
	return s
}

// Close ends the scan and returns its pooled buffers. Idempotent.
func (s *Scanner) Close() {
	for _, r := range s.rds {
		if r != nil {
			r.Close()
		}
	}
	if s.window != nil {
		pool.Windows.Put(s.window)
		s.window = nil
	}
	if s.backing != nil {
		pool.Vals.Put(s.backing)
		s.backing = nil
	}
}

// Next reads the next chunk into Cols and returns its first row and its
// row count; n is 0 once every row has been read.
func (s *Scanner) Next() (start, n int, err error) {
	nVecs := (s.numRows + bitvec.VecSize - 1) / bitvec.VecSize
	v0 := s.next
	if v0 >= nVecs {
		return 0, 0, nil
	}
	v1 := s.chunkEnd(v0, nVecs)
	if err := s.fetch(v0, v1); err != nil {
		return 0, 0, err
	}
	start = v0 * bitvec.VecSize
	n = min(v1*bitvec.VecSize, s.numRows) - start
	for c, r := range s.rds {
		out := s.Cols[c][:n]
		if r == nil {
			for i := range out {
				out[i] = Value(start + i)
			}
			continue
		}
		for v := v0; v < v1; v++ {
			if _, err := r.ReadVec(v, out[(v-v0)*bitvec.VecSize:]); err != nil {
				return 0, 0, err
			}
		}
	}
	s.next = v1
	return start, n, nil
}

// chunkEnd returns the end of the chunk that starts at Row Vector v0: the
// most vectors, up to scanChunkVecs, whose pages over every column fit one
// device batch. A chunk is never empty, whatever the column count.
func (s *Scanner) chunkEnd(v0, nVecs int) int {
	hi := min(nVecs, v0+scanChunkVecs)
	return v0 + 1 + sort.Search(hi-v0-1, func(i int) bool {
		pages := 0
		for _, r := range s.rds {
			if r != nil {
				pages += r.PageSpan(v0, v0+2+i)
			}
		}
		return pages > flash.QueueDepth
	})
}

// fetch reads the pages of Row Vectors [v0, v1) that no reader holds yet,
// as one device batch. Planning ends each reader's previous window before
// the batch is read: a reader still on a page of it keeps a copy of its
// own, since the new batch reuses the window's memory.
func (s *Scanner) fetch(v0, v1 int) error {
	s.batch.Reset(s.window)
	for _, r := range s.rds {
		if r != nil {
			r.PlanWindow(&s.batch, v0, v1, nil)
		}
	}
	if err := s.batch.Read(s.ctx, s.who); err != nil {
		return err
	}
	for _, r := range s.rds {
		if r != nil {
			r.TakeWindow(&s.batch)
		}
	}
	return nil
}
