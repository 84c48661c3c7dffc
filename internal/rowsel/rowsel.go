// Package rowsel implements AQUOMAN's Row Selector (Sec. VI-A, Fig. 6):
// a vector unit of Column Predicate Evaluators computing predicates of
// the form F(CP0, ..., CPn-1), where each CPi is a comparison or equality
// of one column against constants and F is a simple boolean function. The
// selector writes Row-Mask Vectors into the circular buffer sized by the
// flash command-queue depth; predicates it cannot compute (multi-column
// comparisons, string-heap regular expressions) are forwarded to the Row
// Transformer.
package rowsel

import (
	"context"
	"fmt"
	"math/bits"

	"aquoman/internal/bitvec"
	"aquoman/internal/col"
	"aquoman/internal/enc"
	"aquoman/internal/flash"
	"aquoman/internal/systolic"
)

// PrototypeEvaluators is the Column Predicate Evaluator count of the FPGA
// prototype; the paper notes 4–6 suffice for most TPC-H filters, and the
// trace-based simulator assumes as many as needed.
const PrototypeEvaluators = 4

// MaskBufferRows is the Row-Mask Vector circular buffer capacity implied
// by the flash command queue: 128 in-flight 8 KB pages of 1-byte elements
// (Sec. VI) — 128 × 8 K rows.
const MaskBufferRows = flash.QueueDepth * flash.PageSize

// ColPred is one single-column predicate: an integer expression over the
// column's value (systolic.In(0)) evaluating to 0/1. CPs counts the
// hardware comparator terms it consumes (an IN-list of three codes is
// three CPs OR-ed by F).
type ColPred struct {
	Column string
	Expr   systolic.Expr
	CPs    int
}

// Program is a conjunction of column predicates (the boolean function F
// restricted to the AND of per-column terms; OR structure within a column
// lives inside the predicate expression).
type Program struct {
	Preds []ColPred
}

// NumCPs returns the total comparator terms the program needs.
func (p *Program) NumCPs() int {
	n := 0
	for _, cp := range p.Preds {
		n += cp.CPs
	}
	return n
}

// Stats reports one selector pass.
type Stats struct {
	// RowsIn is the number of rows examined (after the incoming mask).
	RowsIn int64
	// RowsSelected is the number of rows surviving all predicates.
	RowsSelected int64
	// PagesRead / PagesSkipped count predicate-column page traffic.
	PagesRead    int64
	PagesSkipped int64
	// PagesPruned counts pages eliminated by zone maps before any flash
	// read; EncBytesSaved and EncDecoded account the encoded pages that
	// were read (see col.ReaderStats).
	PagesPruned   int64
	EncBytesSaved int64
	EncDecoded    [enc.NumCodecs]int64
}

// Run evaluates the program over the table, starting from the incoming
// mask (nil = all rows), and returns the refined mask. Column pages whose
// vectors are already fully masked out are skipped.
func (p *Program) Run(tab *col.Table, in *bitvec.Mask, who flash.Requester) (*bitvec.Mask, Stats, error) {
	return p.RunCtx(nil, tab, in, who)
}

// RunCtx is Run with cooperative cancellation: every predicate-column
// page load checks ctx first, so a cancelled selector pass stops issuing
// flash page reads at the next page boundary. A nil ctx never cancels.
func (p *Program) RunCtx(ctx context.Context, tab *col.Table, in *bitvec.Mask, who flash.Requester) (*bitvec.Mask, Stats, error) {
	var st Stats
	mask := in
	if mask == nil {
		mask = bitvec.NewFull(tab.NumRows)
	} else {
		if mask.Len() != tab.NumRows {
			return nil, st, fmt.Errorf("rowsel: mask covers %d rows, table %q has %d",
				mask.Len(), tab.Name, tab.NumRows)
		}
		mask = mask.Clone()
	}
	st.RowsIn = int64(mask.Count())
	if len(p.Preds) == 0 {
		st.RowsSelected = st.RowsIn
		return mask, st, nil
	}
	readers := make([]*col.PagedReader, len(p.Preds))
	evals := make([]VecEvaluator, len(p.Preds))
	for i, cp := range p.Preds {
		ci, err := tab.Column(cp.Column)
		if err != nil {
			return nil, st, err
		}
		readers[i] = col.NewPagedReader(ci, who)
		readers[i].SetContext(ctx)
		if err := evals[i].Init(cp.Expr, ci.Enc); err != nil {
			return nil, st, err
		}
	}
	defer func() {
		for _, r := range readers {
			if r != nil {
				r.Close()
			}
		}
	}()
	// Zone-map pre-pass: a page whose predicate interval over its
	// [min,max] is provably zero cannot contribute a row — mask out its
	// rows before the scan so the page is never fetched from flash.
	for i, cp := range p.Preds {
		PruneByZoneMaps(cp.Expr, readers[i], mask)
	}
	nVecs := mask.NumVecs()
	for vec := 0; vec < nVecs; vec++ {
		if mask.VecAllZero(vec) {
			for _, r := range readers {
				r.SkipVec(vec)
			}
			continue
		}
		for pi := range p.Preds {
			if err := evals[pi].EvalVec(readers[pi], vec, mask); err != nil {
				return nil, st, err
			}
			if mask.VecAllZero(vec) {
				// Remaining evaluators skip this vector entirely.
				for _, r := range readers[pi+1:] {
					r.SkipVec(vec)
				}
				break
			}
		}
	}
	for _, r := range readers {
		st.PagesRead += r.PagesRead
		st.PagesSkipped += r.PagesSkipped
		st.PagesPruned += r.PagesPruned
		st.EncBytesSaved += r.EncBytesSaved
		for c := range r.EncDecoded {
			st.EncDecoded[c] += r.EncDecoded[c]
		}
	}
	st.RowsSelected = int64(mask.Count())
	return mask, st, nil
}

// PruneByZoneMaps masks out the rows of every page the predicate provably
// rejects. Pages that still had live rows are marked pruned on the reader
// (they would otherwise have cost a flash read); pages the mask had
// already eliminated are left to the ordinary skip accounting. It is the
// shared zone-map pre-pass of both RunCtx and the fused scan path.
func PruneByZoneMaps(expr systolic.Expr, r *col.PagedReader, mask *bitvec.Mask) {
	meta := r.Meta()
	if meta == nil {
		return
	}
	iv := make([]systolic.Interval, 1)
	for pi, pm := range meta.Pages {
		iv[0] = systolic.Interval{Lo: pm.Min, Hi: pm.Max}
		if !systolic.EvalExprInterval(expr, iv).IsZero() {
			continue
		}
		live := false
		end := pm.StartRow + pm.Count
		for vec := pm.StartRow / bitvec.VecSize; vec*bitvec.VecSize < end; vec++ {
			if mask.VecAllZero(vec) {
				continue
			}
			live = true
			// A page holds whole vectors (enc pages a multiple of 32 rows).
			mask.AndVecBits(vec, 0)
		}
		if live {
			r.MarkPruned(pi)
		}
	}
}

// VecEvaluator evaluates one column predicate over Row Vectors, as one
// Column Predicate Evaluator: when the predicate's truth set is one
// interval of the column's values (systolic.TruthInterval) it compares
// each value — raw, or decoded from its FOR or RLE page — against the
// interval's bounds. Any other predicate goes through the lowered kernel
// the Row Transformer runs (systolic.Machine) 32 lanes at a time.
// Dictionary pages stay in the code domain: Init runs the kernel over the
// dictionary once, and each code looks its verdict up. Either way the
// result is ANDed into the mask as one keep word.
//
// It is exported so the fused scan path (internal/tabletask) can interleave
// predicate evaluation with projection and aggregation vector by vector;
// after Init, EvalVec performs no heap allocation. A VecEvaluator is
// single-goroutine scratch.
type VecEvaluator struct {
	m *systolic.Machine
	// truth is the predicate's verdict per dictionary code (1 = keep); nil
	// unless the column is dictionary-encoded.
	truth []uint32
	// cmp is set when the predicate keeps exactly the values v with
	// uint64(v-lo) <= span, and the column is not dictionary-encoded.
	cmp  bool
	lo   int64
	span uint64

	vals [bitvec.VecSize]int64
	in   [1][]int64
}

// Init binds the evaluator to a predicate expression and the column's
// encoding metadata (nil meta means a raw column). A predicate the PE ISA
// cannot express is an error, on which the caller's offload unit suspends
// to the host, whether or not the comparator would evaluate it.
func (e *VecEvaluator) Init(expr systolic.Expr, meta *enc.ColumnMeta) error {
	mapped, err := systolic.Compile([]systolic.Expr{expr}, 1, systolic.DefaultConfig())
	if err != nil {
		return fmt.Errorf("rowsel: predicate %s: %w", expr, err)
	}
	e.m = systolic.NewMachine(mapped)
	e.truth, e.cmp = nil, false
	if meta != nil && meta.Codec == enc.Dict {
		out, err := e.m.Transform([][]int64{meta.Dict})
		if err != nil {
			return fmt.Errorf("rowsel: predicate %s: %w", expr, err)
		}
		e.truth = make([]uint32, len(out[0]))
		for c, v := range out[0] {
			e.truth[c] = nonZero(v)
		}
		return nil
	}
	iv, ok := systolic.TruthInterval(expr)
	e.cmp = ok && !iv.IsEmpty()
	e.lo, e.span = iv.Lo, uint64(iv.Hi)-uint64(iv.Lo)
	return nil
}

// EvalVec refines mask over the rows of one 32-row vector, clearing every
// lane the predicate rejects. The reader must be positioned on the same
// column the evaluator was initialized for.
func (e *VecEvaluator) EvalVec(r *col.PagedReader, vec int, mask *bitvec.Mask) error {
	var keep uint32
	switch {
	case e.truth != nil:
		n, _, err := r.ReadVecCodes(vec, e.vals[:])
		if err != nil {
			return err
		}
		for j, c := range e.vals[:n] {
			keep |= e.truth[c] << uint(j)
		}
	case e.cmp:
		n, err := r.ReadVec(vec, e.vals[:])
		if err != nil {
			return err
		}
		for j, v := range e.vals[:n] {
			// The borrow of span - (v-lo) is 1 exactly when v is outside.
			_, out := bits.Sub64(e.span, uint64(v-e.lo), 0)
			keep |= uint32(out^1) << uint(j)
		}
	default:
		n, err := r.ReadVec(vec, e.vals[:])
		if err != nil {
			return err
		}
		e.in[0] = e.vals[:n]
		out, err := e.m.RunVec(e.in[:])
		if err != nil {
			return err
		}
		for j, v := range out[0] {
			keep |= nonZero(v) << uint(j)
		}
	}
	mask.AndVecBits(vec, keep)
	return nil
}

// nonZero is 1 when v != 0 and 0 otherwise, without a branch.
func nonZero(v int64) uint32 { return uint32(uint64(v|-v) >> 63) }
