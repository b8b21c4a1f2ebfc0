package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/object"
	"repro/internal/tcap"
)

// Pipeline is an executable sequence of non-breaking TCAP statements plus a
// terminal sink (the paper's pipeline of pipeline stages, Appendix C). The
// first statement consumes the source vector list; each subsequent statement
// consumes its predecessor's output.
//
// A Pipeline is owned by exactly one executor thread: its batch-splitting
// scratch and its fused plan's per-batch headers are not synchronized. Parallel execution gives each thread its own
// Pipeline (and Ctx, and sink) over a disjoint slice of the source.
type Pipeline struct {
	Stmts []*tcap.Stmt
	Reg   *StageRegistry
	Sink  Sink
	// SinkStmt is the breaker statement the sink implements (OUTPUT,
	// AGGREGATE, or the JOIN whose build side this pipeline feeds).
	SinkStmt *tcap.Stmt

	// splitScratch holds the row-index buffer reused by the top-level
	// batch split on page-full faults; deeper recursive splits (rarer
	// still) fall back to fresh allocations because the parent's halves
	// are still live.
	splitScratch  []int
	splitScratchB bool // scratch currently lent to a split in progress

	// fusePlan caches the statement slice cut into fused segments
	// (buildFusePlan) with each segment's reused headers, built lazily on
	// the first batch; Stmts never changes after construction.
	fusePlan []fuseSeg
}

// RunBatch pushes one source vector list through every stage and into the
// sink. A page-full fault from a kernel rotates the output page and retries;
// batches that cannot fit even on a fresh page are split recursively (down
// to single rows).
func (p *Pipeline) RunBatch(ctx *Ctx, vl *VectorList) error {
	return p.runBatch(ctx, vl, 0)
}

func (p *Pipeline) runBatch(ctx *Ctx, vl *VectorList, depth int) error {
	if ctx.Stats != nil {
		ctx.Stats.Batches++
		ctx.Stats.Rows += vl.Rows()
	}
	out, err := p.applyStmts(ctx, vl)
	if errors.Is(err, object.ErrPageFull) {
		if ctx.Stats != nil {
			ctx.Stats.PageRetries++
		}
		if rerr := ctx.Out.Rotate(); rerr != nil {
			return rerr
		}
		out, err = p.applyStmts(ctx, vl)
		if errors.Is(err, object.ErrPageFull) {
			// Even a fresh page cannot hold the batch's output;
			// split the batch.
			n := vl.Rows()
			if n <= 1 || depth > 24 {
				return fmt.Errorf("engine: single row overflows an empty output page: %w", err)
			}
			idx, reused := p.splitIndices(n)
			half := n / 2
			lo, hi := idx[:half], idx[half:]
			if err := p.runBatch(ctx, vl.GatherAll(lo), depth+1); err != nil {
				if reused {
					p.splitScratchB = false
				}
				return err
			}
			err := p.runBatch(ctx, vl.GatherAll(hi), depth+1)
			if reused {
				p.splitScratchB = false
			}
			return err
		}
	}
	if err != nil {
		return err
	}
	if out.Rows() == 0 {
		return nil
	}
	return p.Sink.Consume(ctx, out, p.SinkStmt)
}

// splitIndices returns [0..n) in one backing array, reusing the pipeline
// scratch when it is free (the halves stay live across both recursive calls,
// so nested splits must not share it).
func (p *Pipeline) splitIndices(n int) (idx []int, reused bool) {
	if !p.splitScratchB && cap(p.splitScratch) >= n {
		idx = p.splitScratch[:n]
		p.splitScratchB = true
		reused = true
	} else if !p.splitScratchB {
		p.splitScratch = make([]int, n)
		idx = p.splitScratch
		p.splitScratchB = true
		reused = true
	} else {
		idx = make([]int, n)
	}
	for i := range idx {
		idx[i] = i
	}
	return idx, reused
}

func (p *Pipeline) applyStmts(ctx *Ctx, vl *VectorList) (*VectorList, error) {
	if p.fusePlan == nil {
		p.fusePlan = buildFusePlan(p.Stmts)
	}
	// Kernels write into the running statement's Ctx slot; outside this
	// pass they allocate.
	defer ctx.useSlot(-1)
	cur := vl
	for i := range p.fusePlan {
		seg := &p.fusePlan[i]
		var next *VectorList
		var err error
		if len(seg.stmts) > 1 {
			next, err = execFused(ctx, p.Reg, seg, cur)
		} else {
			ctx.useSlot(seg.base)
			next, err = executeStmt(ctx, p.Reg, seg.stmts[0], &seg.st[0], cur)
		}
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// PageRange addresses one batch of objects on one source page: rows
// [Start, End) of the page's root Vector<Handle>.
type PageRange struct {
	Page       *object.Page
	Start, End int
}

// Rows returns the number of objects in the range.
func (r PageRange) Rows() int { return r.End - r.Start }

// BatchRanges enumerates a page slice as batch-sized ranges, in page order —
// the unit of work the scan driver (sequential or parallel) iterates.
func BatchRanges(pages []*object.Page, batch int) []PageRange {
	return AppendBatchRanges(nil, pages, batch)
}

// AppendBatchRanges is BatchRanges appending to out, so a caller that
// enumerates many page slices (the join's probe windows) reuses one array.
func AppendBatchRanges(out []PageRange, pages []*object.Page, batch int) []PageRange {
	if batch <= 0 {
		batch = BatchSize
	}
	for _, pg := range pages {
		if pg.Root() == 0 {
			continue
		}
		n := object.AsVector(object.Ref{Page: pg, Off: pg.Root()}).Len()
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			out = append(out, PageRange{Page: pg, Start: start, End: end})
		}
	}
	return out
}

// SplitRanges partitions a batch list into at most n contiguous chunks of
// roughly equal row counts. Contiguity keeps per-thread output concatenation
// in source order, so parallel OUTPUT pipelines materialize objects in the
// same order a sequential run would. Fewer than n chunks are returned when
// there are fewer batches than threads.
func SplitRanges(ranges []PageRange, n int) [][]PageRange {
	return AppendSplitRanges(nil, ranges, n)
}

// AppendSplitRanges is SplitRanges appending the chunks to out, so a caller
// that splits many batch lists (the join's probe windows) reuses one array.
func AppendSplitRanges(out [][]PageRange, ranges []PageRange, n int) [][]PageRange {
	if n < 1 {
		n = 1
	}
	if n > len(ranges) {
		n = len(ranges)
	}
	if n <= 1 {
		if len(ranges) == 0 {
			return out
		}
		return append(out, ranges)
	}
	total := 0
	for _, r := range ranges {
		total += r.Rows()
	}
	out = slices.Grow(out, n)
	first := len(out)
	start, acc := 0, 0
	for i := 0; i < len(ranges); i++ {
		chunksLeft := n - (len(out) - first)
		if chunksLeft == 1 {
			break // the tail chunk takes everything left
		}
		rows := ranges[i].Rows()
		// Fair share of the rows still unassigned (acc included).
		target := (total + chunksLeft - 1) / chunksLeft
		if acc > 0 {
			// Close the current chunk before range i when the
			// remaining chunks would otherwise run out of batches,
			// or when adding i overshoots the fair share by more
			// than stopping short undershoots it (a single huge
			// tail batch must not get glued onto a full chunk).
			batchesLeft := len(ranges) - i
			if batchesLeft <= chunksLeft-1 || acc+rows-target >= target-acc {
				out = append(out, ranges[start:i])
				total -= acc
				start, acc = i, 0
			}
		}
		acc += rows
	}
	out = append(out, ranges[start:])
	return out
}

// ScanRanges streams the given batch ranges as vector lists with a single
// handle column named colName, invoking fn per batch. The handle column,
// its boxed Column header (re-boxed only when a batch's length differs from
// the last) and the vector-list header are scratch reused across batches:
// the column is valid until the next batch, so fn must not retain it past
// its return. Pipeline stages and sinks copy what they keep (Gather, a
// sink's values and handles), so this holds for every compiled pipeline.
func ScanRanges(ranges []PageRange, colName string, fn func(*VectorList) error) error {
	var scratch RefCol
	var boxed Column
	names := []string{colName}
	cols := []Column{nil}
	vl := &VectorList{}
	for _, r := range ranges {
		root := object.AsVector(object.Ref{Page: r.Page, Off: r.Page.Root()})
		n := r.Rows()
		if cap(scratch) < n {
			scratch, boxed = make(RefCol, n), nil
		}
		scratch = scratch[:n]
		for i := range scratch {
			scratch[i] = root.HandleAt(r.Start + i)
		}
		if b, ok := boxed.(RefCol); !ok || len(b) != n {
			boxed = scratch
		}
		cols[0] = boxed
		// Full-capacity slice expressions force any Append by fn (or a
		// downstream stage) to reallocate instead of writing into the
		// reused scratch headers.
		vl.Names = names[:1:1]
		vl.Cols = cols[:1:1]
		if err := fn(vl); err != nil {
			return err
		}
	}
	return nil
}

// ScanPages streams the objects stored on a slice of pages (each holding a
// root Vector<Handle>) as vector lists with a single handle column named
// colName, in batches of batch objects, invoking fn per batch.
func ScanPages(pages []*object.Page, colName string, batch int, fn func(*VectorList) error) error {
	return ScanRanges(BatchRanges(pages, batch), colName, fn)
}

// CountObjects counts the objects stored across a slice of root-vector
// pages.
func CountObjects(pages []*object.Page) int {
	total := 0
	for _, pg := range pages {
		if pg.Root() == 0 {
			continue
		}
		total += object.AsVector(object.Ref{Page: pg, Off: pg.Root()}).Len()
	}
	return total
}
