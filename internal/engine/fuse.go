package engine

// Fused kernel execution (after Neumann's "Efficiently Compiling Efficient
// Query Plans"): every maximal run of chained APPLY/FILTER/HASH statements
// in the list a pipeline executes runs as a single pass over each batch.
// The engine alone decides the runs, from the statement list, so a stage
// rebuilt from TCAP text fuses exactly what the compiling side's stage
// fuses. Filters refine a selection vector instead of gathering
// every copied column per statement; the deferred gather (compaction) runs
// only when a kernel needs physical rows, and it gathers only the columns
// the rest of the run still reads. The fused pass is bit-for-bit equivalent
// to running the statements one at a time: kernels see exactly the
// post-filter rows the unfused path would hand them, and the run's final
// output is shaped exactly like the last statement's unfused output
// (internal/engine/fuse_test.go pins the equivalence on randomized chains).

import (
	"fmt"

	"repro/internal/tcap"
)

// fuseSeg is one segment of a pipeline's fused plan: either a single
// statement executed the classic way, or a validated run of ≥2 statements
// executed as one pass. A segment belongs to one Pipeline, so to one
// executor thread: besides the plan it holds the per-batch bookkeeping the
// pass reuses from batch to batch.
type fuseSeg struct {
	stmts []*tcap.Stmt
	// base is stmts[0]'s position in Pipeline.Stmts, the Ctx slot of its
	// kernel output (statement k's is base+k).
	base int
	// needed[k] is the set of columns statements k..end still read (their
	// Applied inputs plus the run's final Copied output), the compaction
	// filter when a kernel at position k forces a gather.
	needed []map[string]bool

	// st[k] is statement k's kernel, new column name and input slice,
	// resolved on first use; st[k].out is the header its output is
	// appended on, packed[k] the one its compaction gathers into.
	st     []stmtState
	packed []VectorList
	// proj is the run's final output header and sel the filters'
	// selection vector.
	proj VectorList
	sel  []int
}

// fusableOp reports whether the op may join a fused run.
func fusableOp(op tcap.OpKind) bool {
	switch op {
	case tcap.OpApply, tcap.OpFilter, tcap.OpHash:
		return true
	}
	return false
}

// buildFusePlan cuts a pipeline's statement slice into the segments of
// FusedRuns.
func buildFusePlan(stmts []*tcap.Stmt) []fuseSeg {
	return cutPlan(stmts, FusedRuns(stmts))
}

// FusedRuns returns the lengths, in order, of the segments a pipeline over
// stmts executes: every maximal run of consecutive APPLY/FILTER/HASH
// statements whose lists chain (each reads exactly its predecessor's
// output) fuses; every other statement — FLATTEN, a JOIN probe, one that
// reads another list — runs alone.
func FusedRuns(stmts []*tcap.Stmt) []int {
	var runs []int
	for i := 0; i < len(stmts); {
		j := i
		if fusableOp(stmts[i].Op) {
			for j+1 < len(stmts) {
				next := stmts[j+1]
				if !fusableOp(next.Op) ||
					next.Applied.Name != stmts[j].Out.Name ||
					next.Copied.Name != stmts[j].Out.Name {
					break
				}
				j++
			}
		}
		runs = append(runs, j+1-i)
		i = j + 1
	}
	return runs
}

// cutPlan makes the segments of stmts cut into runs of the given lengths,
// in order.
func cutPlan(stmts []*tcap.Stmt, runs []int) []fuseSeg {
	plan := make([]fuseSeg, 0, len(runs))
	base := 0
	for _, n := range runs {
		seg := fuseSeg{stmts: stmts[base : base+n], base: base, st: make([]stmtState, n)}
		if n > 1 {
			seg.needed = neededSuffixes(seg.stmts)
			seg.packed = make([]VectorList, n)
		}
		plan = append(plan, seg)
		base += n
	}
	return plan
}

// neededSuffixes precomputes, for each position k in a run, the columns
// statements k..end read: every Applied input plus the last statement's
// Copied output columns.
func neededSuffixes(run []*tcap.Stmt) []map[string]bool {
	out := make([]map[string]bool, len(run))
	need := map[string]bool{}
	for _, c := range run[len(run)-1].Copied.Cols {
		need[c] = true
	}
	for k := len(run) - 1; k >= 0; k-- {
		for _, c := range run[k].Applied.Cols {
			need[c] = true
		}
		snap := make(map[string]bool, len(need))
		for c := range need {
			snap[c] = true
		}
		out[k] = snap
	}
	return out
}

// execFused runs one ≥2-statement segment as a single pass over the batch.
// Every header, input slice and selection vector it fills is the segment's,
// reused from batch to batch; the caller's batch is never mutated.
func execFused(ctx *Ctx, reg *StageRegistry, seg *fuseSeg, in *VectorList) (*VectorList, error) {
	vl := in
	sel := seg.sel[:0]
	selActive := false // sel is "all rows" only while inactive
	for k, s := range seg.stmts {
		switch s.Op {
		case tcap.OpFilter:
			if len(s.Applied.Cols) != 1 {
				return nil, fmt.Errorf("engine: FILTER takes one input column")
			}
			bc, ok := vl.Col(s.Applied.Cols[0]).(BoolCol)
			if !ok {
				return nil, fmt.Errorf("engine: FILTER input %q is not boolean", s.Applied.Cols[0])
			}
			if !selActive {
				for i, b := range bc {
					if b {
						sel = append(sel, i)
					}
				}
				selActive = true
			} else {
				out := sel[:0]
				for _, i := range sel {
					if bc[i] {
						out = append(out, i)
					}
				}
				sel = out
			}
		case tcap.OpApply, tcap.OpHash:
			if selActive {
				vl = compactSelected(&seg.packed[k], vl, seg.needed[k], sel)
				sel, selActive = sel[:0], false
			}
			st := &seg.st[k]
			ctx.useSlot(seg.base + k)
			var newCol Column
			var err error
			if s.Op == tcap.OpApply {
				newCol, err = st.applyKernel(ctx, reg, s, vl)
			} else {
				newCol, err = hashInput(ctx, s, vl)
			}
			if err != nil {
				return nil, err
			}
			name, err := st.newColumn(s)
			if err != nil {
				return nil, err
			}
			// Append on the statement's own header: vl may still be the
			// caller's batch (or a compaction result) and must not be
			// mutated.
			st.out.Names = append(append(st.out.Names[:0], vl.Names...), name)
			st.out.Cols = append(append(st.out.Cols[:0], vl.Cols...), newCol)
			vl = &st.out
		default:
			return nil, fmt.Errorf("engine: op %v cannot run fused", s.Op)
		}
	}
	seg.sel = sel
	// Shape the final output exactly as the last statement's unfused
	// output: its Copied projection, gathered by the pending selection if
	// the run ends in filters, plus its new column otherwise.
	last := seg.stmts[len(seg.stmts)-1]
	if err := vl.projectInto(&seg.proj, last.Copied.Cols); err != nil {
		return nil, err
	}
	if last.Op == tcap.OpFilter {
		return seg.proj.GatherAll(sel), nil
	}
	name := seg.st[len(seg.stmts)-1].newCols[0]
	seg.proj.Append(name, vl.Col(name))
	return &seg.proj, nil
}

// compactSelected gathers the needed columns at the selected rows onto dst —
// the fused pass's one materialization point between filters and kernels.
func compactSelected(dst, vl *VectorList, needed map[string]bool, sel []int) *VectorList {
	dst.Names, dst.Cols = dst.Names[:0], dst.Cols[:0]
	for i, name := range vl.Names {
		if needed[name] {
			dst.Names = append(dst.Names, name)
			dst.Cols = append(dst.Cols, vl.Cols[i].Gather(sel))
		}
	}
	return dst
}
