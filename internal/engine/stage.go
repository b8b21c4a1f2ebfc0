package engine

import (
	"fmt"

	"repro/internal/object"
	"repro/internal/tcap"
)

// executeStmt runs one non-breaking TCAP statement over a vector list,
// producing the statement's output vector list. Pipeline breakers
// (AGGREGATE, OUTPUT, and JOIN build sides) are handled by sinks, not here;
// a JOIN statement encountered mid-pipeline is a probe against a prebuilt
// table. st, when non-nil, is the statement's per-pipeline state (APPLY
// and HASH reuse it across batches); nil runs the statement from scratch.
func executeStmt(ctx *Ctx, reg *StageRegistry, s *tcap.Stmt, st *stmtState, in *VectorList) (*VectorList, error) {
	switch s.Op {
	case tcap.OpApply:
		return execApply(ctx, reg, s, st, in)
	case tcap.OpHash:
		return execHash(ctx, s, st, in)
	case tcap.OpFilter:
		return execFilter(s, in)
	case tcap.OpFlatten:
		return execFlatten(s, in)
	case tcap.OpJoin:
		if jt := s.Info["joinType"]; jt == "semi" || jt == "anti" {
			return execJoinSemiAnti(ctx, s, in)
		}
		return execJoinProbe(ctx, s, in)
	default:
		return nil, fmt.Errorf("engine: op %v cannot run mid-pipeline", s.Op)
	}
}

// stmtState is what one APPLY or HASH statement keeps across a pipeline's
// batches on its executor thread: the kernel and the new column's name,
// resolved once, and the input slice and output header it fills afresh
// every batch.
type stmtState struct {
	kernel  ApplyKernel
	newCols []string
	inputs  []Column
	out     VectorList
}

// newColumn returns the statement's one new column name.
func (st *stmtState) newColumn(s *tcap.Stmt) (string, error) {
	if st.newCols == nil {
		st.newCols = s.NewColumns()
	}
	if len(st.newCols) != 1 {
		return "", fmt.Errorf("engine: %v %s.%s must create exactly one column, got %v",
			s.Op, s.Comp, s.Stage, st.newCols)
	}
	return st.newCols[0], nil
}

// applyKernel resolves the statement's kernel (once), gathers its input
// columns from in and runs it.
func (st *stmtState) applyKernel(ctx *Ctx, reg *StageRegistry, s *tcap.Stmt, in *VectorList) (Column, error) {
	if st.kernel == nil {
		k, err := reg.Lookup(s.Comp, s.Stage)
		if err != nil {
			return nil, err
		}
		st.kernel = k
	}
	if cap(st.inputs) < len(s.Applied.Cols) {
		st.inputs = make([]Column, len(s.Applied.Cols))
	}
	inputs := st.inputs[:len(s.Applied.Cols)]
	for i, name := range s.Applied.Cols {
		c := in.Col(name)
		if c == nil {
			return nil, fmt.Errorf("engine: APPLY %s.%s: missing column %q", s.Comp, s.Stage, name)
		}
		inputs[i] = c
	}
	return st.kernel(ctx, inputs)
}

// hashInput hashes the statement's one applied column of in.
func hashInput(ctx *Ctx, s *tcap.Stmt, in *VectorList) (Column, error) {
	if len(s.Applied.Cols) != 1 {
		return nil, fmt.Errorf("engine: HASH takes one input column")
	}
	c := in.Col(s.Applied.Cols[0])
	if c == nil {
		return nil, fmt.Errorf("engine: HASH: missing column %q", s.Applied.Cols[0])
	}
	return hashColumn(ctx, c)
}

// execApply runs the statement's registered kernel over the applied columns
// and appends the result column.
func execApply(ctx *Ctx, reg *StageRegistry, s *tcap.Stmt, st *stmtState, in *VectorList) (*VectorList, error) {
	if st == nil {
		st = &stmtState{}
	}
	newCol, err := st.applyKernel(ctx, reg, s, in)
	if err != nil {
		return nil, err
	}
	return st.emit(s, in, newCol)
}

// execHash hashes the applied column into a new U64 column (the TCAP HASH
// operation feeding joins and aggregations).
func execHash(ctx *Ctx, s *tcap.Stmt, st *stmtState, in *VectorList) (*VectorList, error) {
	if st == nil {
		st = &stmtState{}
	}
	hashes, err := hashInput(ctx, s, in)
	if err != nil {
		return nil, err
	}
	return st.emit(s, in, hashes)
}

// emit shapes an unfused APPLY or HASH output on the statement's header:
// the Copied projection of in plus the new column.
func (st *stmtState) emit(s *tcap.Stmt, in *VectorList, newCol Column) (*VectorList, error) {
	if err := in.projectInto(&st.out, s.Copied.Cols); err != nil {
		return nil, err
	}
	name, err := st.newColumn(s)
	if err != nil {
		return nil, err
	}
	st.out.Append(name, newCol)
	return &st.out, nil
}

// hashColumn hashes one column into a U64 column (the running statement's
// scratch, ctx.U64Buf) with the typed loop shared by execHash and the fused
// pass.
func hashColumn(ctx *Ctx, c Column) (Column, error) {
	n := c.Len()
	hashes, out := ColBuf[U64Col](ctx, n)
	switch col := c.(type) {
	case I64Col:
		for i, v := range col {
			hashes[i] = object.HashValue(object.Int64Value(v))
		}
	case F64Col:
		for i, v := range col {
			hashes[i] = object.HashValue(object.Float64Value(v))
		}
	case StrCol:
		for i, v := range col {
			hashes[i] = object.HashValue(v)
		}
	case RefCol:
		if err := hashRefCol(ctx, col, hashes); err != nil {
			return nil, err
		}
	default:
		for i := 0; i < n; i++ {
			hashes[i] = object.HashValue(c.Value(i))
		}
	}
	return out, nil
}

// hashRefCol hashes a handle column with a typed loop: objects whose
// registered type declares a Hash are hashed through it (the "key value" of
// the referenced object — the paper's key-projection hashing); strings hash
// by contents. Other objects fall back to identity (offset) hashing, which
// is still sound for joins because probe hits are re-verified by the
// post-join equality filter. The resolved hash function is cached on the
// handle's type code, mirroring the member/method kernels' one-entry vTable
// cache.
func hashRefCol(ctx *Ctx, col RefCol, hashes U64Col) error {
	var cachedCode uint32
	var cachedFn func(object.Ref) uint64
	identity := func(r object.Ref) uint64 { return object.HashValue(object.HandleValue(r)) }
	for i, r := range col {
		if r.IsNil() {
			hashes[i] = object.HashValue(object.HandleValue(r))
			continue
		}
		tc := r.TypeCode()
		if tc != cachedCode || cachedFn == nil {
			switch {
			case tc == object.TCString:
				cachedFn = func(r object.Ref) uint64 {
					return object.HashValue(object.StringRefValue(r))
				}
			case ctx != nil && ctx.Reg != nil:
				if ti := ctx.Reg.Lookup(tc); ti != nil && ti.Hash != nil {
					cachedFn = ti.Hash
				} else {
					cachedFn = identity
				}
			default:
				cachedFn = identity
			}
			cachedCode = tc
		}
		hashes[i] = cachedFn(r)
	}
	return nil
}

// execFilter keeps the rows whose applied boolean column is true, gathering
// every copied column. The selection index is presized with a counting pass
// instead of growing through append (the filter is on every pipeline's hot
// path).
func execFilter(s *tcap.Stmt, in *VectorList) (*VectorList, error) {
	if len(s.Applied.Cols) != 1 {
		return nil, fmt.Errorf("engine: FILTER takes one input column")
	}
	c := in.Col(s.Applied.Cols[0])
	bc, ok := c.(BoolCol)
	if !ok {
		return nil, fmt.Errorf("engine: FILTER input %q is not boolean", s.Applied.Cols[0])
	}
	keep := 0
	for _, b := range bc {
		if b {
			keep++
		}
	}
	var idx []int
	if keep > 0 {
		idx = make([]int, 0, keep)
		for i, b := range bc {
			if b {
				idx = append(idx, i)
			}
		}
	}
	proj, err := in.Project(s.Copied.Cols)
	if err != nil {
		return nil, err
	}
	return proj.GatherAll(idx), nil
}

// execFlatten explodes a column of PC Vector handles: each input row
// produces one output row per vector element, with copied columns
// replicated (MultiSelectionComp's set-valued projection).
func execFlatten(s *tcap.Stmt, in *VectorList) (*VectorList, error) {
	if len(s.Applied.Cols) != 1 {
		return nil, fmt.Errorf("engine: FLATTEN takes one input column")
	}
	c := in.Col(s.Applied.Cols[0])
	rc, ok := c.(RefCol)
	if !ok {
		return nil, fmt.Errorf("engine: FLATTEN input %q must be a handle column", s.Applied.Cols[0])
	}
	total := 0
	for _, r := range rc {
		if !r.IsNil() {
			total += object.AsVector(r).Len()
		}
	}
	idx := make([]int, 0, total)
	elems := make([]object.Value, 0, total)
	for i, r := range rc {
		if r.IsNil() {
			continue
		}
		v := object.AsVector(r)
		for j, n := 0, v.Len(); j < n; j++ {
			idx = append(idx, i)
			elems = append(elems, v.At(j))
		}
	}
	proj, err := in.Project(s.Copied.Cols)
	if err != nil {
		return nil, err
	}
	out := proj.GatherAll(idx)
	newNames := s.NewColumns()
	if len(newNames) != 1 {
		return nil, fmt.Errorf("engine: FLATTEN must create exactly one column")
	}
	out.Append(newNames[0], ColumnOf(elems))
	return out, nil
}

// execJoinProbe probes the prebuilt hash table for the statement's right
// input (the build side, keyed by the right input's vector list name): for
// each left row, one output row per matching build object. The build
// object is appended as the right copied column; equality is re-verified by
// the post-join filter the compiler always emits.
func execJoinProbe(ctx *Ctx, s *tcap.Stmt, in *VectorList) (*VectorList, error) {
	table := ctx.Tables[s.Applied2.Name]
	if table == nil {
		return nil, fmt.Errorf("engine: no join table for %q", s.Applied2.Name)
	}
	if len(s.Applied.Cols) != 1 {
		return nil, fmt.Errorf("engine: JOIN probes one hash column")
	}
	hc, ok := in.Col(s.Applied.Cols[0]).(U64Col)
	if !ok {
		return nil, fmt.Errorf("engine: JOIN probe column %q must be hashes", s.Applied.Cols[0])
	}
	if len(s.Copied2.Cols) != 1 {
		return nil, fmt.Errorf("engine: JOIN build side carries one object column")
	}
	if ctx.Stats != nil {
		ctx.Stats.JoinProbeRows += len(hc)
		ctx.Stats.HashProbes += 2 * len(hc) // counting pass + fill pass
	}
	// Counting pass presizes the match columns exactly: table lookups are
	// paid twice, but append-growth copies (and their garbage) disappear
	// from the probe hot path.
	total := 0
	for _, h := range hc {
		total += table.Bucket(h).Len()
	}
	// The gather-index scratch lives on the Ctx and is reused across
	// batches; GatherAll's output columns copy from it and never retain
	// it. The match column cannot be pooled the same way — it is appended
	// to the output list — so it stays per-batch.
	if cap(ctx.probeIdx) < total {
		ctx.probeIdx = make([]int, 0, total)
	}
	idx := ctx.probeIdx[:0]
	matches := make(RefCol, 0, total)
	for i, h := range hc {
		b := table.Bucket(h)
		for j, n := 0, b.Len(); j < n; j++ {
			idx = append(idx, i)
			matches = append(matches, b.At(j))
		}
	}
	ctx.probeIdx = idx
	proj, err := in.Project(s.Copied.Cols)
	if err != nil {
		return nil, err
	}
	out := proj.GatherAll(idx)
	out.Append(s.Copied2.Cols[0], matches)
	return out, nil
}

// execJoinSemiAnti filters probe rows by exact key membership in the
// build side's key-set table: a semi join keeps rows whose key is present,
// an anti join keeps rows whose key is absent. The applied column is the
// probe KEY VALUE column (not a hash column — membership is exact, so no
// re-verification filter follows), and the output is the copied probe
// columns unchanged: no build column is appended.
func execJoinSemiAnti(ctx *Ctx, s *tcap.Stmt, in *VectorList) (*VectorList, error) {
	table := ctx.Tables[s.Applied2.Name]
	if table == nil {
		return nil, fmt.Errorf("engine: no join table for %q", s.Applied2.Name)
	}
	if !table.IsKeySet() {
		return nil, fmt.Errorf("engine: %s join on %q needs a key-set table", s.Info["joinType"], s.Applied2.Name)
	}
	if len(s.Applied.Cols) != 1 {
		return nil, fmt.Errorf("engine: %s join probes one key column", s.Info["joinType"])
	}
	kc := in.Col(s.Applied.Cols[0])
	if kc == nil {
		return nil, fmt.Errorf("engine: %s join key column %q missing", s.Info["joinType"], s.Applied.Cols[0])
	}
	anti := s.Info["joinType"] == "anti"
	n := kc.Len()
	if ctx.Stats != nil {
		ctx.Stats.JoinProbeRows += n
		ctx.Stats.HashProbes += n
	}
	keep := 0
	for i := 0; i < n; i++ {
		if table.HasKey(kc.Value(i)) != anti {
			keep++
		}
	}
	var idx []int
	if keep > 0 {
		idx = make([]int, 0, keep)
		for i := 0; i < n; i++ {
			if table.HasKey(kc.Value(i)) != anti {
				idx = append(idx, i)
			}
		}
	}
	proj, err := in.Project(s.Copied.Cols)
	if err != nil {
		return nil, err
	}
	return proj.GatherAll(idx), nil
}

// ExecuteStmtForTest exposes single-statement execution to tests in other
// packages (e.g. the Figure 1 stage-by-stage pipeline walkthrough).
func ExecuteStmtForTest(ctx *Ctx, reg *StageRegistry, s *tcap.Stmt, in *VectorList) (*VectorList, error) {
	return executeStmt(ctx, reg, s, nil, in)
}
