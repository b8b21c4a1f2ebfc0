package core

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/tcap"
)

// SortSpec is the compiled form of an OrderBy or Window: how many leading
// Applied columns are sort keys (a Window statement's Applied carries the
// value column after the keys), the per-key descending flags, and the top-k
// limit (0 = unbounded). The same information rides the statement's Info
// ("desc", "limit") so a printed program round-trips it.
type SortSpec struct {
	NumKeys int
	Desc    []bool
	Limit   int
	Window  bool
}

// CompileResult is a compiled query graph: the TCAP program, the kernel
// registry backing its stages, and per-aggregation, sort and window specs.
type CompileResult struct {
	Prog        *tcap.Program
	Stages      *engine.StageRegistry
	AggSpecs    map[string]*engine.AggSpec    // by AGGREGATE/DISTINCT output list name
	SortSpecs   map[string]*SortSpec          // by SORT/WINDOW output list name
	WindowSpecs map[string]*engine.WindowSpec // by WINDOW output list name
}

// Compile lowers a query graph (identified by its Write sinks) into TCAP.
// Each computation's lambda term construction functions are invoked exactly
// once — they build expressions, not per-object computations (paper §4) —
// and the resulting terms are flattened into APPLY/FILTER/HASH/JOIN/
// AGGREGATE/FLATTEN statements with executable kernels registered for every
// stage.
func Compile(writes ...*Write) (*CompileResult, error) {
	sinks := make([]Computation, len(writes))
	for i, w := range writes {
		sinks[i] = w
	}
	order, err := topoOrder(sinks)
	if err != nil {
		return nil, err
	}
	c := &compiler{
		res: &CompileResult{
			Prog:        &tcap.Program{},
			Stages:      engine.NewStageRegistry(),
			AggSpecs:    map[string]*engine.AggSpec{},
			SortSpecs:   map[string]*SortSpec{},
			WindowSpecs: map[string]*engine.WindowSpec{},
		},
		outs: map[Computation]listState{},
	}
	for _, comp := range order {
		var st listState
		var err error
		switch t := comp.(type) {
		case *Scan:
			st, err = c.compileScan(t)
		case *Selection:
			st, err = c.compileSelection(t)
		case *MultiSelection:
			st, err = c.compileMultiSelection(t)
		case *Join:
			st, err = c.compileJoin(t)
		case *Aggregate:
			st, err = c.compileAggregate(t)
		case *OrderBy:
			st, err = c.compileOrderBy(t)
		case *Distinct:
			st, err = c.compileDistinct(t)
		case *Window:
			st, err = c.compileWindow(t)
		case *Write:
			err = c.compileWrite(t)
		default:
			err = fmt.Errorf("core: unknown computation type %T", comp)
		}
		if err != nil {
			return nil, err
		}
		c.outs[comp] = st
	}
	if err := c.res.Prog.Validate(); err != nil {
		return nil, fmt.Errorf("core: compiler produced invalid TCAP: %w", err)
	}
	return c.res, nil
}

// listState tracks a compiled computation's current vector list: its name,
// the columns the next statement may copy, and the single object column at
// computation boundaries.
type listState struct {
	name   string
	cols   []string
	objCol string
}

type compiler struct {
	res  *CompileResult
	outs map[Computation]listState

	listCnt  int
	colCnt   int
	compCnt  int
	stageCnt int
}

func (c *compiler) freshList() string {
	c.listCnt++
	return fmt.Sprintf("L%d", c.listCnt)
}

func (c *compiler) freshCol() string {
	c.colCnt++
	return fmt.Sprintf("c%d", c.colCnt)
}

func (c *compiler) compName(label string) string {
	c.compCnt++
	return fmt.Sprintf("%s_%d", label, c.compCnt)
}

func (c *compiler) freshStage(prefix string) string {
	c.stageCnt++
	return fmt.Sprintf("%s_%d", prefix, c.stageCnt)
}

// emitApply appends an APPLY statement creating one new column, registering
// its kernel.
func (c *compiler) emitApply(cur listState, applied []string, comp, stagePrefix string,
	info map[string]string, kernel engine.ApplyKernel) (listState, string) {
	stage := c.freshStage(stagePrefix)
	newCol := c.freshCol()
	out := listState{
		name:   c.freshList(),
		cols:   append(append([]string{}, cur.cols...), newCol),
		objCol: cur.objCol,
	}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpApply,
		Applied: tcap.ColumnsRef{Name: cur.name, Cols: applied},
		Copied:  tcap.ColumnsRef{Name: cur.name, Cols: cur.cols},
		Comp:    comp,
		Stage:   stage,
		Info:    info,
	})
	c.res.Stages.Register(comp, stage, kernel)
	return out, newCol
}

// compileTerm lowers a lambda term over the current vector list, returning
// the updated list and the column holding the term's value. binding maps
// argument indices to their object columns.
func (c *compiler) compileTerm(cur listState, t lambda.Term, binding map[int]string, comp string) (listState, string, error) {
	switch n := t.(type) {
	case *lambda.Arg:
		col, ok := binding[n.Index]
		if !ok {
			return cur, "", fmt.Errorf("core: unbound lambda argument %d", n.Index)
		}
		return cur, col, nil
	case *lambda.Self:
		return c.compileTerm(cur, n.Recv, binding, comp)
	case *lambda.Member:
		st, recvCol, err := c.compileTerm(cur, n.Recv, binding, comp)
		if err != nil {
			return cur, "", err
		}
		st, out := c.emitApply(st, []string{recvCol}, comp, "att_acc",
			map[string]string{"type": "attAccess", "attName": n.Field},
			memberKernel(n.Field))
		return st, out, nil
	case *lambda.MethodCall:
		st, recvCol, err := c.compileTerm(cur, n.Recv, binding, comp)
		if err != nil {
			return cur, "", err
		}
		st, out := c.emitApply(st, []string{recvCol}, comp, "method_call",
			map[string]string{"type": "methodCall", "methodName": n.Method},
			methodKernel(n.Method))
		return st, out, nil
	case *lambda.Const:
		if len(cur.cols) == 0 {
			return cur, "", fmt.Errorf("core: constant term with no sizing column")
		}
		st, out := c.emitApply(cur, []string{cur.cols[0]}, comp, "const",
			constInfo(n.Val), constKernel(n.Val))
		return st, out, nil
	case *lambda.Native:
		st := cur
		var depCols []string
		for _, d := range n.Deps {
			var col string
			var err error
			st, col, err = c.compileTerm(st, d, binding, comp)
			if err != nil {
				return cur, "", err
			}
			depCols = append(depCols, col)
		}
		st, out := c.emitApply(st, depCols, comp, "native",
			map[string]string{"type": "native", "name": n.Name},
			nativeKernel(n.Fn, len(depCols)))
		return st, out, nil
	case *lambda.Binary:
		st, lcol, err := c.compileTerm(cur, n.L, binding, comp)
		if err != nil {
			return cur, "", err
		}
		st, rcol, err := c.compileTerm(st, n.R, binding, comp)
		if err != nil {
			return cur, "", err
		}
		info := map[string]string{"op": string(n.Op)}
		var prefix string
		switch n.Op {
		case lambda.OpEq:
			info["type"] = "equalityCheck"
			prefix = "=="
		case lambda.OpAnd, lambda.OpOr:
			info["type"] = "bool"
			prefix = "bool"
		case lambda.OpNe, lambda.OpGt, lambda.OpGe, lambda.OpLt, lambda.OpLe:
			info["type"] = "comparison"
			prefix = "cmp"
		default:
			info["type"] = "arith"
			prefix = "arith"
		}
		st, out := c.emitApply(st, []string{lcol, rcol}, comp, prefix, info, binaryKernel(n.Op))
		return st, out, nil
	case *lambda.Unary:
		st, xcol, err := c.compileTerm(cur, n.X, binding, comp)
		if err != nil {
			return cur, "", err
		}
		st, out := c.emitApply(st, []string{xcol}, comp, "not",
			map[string]string{"type": "bool", "op": "!"}, notKernel())
		return st, out, nil
	default:
		return cur, "", fmt.Errorf("core: unknown lambda term %T", t)
	}
}

// constInfo records a constant's exact value in the statement's Info so a
// rebuilt program reconstructs the identical kernel: "value" keeps the
// human-readable rendering, "kind"/"cval" carry the lossless machine form
// (floats via strconv's shortest round-trip formatting, which %g is not).
func constInfo(v object.Value) map[string]string {
	info := map[string]string{"type": "const", "value": v.String(),
		"kind": strconv.Itoa(int(v.K))}
	switch v.K {
	case object.KBool:
		info["cval"] = strconv.FormatBool(v.B)
	case object.KInt32, object.KInt64:
		info["cval"] = strconv.FormatInt(v.I, 10)
	case object.KFloat64:
		info["cval"] = strconv.FormatFloat(v.F, 'g', -1, 64)
	case object.KString:
		info["cval"] = v.Str()
	}
	return info
}

// emitFilter appends a FILTER keeping only the given columns.
func (c *compiler) emitFilter(cur listState, boolCol string, keep []string, comp string) listState {
	out := listState{name: c.freshList(), cols: append([]string{}, keep...), objCol: cur.objCol}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpFilter,
		Applied: tcap.ColumnsRef{Name: cur.name, Cols: []string{boolCol}},
		Copied:  tcap.ColumnsRef{Name: cur.name, Cols: keep},
		Comp:    comp,
		Info:    map[string]string{},
	})
	return out
}

// emitHash appends a HASH of the key column, copying keep columns.
func (c *compiler) emitHash(cur listState, keyCol string, keep []string, comp string) (listState, string) {
	hashCol := c.freshCol()
	out := listState{name: c.freshList(), cols: append(append([]string{}, keep...), hashCol), objCol: cur.objCol}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpHash,
		Applied: tcap.ColumnsRef{Name: cur.name, Cols: []string{keyCol}},
		Copied:  tcap.ColumnsRef{Name: cur.name, Cols: keep},
		Comp:    comp,
		Stage:   c.freshStage("hash"),
		Info:    map[string]string{"type": "hash"},
	})
	return out, hashCol
}

func (c *compiler) compileScan(s *Scan) (listState, error) {
	comp := c.compName("Scan")
	col := c.freshCol()
	st := listState{name: c.freshList(), cols: []string{col}, objCol: col}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:  tcap.ColumnsRef{Name: st.name, Cols: st.cols},
		Op:   tcap.OpScan,
		Comp: comp,
		Db:   s.Db,
		Set:  s.Set,
		Info: map[string]string{"type": "scan", "typeName": s.TypeName},
	})
	return st, nil
}

func (c *compiler) compileSelection(s *Selection) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("Sel")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	if s.Predicate != nil {
		term := s.Predicate(lambda.NewArg(0, s.ArgType))
		st, boolCol, err := c.compileTerm(cur, term, binding, comp)
		if err != nil {
			return listState{}, err
		}
		cur = c.emitFilter(st, boolCol, []string{in.objCol}, comp)
	}
	if s.Projection != nil {
		term := s.Projection(lambda.NewArg(0, s.ArgType))
		st, projCol, err := c.compileTerm(cur, term, binding, comp)
		if err != nil {
			return listState{}, err
		}
		st.objCol = projCol
		return st, nil
	}
	return cur, nil
}

func (c *compiler) compileMultiSelection(s *MultiSelection) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("MSel")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	if s.Predicate != nil {
		term := s.Predicate(lambda.NewArg(0, s.ArgType))
		st, boolCol, err := c.compileTerm(cur, term, binding, comp)
		if err != nil {
			return listState{}, err
		}
		cur = c.emitFilter(st, boolCol, []string{in.objCol}, comp)
	}
	if s.Projection == nil {
		return listState{}, fmt.Errorf("core: MultiSelection requires a projection")
	}
	term := s.Projection(lambda.NewArg(0, s.ArgType))
	st, vecCol, err := c.compileTerm(cur, term, binding, comp)
	if err != nil {
		return listState{}, err
	}
	elemCol := c.freshCol()
	out := listState{name: c.freshList(), cols: []string{elemCol}, objCol: elemCol}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpFlatten,
		Applied: tcap.ColumnsRef{Name: st.name, Cols: []string{vecCol}},
		Copied:  tcap.ColumnsRef{Name: st.name, Cols: nil},
		Comp:    comp,
		Stage:   c.freshStage("flatten"),
		Info:    map[string]string{"type": "flatten"},
	})
	return out, nil
}

func (c *compiler) compileAggregate(s *Aggregate) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("Agg")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	if s.Key == nil || s.Val == nil || s.Finalize == nil {
		return listState{}, fmt.Errorf("core: Aggregate requires Key, Val, Finalize, and a Combine or a Fold")
	}
	spec := &engine.AggSpec{
		KeyKind:  s.KeyKind,
		ValKind:  s.ValKind,
		Combine:  s.Combine,
		Fold:     s.Fold,
		Finalize: s.Finalize,
	}
	if _, err := spec.Combiner(); err != nil {
		return listState{}, fmt.Errorf("core: Aggregate: %w", err)
	}
	st, keyCol, err := c.compileTerm(cur, s.Key(lambda.NewArg(0, s.ArgType)), binding, comp)
	if err != nil {
		return listState{}, err
	}
	st, valCol, err := c.compileTerm(st, s.Val(lambda.NewArg(0, s.ArgType)), binding, comp)
	if err != nil {
		return listState{}, err
	}
	outCol := c.freshCol()
	out := listState{name: c.freshList(), cols: []string{outCol}, objCol: outCol}
	info := map[string]string{"type": "aggregate"}
	if s.Name != "" {
		// A named aggregation is shippable: Rebuild resolves the family
		// spec from this Info entry on the receiving side.
		info["agg"] = s.Name
	}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpAggregate,
		Applied: tcap.ColumnsRef{Name: st.name, Cols: []string{keyCol, valCol}},
		Copied:  tcap.ColumnsRef{Name: st.name, Cols: nil},
		Comp:    comp,
		Stage:   c.freshStage("agg"),
		Info:    info,
	})
	c.res.AggSpecs[out.name] = spec
	return out, nil
}

// descInfo renders per-key sort directions for a statement's Info ("a" for
// ascending, "d" for descending, comma-separated in key precedence order).
func descInfo(desc []bool) string {
	parts := make([]string, len(desc))
	for i, d := range desc {
		if d {
			parts[i] = "d"
		} else {
			parts[i] = "a"
		}
	}
	return strings.Join(parts, ",")
}

// compileSortKeys lowers an OrderBy/Window key list over the current vector
// list, returning the updated list, the key columns in precedence order, and
// the descending flags.
func (c *compiler) compileSortKeys(cur listState, keys []SortKey, argType string,
	binding map[int]string, comp string) (listState, []string, []bool, error) {
	if len(keys) == 0 {
		return listState{}, nil, nil, fmt.Errorf("core: sort requires at least one key")
	}
	st := cur
	keyCols := make([]string, 0, len(keys))
	desc := make([]bool, len(keys))
	for i, k := range keys {
		if k.Term == nil {
			return listState{}, nil, nil, fmt.Errorf("core: sort key %d has no term", i)
		}
		var col string
		var err error
		st, col, err = c.compileTerm(st, k.Term(lambda.NewArg(0, argType)), binding, comp)
		if err != nil {
			return listState{}, nil, nil, err
		}
		keyCols = append(keyCols, col)
		desc[i] = k.Desc
	}
	return st, keyCols, desc, nil
}

func (c *compiler) compileOrderBy(s *OrderBy) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("Sort")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	st, keyCols, desc, err := c.compileSortKeys(cur, s.Keys, s.ArgType, binding, comp)
	if err != nil {
		return listState{}, err
	}
	outCol := c.freshCol()
	out := listState{name: c.freshList(), cols: []string{outCol}, objCol: outCol}
	info := map[string]string{"type": "sort", "desc": descInfo(desc)}
	if s.Limit > 0 {
		info["limit"] = strconv.Itoa(s.Limit)
	}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpSort,
		Applied: tcap.ColumnsRef{Name: st.name, Cols: keyCols},
		Copied:  tcap.ColumnsRef{Name: st.name, Cols: []string{st.objCol}},
		Comp:    comp,
		Stage:   c.freshStage("sort"),
		Info:    info,
	})
	c.res.SortSpecs[out.name] = &SortSpec{NumKeys: len(keyCols), Desc: desc, Limit: s.Limit}
	return out, nil
}

func (c *compiler) compileDistinct(s *Distinct) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("Dist")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	if s.Key == nil || s.Make == nil {
		return listState{}, fmt.Errorf("core: Distinct requires Key and Make")
	}
	st, keyCol, err := c.compileTerm(cur, s.Key(lambda.NewArg(0, s.ArgType)), binding, comp)
	if err != nil {
		return listState{}, err
	}
	outCol := c.freshCol()
	out := listState{name: c.freshList(), cols: []string{outCol}, objCol: outCol}
	// DISTINCT rides the aggregation machinery as a keys-only sink: the
	// "value" is the key itself, combined keep-first, so the pre-agg maps,
	// shuffle, and merge dedup exactly. Applied names the key column twice
	// (key, val), matching the AGGREGATE sink-side contract.
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:      tcap.OpDistinct,
		Applied: tcap.ColumnsRef{Name: st.name, Cols: []string{keyCol, keyCol}},
		Copied:  tcap.ColumnsRef{Name: st.name, Cols: nil},
		Comp:    comp,
		Stage:   c.freshStage("distinct"),
		Info:    map[string]string{"type": "distinct"},
	})
	mk := s.Make
	c.res.AggSpecs[out.name] = &engine.AggSpec{
		KeyKind: s.KeyKind,
		ValKind: s.KeyKind,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if exists {
				return cur, nil
			}
			return next, nil
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			return mk(a, key)
		},
	}
	return out, nil
}

func (c *compiler) compileWindow(s *Window) (listState, error) {
	in := c.outs[s.In]
	comp := c.compName("Win")
	cur := listState{name: in.name, cols: []string{in.objCol}, objCol: in.objCol}
	binding := map[int]string{0: in.objCol}

	if s.Val == nil || s.Combine == nil || s.Emit == nil {
		return listState{}, fmt.Errorf("core: Window requires Val, Combine, and Emit")
	}
	st, keyCols, desc, err := c.compileSortKeys(cur, s.Keys, s.ArgType, binding, comp)
	if err != nil {
		return listState{}, err
	}
	st, valCol, err := c.compileTerm(st, s.Val(lambda.NewArg(0, s.ArgType)), binding, comp)
	if err != nil {
		return listState{}, err
	}
	outCol := c.freshCol()
	out := listState{name: c.freshList(), cols: []string{outCol}, objCol: outCol}
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out: tcap.ColumnsRef{Name: out.name, Cols: out.cols},
		Op:  tcap.OpWindow,
		// Applied carries the sort keys followed by the value column; the
		// SortSpec's NumKeys records where the keys end.
		Applied: tcap.ColumnsRef{Name: st.name, Cols: append(append([]string{}, keyCols...), valCol)},
		Copied:  tcap.ColumnsRef{Name: st.name, Cols: []string{st.objCol}},
		Comp:    comp,
		Stage:   c.freshStage("window"),
		Info:    map[string]string{"type": "window", "desc": descInfo(desc)},
	})
	c.res.SortSpecs[out.name] = &SortSpec{NumKeys: len(keyCols), Desc: desc, Window: true}
	c.res.WindowSpecs[out.name] = &engine.WindowSpec{ValKind: s.ValKind, Combine: s.Combine, Emit: s.Emit}
	return out, nil
}

func (c *compiler) compileWrite(w *Write) error {
	in := c.outs[w.In]
	comp := c.compName("Out")
	c.res.Prog.Stmts = append(c.res.Prog.Stmts, &tcap.Stmt{
		Out:     tcap.ColumnsRef{Name: comp, Cols: nil},
		Op:      tcap.OpOutput,
		Applied: tcap.ColumnsRef{Name: in.name, Cols: []string{in.objCol}},
		Comp:    comp,
		Db:      w.Db,
		Set:     w.Set,
		Info:    map[string]string{"type": "output"},
	})
	return nil
}
