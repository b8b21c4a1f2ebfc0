package cluster

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

// The differential operator matrix: every relational operator runs through
// three independent engines — the record-boxed internal/baseline comparator,
// the single-process core.Executor, and the full cluster on both the mem
// and unix transports — over seeded corpora chosen to hit the degenerate
// shapes (NULL-heavy keys, empty input, all-duplicate keys, single-key
// skew), at every Workers × Threads grid cell. Any
// disagreement between two engines is a bug in one of them.
//
// NULL modeling: the object model has no NULL scalar, so a NULL key is a
// sentinel (matNull) that the sort-key lambda maps to an invalid
// object.Value — engaging the real NULL collation (first ascending, last
// descending; see core.SortKey). matNull is the most negative key in any
// corpus, so the baseline's plain numeric comparison collates identically.
// Hash-keyed operators (DISTINCT, aggregate, semi/anti join) see the
// sentinel itself: NULL keys compare equal to each other there, and the
// baseline mirrors that by construction.

const matNull int64 = -1 << 40

type matRow struct{ Key, Val int64 }

// matCorpus returns the seeded (left, right) row sets for a named corpus.
// Val is always the row index — unique within a side — so compound
// (key, val) orders are total and exact-sequence comparable cross-engine.
func matCorpus(name string) (left, right []matRow) {
	rng := newSplitMix(0xC0FFEE ^ int64(len(name))*7919)
	fill := func(n int, key func(i int) int64) []matRow {
		rows := make([]matRow, n)
		for i := range rows {
			rows[i] = matRow{Key: key(i), Val: int64(i)}
		}
		return rows
	}
	switch name {
	case "random":
		left = fill(180, func(int) int64 { return rng.n(48) })
		right = fill(72, func(int) int64 { return 24 + rng.n(48) })
	case "null-heavy":
		left = fill(160, func(int) int64 {
			if rng.n(2) == 0 {
				return matNull
			}
			return rng.n(16)
		})
		right = fill(48, func(int) int64 { return rng.n(16) })
	case "empty":
		left = nil
		right = fill(24, func(int) int64 { return rng.n(8) })
	case "all-dup":
		left = fill(120, func(int) int64 { return 7 })
		right = fill(40, func(int) int64 { return 7 })
	case "skew":
		left = fill(200, func(i int) int64 {
			if i%10 != 0 {
				return 3
			}
			return rng.n(32)
		})
		right = fill(60, func(int) int64 { return rng.n(8) })
	default:
		panic("unknown corpus " + name)
	}
	return left, right
}

// splitMix is a tiny deterministic PRNG (splitmix64) so corpora are
// identical on every platform and Go release.
type splitMix struct{ s uint64 }

func newSplitMix(seed int64) *splitMix { return &splitMix{s: uint64(seed)} }

func (r *splitMix) n(bound int64) int64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z % uint64(bound))
}

// matContract says how two engines' canonical outputs must agree.
type matContract int

const (
	matExact  matContract = iota // identical sequence
	matSorted                    // identical multiset (compared sorted)
	// key sequence identical; full rows identical as a multiset. The
	// contract for single-key sorts over duplicate keys: engines agree on
	// the key order, but which equal-keyed row lands where is each
	// engine's own (stable) tie-break over its own input placement.
	matKeySeq
)

type matOp struct {
	name     string
	contract matContract
	canon    func(rows []matRow) []string
}

func canonKV(rows []matRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%d|%d", r.Key, r.Val)
	}
	return out
}

func canonK(rows []matRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%d", r.Key)
	}
	return out
}

var matOps = []matOp{
	{"orderby", matKeySeq, canonKV},
	{"topk", matExact, canonKV},
	{"distinct", matSorted, canonK},
	{"window", matExact, canonKV},
	{"semi", matSorted, canonKV},
	{"anti", matSorted, canonKV},
	{"agg", matSorted, canonKV},
}

const matTopK = 12

// matLess orders rows (key asc, val asc); matLessTopK orders (key desc,
// val asc) — the matrix's two sort shapes. matNull is the most negative
// key, so numeric comparison reproduces NULL-first-asc / NULL-last-desc.
func matLess(a, b matRow) bool {
	if a.Key != b.Key {
		return a.Key < b.Key
	}
	return a.Val < b.Val
}

func matLessTopK(a, b matRow) bool {
	if a.Key != b.Key {
		return a.Key > b.Key
	}
	return a.Val < b.Val
}

// matBaselineRun computes one operator's reference rows through
// internal/baseline's Spark-shaped dataset operators.
func matBaselineRun(t *testing.T, op string, left, right []matRow) []matRow {
	t.Helper()
	baseline.Register(matRow{})
	ctx := baseline.NewContext(4)
	rec := func(rows []matRow) *baseline.Dataset {
		recs := make([]baseline.Record, len(rows))
		for i, r := range rows {
			recs[i] = r
		}
		return ctx.Parallelize(recs)
	}
	key := func(r baseline.Record) interface{} { return r.(matRow).Key }
	collect := func(d *baseline.Dataset, err error) []matRow {
		if err != nil {
			t.Fatalf("baseline %s: %v", op, err)
		}
		var rows []matRow
		for _, r := range d.Collect() {
			rows = append(rows, r.(matRow))
		}
		return rows
	}
	l := rec(left)
	switch op {
	case "orderby":
		return collect(l.SortBy(func(a, b baseline.Record) bool {
			return a.(matRow).Key < b.(matRow).Key
		}, 0), nil)
	case "topk":
		return collect(l.SortBy(func(a, b baseline.Record) bool {
			return matLessTopK(a.(matRow), b.(matRow))
		}, matTopK), nil)
	case "distinct":
		return collect(l.DistinctBy(key))
	case "window":
		return collect(l.Running(func(a, b baseline.Record) bool {
			return matLess(a.(matRow), b.(matRow))
		}, func(acc, next baseline.Record, first bool) baseline.Record {
			sum := next.(matRow).Val
			if !first {
				sum += acc.(matRow).Val
			}
			return matRow{Key: next.(matRow).Key, Val: sum}
		}), nil)
	case "semi":
		return collect(l.SemiJoin(rec(right), key, key))
	case "anti":
		return collect(l.AntiJoin(rec(right), key, key))
	case "agg":
		return collect(l.ReduceByKey(key, func(a, b baseline.Record) baseline.Record {
			return matRow{Key: a.(matRow).Key, Val: a.(matRow).Val + b.(matRow).Val}
		}))
	}
	t.Fatalf("unknown op %s", op)
	return nil
}

// matType registers the MatRow object type with its lambda methods:
// getKey maps matNull to the invalid Value (sort-NULL), getKeyRaw is the
// stored key for the hash-keyed operators, getVal the unique row index.
func matType(reg *object.Registry) *object.TypeInfo {
	ti := object.NewStruct("MatRow").
		AddField("key", object.KInt64).
		AddField("val", object.KInt64).
		MustBuild(reg)
	ti.Methods["getKey"] = object.Method{Name: "getKey", Ret: object.KInt64,
		Fn: func(r object.Ref) object.Value {
			k := object.GetI64(r, ti.Field("key"))
			if k == matNull {
				return object.Value{}
			}
			return object.Int64Value(k)
		}}
	ti.Methods["getKeyRaw"] = object.Method{Name: "getKeyRaw", Ret: object.KInt64,
		Fn: func(r object.Ref) object.Value {
			return object.Int64Value(object.GetI64(r, ti.Field("key")))
		}}
	ti.Methods["getVal"] = object.Method{Name: "getVal", Ret: object.KInt64,
		Fn: func(r object.Ref) object.Value {
			return object.Int64Value(object.GetI64(r, ti.Field("val")))
		}}
	return ti
}

func matFill(ti *object.TypeInfo, rows []matRow) func(a *object.Allocator, i int) (object.Ref, error) {
	return func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(ti)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, ti.Field("key"), rows[i].Key)
		object.SetI64(r, ti.Field("val"), rows[i].Val)
		return r, nil
	}
}

// matWrite builds one operator's computation graph over db.left (and
// db.right for the joins), writing to db.<out>.
func matWrite(op string, ti *object.TypeInfo, out string) *core.Write {
	scanL := core.NewScan("db", "left", "MatRow")
	keyAsc := core.SortKey{Term: func(e *lambda.Arg) lambda.Term {
		return lambda.FromMethod(e, "getKey")
	}, Kind: object.KInt64}
	keyDesc := keyAsc
	keyDesc.Desc = true
	valAsc := core.SortKey{Term: func(e *lambda.Arg) lambda.Term {
		return lambda.FromMethod(e, "getVal")
	}, Kind: object.KInt64}
	sumCombine := func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
		if !exists {
			return next, nil
		}
		return object.Int64Value(cur.AsInt64() + next.AsInt64()), nil
	}
	makeRow := func(a *object.Allocator, key, val int64) (object.Ref, error) {
		r, err := a.MakeObject(ti)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, ti.Field("key"), key)
		object.SetI64(r, ti.Field("val"), val)
		return r, nil
	}
	switch op {
	case "orderby":
		return core.NewWrite("db", out, &core.OrderBy{
			In: scanL, ArgType: "MatRow", Keys: []core.SortKey{keyAsc}})
	case "topk":
		return core.NewWrite("db", out, &core.OrderBy{
			In: scanL, ArgType: "MatRow", Keys: []core.SortKey{keyDesc, valAsc}, Limit: matTopK})
	case "distinct":
		return core.NewWrite("db", out, &core.Distinct{
			In: scanL, ArgType: "MatRow",
			Key: func(e *lambda.Arg) lambda.Term {
				return lambda.FromMethod(e, "getKeyRaw")
			},
			KeyKind: object.KInt64,
			Make: func(a *object.Allocator, key object.Value) (object.Ref, error) {
				return makeRow(a, key.AsInt64(), 0)
			}})
	case "window":
		return core.NewWrite("db", out, &core.Window{
			In: scanL, ArgType: "MatRow", Keys: []core.SortKey{keyAsc, valAsc},
			Val: func(e *lambda.Arg) lambda.Term {
				return lambda.FromMethod(e, "getVal")
			},
			ValKind: object.KInt64,
			Combine: sumCombine,
			Emit: func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error) {
				return makeRow(a, object.GetI64(obj, ti.Field("key")), running.AsInt64())
			}})
	case "semi", "anti":
		kind := core.JoinSemi
		if op == "anti" {
			kind = core.JoinAnti
		}
		return core.NewWrite("db", out, &core.Join{
			In:       []core.Computation{scanL, core.NewScan("db", "right", "MatRow")},
			ArgTypes: []string{"MatRow", "MatRow"},
			Kind:     kind,
			Predicate: func(args []*lambda.Arg) lambda.Term {
				return lambda.Eq(lambda.FromMethod(args[0], "getKeyRaw"), lambda.FromMethod(args[1], "getKeyRaw"))
			}})
	case "agg":
		return core.NewWrite("db", out, &core.Aggregate{
			In: scanL, ArgType: "MatRow",
			Key: func(e *lambda.Arg) lambda.Term {
				return lambda.FromMethod(e, "getKeyRaw")
			},
			Val: func(e *lambda.Arg) lambda.Term {
				return lambda.FromMethod(e, "getVal")
			},
			KeyKind: object.KInt64, ValKind: object.KInt64,
			Combine: sumCombine,
			Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
				return makeRow(a, key.AsInt64(), val.AsInt64())
			}})
	}
	panic("unknown op " + op)
}

func matReadPages(ti *object.TypeInfo, pages []*object.Page) []matRow {
	var rows []matRow
	for _, p := range pages {
		if p.Root() == 0 {
			continue
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			r := root.HandleAt(i)
			rows = append(rows, matRow{
				Key: object.GetI64(r, ti.Field("key")),
				Val: object.GetI64(r, ti.Field("val")),
			})
		}
	}
	return rows
}

// matCoreRun runs one operator on the single-process core.Executor at the
// given thread count.
func matCoreRun(t *testing.T, op string, threads int, left, right []matRow) []matRow {
	t.Helper()
	reg := object.NewRegistry()
	ti := matType(reg)
	store := core.NewMemStore()
	load := func(set string, rows []matRow) {
		pages, err := object.BuildPages(reg, 1<<13, len(rows), matFill(ti, rows))
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Append("db", set, pages); err != nil {
			t.Fatal(err)
		}
	}
	load("left", left)
	load("right", right)
	res, err := core.Compile(matWrite(op, ti, "out"))
	if err != nil {
		t.Fatalf("core %s: compile: %v", op, err)
	}
	opt, _, err := optimizer.Optimize(res.Prog)
	if err != nil {
		t.Fatalf("core %s: optimize: %v", op, err)
	}
	plan, err := physical.Build(opt)
	if err != nil {
		t.Fatalf("core %s: plan: %v\n%s", op, err, opt.Print())
	}
	res.Prog = opt
	ex := core.NewExecutor(store, reg, 1<<13, threads)
	if err := ex.Run(res, plan); err != nil {
		t.Fatalf("core %s (threads=%d): run: %v\n%s", op, threads, err, opt.Print())
	}
	pages, err := store.Pages("db", "out")
	if err != nil {
		return nil // operator produced no output pages: empty result
	}
	return matReadPages(ti, pages)
}

// matCell is one cluster grid point.
type matCell struct{ workers, threads int }

func matGrid() []matCell {
	var cells []matCell
	for _, w := range []int{1, 2, 4} {
		for _, th := range []int{1, 2, 8} {
			cells = append(cells, matCell{w, th})
		}
	}
	return cells
}

// matClusterRun boots a cluster on the given transport and grid cell, loads
// the corpus, and runs every operator, returning rows per op name.
func matClusterRun(t *testing.T, transport string, cell matCell, left, right []matRow) map[string][]matRow {
	t.Helper()
	rows, _ := matClusterRunAt(t, transport, cell, 0, left, right)
	return rows
}

// matClusterRunAt is matClusterRun with the deprecated, ignored
// Config.CheckpointInterval set to interval; it also returns the
// checkpoints the transport counted.
func matClusterRunAt(t *testing.T, transport string, cell matCell, interval int, left, right []matRow) (map[string][]matRow, int64) {
	t.Helper()
	c, err := New(Config{Workers: cell.workers, Threads: cell.threads,
		PageSize: 1 << 13, CheckpointInterval: interval, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := c.Catalog.Registry()
	ti := matType(reg)
	if err := c.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	load := func(set string, rows []matRow) {
		if err := c.CreateSet("db", set, "MatRow"); err != nil {
			t.Fatal(err)
		}
		pages, err := object.BuildPages(reg, 1<<13, len(rows), matFill(ti, rows))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendData("db", set, pages); err != nil {
			t.Fatal(err)
		}
	}
	load("left", left)
	load("right", right)
	out := map[string][]matRow{}
	for _, op := range matOps {
		set := "out_" + op.name
		if err := c.CreateSet("db", set, "MatRow"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(matWrite(op.name, ti, set)); err != nil {
			t.Fatalf("cluster %s (tr=%q w=%d t=%d): %v",
				op.name, transport, cell.workers, cell.threads, err)
		}
		var rows []matRow
		for _, w := range c.Workers {
			pages, err := w.Front.Store.Pages("db", set)
			if err != nil {
				continue
			}
			rows = append(rows, matReadPages(ti, pages)...)
		}
		out[op.name] = rows
	}
	return out, c.Transport.Stats().Checkpoints
}

// matCompare asserts got agrees with want under the op's contract.
func matCompare(t *testing.T, op matOp, label string, got, want []matRow) {
	t.Helper()
	g, w := op.canon(got), op.canon(want)
	if len(g) != len(w) {
		t.Errorf("%s %s: %d rows, want %d", label, op.name, len(g), len(w))
		return
	}
	switch op.contract {
	case matExact:
		for i := range g {
			if g[i] != w[i] {
				t.Errorf("%s %s: row %d = %q, want %q", label, op.name, i, g[i], w[i])
				return
			}
		}
	case matKeySeq:
		for i := range got {
			if got[i].Key != want[i].Key {
				t.Errorf("%s %s: key %d = %d, want %d", label, op.name, i, got[i].Key, want[i].Key)
				return
			}
		}
		fallthrough
	case matSorted:
		gs, ws := append([]string(nil), g...), append([]string(nil), w...)
		sort.Strings(gs)
		sort.Strings(ws)
		for i := range gs {
			if gs[i] != ws[i] {
				t.Errorf("%s %s: multiset differs at %d: %q vs %q", label, op.name, i, gs[i], ws[i])
				return
			}
		}
	}
}

var matCorpora = []string{"random", "null-heavy", "empty", "all-dup", "skew"}

// TestOperatorMatrixCore pins core.Executor against the baseline reference
// for every operator, corpus, and thread count.
func TestOperatorMatrixCore(t *testing.T) {
	for _, corpus := range matCorpora {
		left, right := matCorpus(corpus)
		for _, op := range matOps {
			want := matBaselineRun(t, op.name, left, right)
			for _, threads := range []int{1, 2, 8} {
				got := matCoreRun(t, op.name, threads, left, right)
				matCompare(t, op, fmt.Sprintf("core/%s/threads=%d", corpus, threads), got, want)
			}
		}
	}
}

// TestOperatorMatrixCluster pins the cluster against the baseline
// reference for every operator and corpus over the full Workers × Threads
// grid on the mem transport.
func TestOperatorMatrixCluster(t *testing.T) {
	for _, corpus := range matCorpora {
		corpus := corpus
		t.Run(corpus, func(t *testing.T) {
			left, right := matCorpus(corpus)
			want := map[string][]matRow{}
			for _, op := range matOps {
				want[op.name] = matBaselineRun(t, op.name, left, right)
			}
			for _, cell := range matGrid() {
				got := matClusterRun(t, "", cell, left, right)
				for _, op := range matOps {
					label := fmt.Sprintf("cluster/%s/w=%d,t=%d", corpus, cell.workers, cell.threads)
					matCompare(t, op, label, got[op.name], want[op.name])
				}
			}
		})
	}
}

// TestOperatorMatrixUnixTransport re-runs the matrix over the socket
// transport: the full grid on the random corpus (pages genuinely traverse
// a unix stream per hop), the diagonal cells on the degenerate corpora.
func TestOperatorMatrixUnixTransport(t *testing.T) {
	diag := []matCell{{1, 1}, {2, 2}, {4, 8}}
	for _, corpus := range matCorpora {
		corpus := corpus
		t.Run(corpus, func(t *testing.T) {
			left, right := matCorpus(corpus)
			want := map[string][]matRow{}
			for _, op := range matOps {
				want[op.name] = matBaselineRun(t, op.name, left, right)
			}
			cells := diag
			if corpus == "random" {
				cells = matGrid()
			}
			for _, cell := range cells {
				got := matClusterRun(t, "unix", cell, left, right)
				for _, op := range matOps {
					label := fmt.Sprintf("unix/%s/w=%d,t=%d", corpus, cell.workers, cell.threads)
					matCompare(t, op, label, got[op.name], want[op.name])
				}
			}
		})
	}
}

// TestOperatorMatrixCheckpointsOff is the ignored-setting rung: every
// operator at Workers {1,2} × Threads {1,2} with the deprecated
// CheckpointInterval set to -1 must produce the default cell's rows in the
// same order, and neither counts a checkpoint — no consumer takes one.
func TestOperatorMatrixCheckpointsOff(t *testing.T) {
	for _, corpus := range matCorpora {
		left, right := matCorpus(corpus)
		for _, cell := range []matCell{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
			want, onCuts := matClusterRunAt(t, "", cell, 0, left, right)
			got, offCuts := matClusterRunAt(t, "", cell, -1, left, right)
			label := fmt.Sprintf("off/%s/w=%d,t=%d", corpus, cell.workers, cell.threads)
			if onCuts != 0 || offCuts != 0 {
				t.Errorf("%s: %d and %d checkpoints counted, want none", label, onCuts, offCuts)
			}
			for _, op := range matOps {
				if g, w := canonKV(got[op.name]), canonKV(want[op.name]); !equalRows(g, w) {
					t.Errorf("%s %s: rows differ from the default cell (%d vs %d)", label, op.name, len(g), len(w))
				}
			}
		}
	}
}
