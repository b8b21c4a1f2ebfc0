package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// fixture builds the Emp/Sup schema and data used by the §7 examples.
type fixture struct {
	reg      *object.Registry
	emp, sup *object.TypeInfo
	store    *core.MemStore
}

func newFixture(t testing.TB, nEmp, nSup int) *fixture {
	t.Helper()
	reg := object.NewRegistry()
	fx := &fixture{reg: reg, store: core.NewMemStore()}
	fx.sup = object.NewStruct("Sup").
		AddField("name", object.KString).
		MustBuild(reg)
	fx.emp = object.NewStruct("Emp").
		AddField("name", object.KString).
		AddField("salary", object.KFloat64).
		AddField("supervisor", object.KString).
		MustBuild(reg)
	emp := fx.emp
	emp.Methods["getSalary"] = object.Method{Name: "getSalary", Ret: object.KFloat64,
		Fn: func(r object.Ref) object.Value {
			return object.Float64Value(object.GetF64(r, emp.Field("salary")))
		}}
	emp.Methods["getSupervisor"] = object.Method{Name: "getSupervisor", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, emp.Field("supervisor")))
		}}

	load := func(db, set string, n int, fill func(a *object.Allocator, i int) (object.Ref, error)) {
		p := object.NewPage(1<<18, reg)
		a := object.NewAllocator(p)
		root, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Retain()
		p.SetRoot(root.Off)
		for i := 0; i < n; i++ {
			r, err := fill(a, i)
			if err != nil {
				t.Fatal(err)
			}
			if err := root.PushBackHandle(a, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := fx.store.Append(db, set, []*object.Page{p}); err != nil {
			t.Fatal(err)
		}
	}
	load("db", "emps", nEmp, func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		if err := object.SetStrField(a, e, emp.Field("name"), fmt.Sprintf("e%d", i)); err != nil {
			return object.NilRef, err
		}
		object.SetF64(e, emp.Field("salary"), float64(i)*1000)
		return e, object.SetStrField(a, e, emp.Field("supervisor"), fmt.Sprintf("s%d", i%7))
	})
	load("db", "sups", nSup, func(a *object.Allocator, i int) (object.Ref, error) {
		sp, err := a.MakeObject(fx.sup)
		if err != nil {
			return object.NilRef, err
		}
		return sp, object.SetStrField(a, sp, fx.sup.Field("name"), fmt.Sprintf("s%d", i))
	})
	return fx
}

// run executes a program (optimized or not) and returns sorted result names.
func (fx *fixture) run(t testing.TB, res *core.CompileResult, prog *tcap.Program, outSet string) []string {
	t.Helper()
	plan, err := physical.Build(prog)
	if err != nil {
		t.Fatalf("plan: %v\n%s", err, prog.Print())
	}
	store := core.NewMemStore()
	for k, v := range fx.store.Sets {
		store.Sets[k] = v
	}
	ex := core.NewExecutor(store, fx.reg, 1<<18, 4)
	resCopy := *res
	resCopy.Prog = prog
	if err := ex.Run(&resCopy, plan); err != nil {
		t.Fatalf("run: %v\n%s\n%s", err, prog.Print(), plan.String())
	}
	pages, err := store.Pages("db", outSet)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range pages {
		if p.Root() == 0 {
			continue
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			r := root.HandleAt(i)
			ti := fx.reg.Lookup(r.TypeCode())
			names = append(names, object.GetStrField(r, ti.Field("name")))
		}
	}
	sort.Strings(names)
	return names
}

// section7Selection is the paper's redundant-method-call example.
func section7Selection() *core.Write {
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(5000)),
				lambda.Lt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(50000)),
			)
		},
	}
	return core.NewWrite("db", "out", sel)
}

func TestSection7RedundantMethodCallRemoved(t *testing.T) {
	res, err := core.Compile(section7Selection())
	if err != nil {
		t.Fatal(err)
	}
	before := strings.Count(res.Prog.Print(), "'methodCall'")
	if before != 2 {
		t.Fatalf("pre-optimization methodCall count = %d, want 2", before)
	}
	opt, st, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	after := strings.Count(opt.Print(), "'methodCall'")
	if after != 1 {
		t.Errorf("post-optimization methodCall count = %d, want 1\n%s", after, opt.Print())
	}
	if st.RedundantApplies != 1 {
		t.Errorf("RedundantApplies = %d, want 1", st.RedundantApplies)
	}
}

func TestSection7RedundantRemovalPreservesSemantics(t *testing.T) {
	fx := newFixture(t, 100, 7)
	res, err := core.Compile(section7Selection())
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	plain := fx.run(t, res, res.Prog, "out")
	optimized := fx.run(t, res, opt, "out")
	if len(plain) == 0 {
		t.Fatal("empty baseline result")
	}
	if strings.Join(plain, ",") != strings.Join(optimized, ",") {
		t.Errorf("optimization changed results:\nplain: %v\nopt:   %v", plain, optimized)
	}
}

// section7Join is the paper's filter-pushdown example: join on
// emp.getSupervisor() == sup.name with an emp-only salary conjunct.
func section7Join(emp *object.TypeInfo) *core.Write {
	join := &core.Join{
		In:       []core.Computation{core.NewScan("db", "emps", "Emp"), core.NewScan("db", "sups", "Sup")},
		ArgTypes: []string{"Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(args[0], "getSalary"), lambda.ConstF64(50000)),
				lambda.Eq(lambda.FromMethod(args[0], "getSupervisor"),
					lambda.FromMember(args[1], "name")),
			)
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	return core.NewWrite("db", "joined", join)
}

func TestSection7FilterPushedBelowJoin(t *testing.T) {
	fx := newFixture(t, 100, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.FiltersPushed != 1 {
		t.Fatalf("FiltersPushed = %d, want 1\n%s", st.FiltersPushed, opt.Print())
	}
	// In the optimized program a FILTER must appear before the JOIN.
	joinIdx, filterIdx := -1, -1
	for i, s := range opt.Stmts {
		if s.Op == tcap.OpJoin && joinIdx == -1 {
			joinIdx = i
		}
		if s.Op == tcap.OpFilter && s.Info["type"] == "pushed_filter" {
			filterIdx = i
		}
	}
	if filterIdx == -1 || joinIdx == -1 || filterIdx > joinIdx {
		t.Errorf("pushed filter at %d, join at %d; want filter first\n%s", filterIdx, joinIdx, opt.Print())
	}
}

func TestSection7PushdownPreservesSemantics(t *testing.T) {
	fx := newFixture(t, 120, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	plain := fx.run(t, res, res.Prog, "joined")
	optimized := fx.run(t, res, opt, "joined")
	if len(plain) == 0 {
		t.Fatal("empty baseline result — fixture too small")
	}
	if strings.Join(plain, ",") != strings.Join(optimized, ",") {
		t.Errorf("pushdown changed results:\nplain: %v\nopt:   %v", plain, optimized)
	}
}

func TestPushdownShrinksJoinTable(t *testing.T) {
	// The point of the rule: fewer rows reach the join. Execute both
	// programs and compare row counters.
	fx := newFixture(t, 200, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	rows := func(prog *tcap.Program) int {
		plan, err := physical.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		store := core.NewMemStore()
		for k, v := range fx.store.Sets {
			store.Sets[k] = v
		}
		ex := core.NewExecutor(store, fx.reg, 1<<18, 4)
		resCopy := *res
		resCopy.Prog = prog
		if err := ex.Run(&resCopy, plan); err != nil {
			t.Fatal(err)
		}
		return ex.Stats.JoinProbeRows
	}
	plain := rows(res.Prog)
	optimized := rows(opt)
	if optimized >= plain {
		t.Errorf("optimized join probed %d rows, plain %d; pushdown should reduce work", optimized, plain)
	}
}

func TestDeadColumnElimination(t *testing.T) {
	res, err := core.Compile(section7Selection())
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.ColumnsDropped == 0 {
		t.Errorf("expected some dead columns to be dropped\n%s", opt.Print())
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("invalid after dead-column elimination: %v", err)
	}
}

func TestOptimizeIsIdempotent(t *testing.T) {
	fx := newFixture(t, 10, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt1, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	opt2, st2, err := Optimize(opt1)
	if err != nil {
		t.Fatal(err)
	}
	if st2.RedundantApplies != 0 || st2.FiltersPushed != 0 {
		t.Errorf("second optimization pass fired rules: %+v", st2)
	}
	if opt2.Print() == "" {
		t.Error("second pass produced empty program")
	}
}

func TestOptimizedProgramRoundTrips(t *testing.T) {
	fx := newFixture(t, 10, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tcap.Parse(opt.Print()); err != nil {
		t.Errorf("optimized program does not re-parse: %v\n%s", err, opt.Print())
	}
}

func TestOptimizeAggregationGraph(t *testing.T) {
	// Aggregations must pass through the optimizer unharmed.
	fx := newFixture(t, 50, 7)
	emp := fx.emp
	agg := &core.Aggregate{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Key: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromMethod(arg, "getSupervisor")
		},
		Val: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromMethod(arg, "getSalary")
		},
		KeyKind: object.KString,
		ValKind: object.KFloat64,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Float64Value(cur.F + next.F), nil
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			out, err := a.MakeObject(emp)
			if err != nil {
				return object.NilRef, err
			}
			if err := object.SetStrField(a, out, emp.Field("name"), key.Str()); err != nil {
				return object.NilRef, err
			}
			object.SetF64(out, emp.Field("salary"), val.F)
			return out, nil
		},
	}
	res, err := core.Compile(core.NewWrite("db", "agg", agg))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	got := fx.run(t, res, opt, "agg")
	if len(got) != 7 {
		t.Errorf("aggregation groups after optimize = %d, want 7", len(got))
	}
	_ = engine.BatchSize
}
