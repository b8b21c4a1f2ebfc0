package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// testSchema registers the Emp/Sup schema used across compiler/executor
// tests (the paper's §7 running example).
type testSchema struct {
	reg *object.Registry
	emp *object.TypeInfo
	sup *object.TypeInfo
}

func newTestSchema() *testSchema {
	reg := object.NewRegistry()
	s := &testSchema{reg: reg}
	s.sup = object.NewStruct("Sup").
		AddField("name", object.KString).
		AddField("dept", object.KString).
		MustBuild(reg)
	s.emp = object.NewStruct("Emp").
		AddField("name", object.KString).
		AddField("salary", object.KFloat64).
		AddField("supervisor", object.KString).
		MustBuild(reg)
	emp := s.emp
	emp.Methods["getSalary"] = object.Method{Name: "getSalary", Ret: object.KFloat64,
		Fn: func(r object.Ref) object.Value {
			return object.Float64Value(object.GetF64(r, emp.Field("salary")))
		}}
	emp.Methods["getSupervisor"] = object.Method{Name: "getSupervisor", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, emp.Field("supervisor")))
		}}
	return s
}

// loadSet fills a MemStore set with n objects built by fill.
func loadSet(t testing.TB, store *MemStore, reg *object.Registry, db, set string, n int,
	fill func(a *object.Allocator, i int) (object.Ref, error)) {
	t.Helper()
	const pageSize = 1 << 16
	newPage := func() (*object.Page, *object.Allocator, object.Vector) {
		p := object.NewPage(pageSize, reg)
		a := object.NewAllocator(p)
		root, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Retain()
		p.SetRoot(root.Off)
		return p, a, root
	}
	p, a, root := newPage()
	var pages []*object.Page
	for i := 0; i < n; i++ {
		r, err := fill(a, i)
		if errors.Is(err, object.ErrPageFull) {
			pages = append(pages, p)
			p, a, root = newPage()
			if r, err = fill(a, i); err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		if err := root.PushBackHandle(a, r); err != nil {
			t.Fatal(err)
		}
	}
	pages = append(pages, p)
	if err := store.Append(db, set, pages); err != nil {
		t.Fatal(err)
	}
}

func (s *testSchema) loadEmployees(t testing.TB, store *MemStore, n int) {
	emp := s.emp
	loadSet(t, store, s.reg, "db", "emps", n, func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		if err := object.SetStrField(a, e, emp.Field("name"), fmt.Sprintf("emp%d", i)); err != nil {
			return object.NilRef, err
		}
		object.SetF64(e, emp.Field("salary"), float64(i)*1000)
		if err := object.SetStrField(a, e, emp.Field("supervisor"), fmt.Sprintf("sup%d", i%10)); err != nil {
			return object.NilRef, err
		}
		return e, nil
	})
}

func (s *testSchema) loadSupervisors(t testing.TB, store *MemStore, n int) {
	sup := s.sup
	loadSet(t, store, s.reg, "db", "sups", n, func(a *object.Allocator, i int) (object.Ref, error) {
		sp, err := a.MakeObject(sup)
		if err != nil {
			return object.NilRef, err
		}
		if err := object.SetStrField(a, sp, sup.Field("name"), fmt.Sprintf("sup%d", i)); err != nil {
			return object.NilRef, err
		}
		if err := object.SetStrField(a, sp, sup.Field("dept"), fmt.Sprintf("dept%d", i%3)); err != nil {
			return object.NilRef, err
		}
		return sp, nil
	})
}

// resultRefs reads back all objects from a result set.
func resultRefs(t testing.TB, store *MemStore, db, set string) []object.Ref {
	t.Helper()
	pages, err := store.Pages(db, set)
	if err != nil {
		t.Fatal(err)
	}
	var out []object.Ref
	for _, p := range pages {
		if p.Root() == 0 {
			continue
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			out = append(out, root.HandleAt(i))
		}
	}
	return out
}

func runGraph(t testing.TB, s *testSchema, store *MemStore, writes ...*Write) *CompileResult {
	t.Helper()
	res, err := Compile(writes...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatalf("plan: %v\nTCAP:\n%s", err, res.Prog.Print())
	}
	ex := NewExecutor(store, s.reg, 1<<16, 4)
	if err := ex.Run(res, plan); err != nil {
		t.Fatalf("run: %v\nTCAP:\n%s\nPLAN:\n%s", err, res.Prog.Print(), plan.String())
	}
	return res
}

func TestCompileSelectionTCAPShape(t *testing.T) {
	// The paper §7 example: getSalary() > 50000 && getSalary() < 100000
	// compiles to two methodCall APPLYs (redundancy removed later by the
	// optimizer, not the compiler).
	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(50000)),
				lambda.Lt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(100000)),
			)
		},
	}
	res, err := Compile(NewWrite("db", "out", sel))
	if err != nil {
		t.Fatal(err)
	}
	text := res.Prog.Print()
	if got := strings.Count(text, "'methodCall'"); got != 2 {
		t.Errorf("methodCall APPLY count = %d, want 2 (pre-optimization)\n%s", got, text)
	}
	if got := strings.Count(text, "FILTER"); got != 1 {
		t.Errorf("FILTER count = %d, want 1\n%s", got, text)
	}
	if err := res.Prog.Validate(); err != nil {
		t.Errorf("invalid TCAP: %v", err)
	}
	// The printed program must round-trip through the parser.
	if _, err := tcap.Parse(text); err != nil {
		t.Errorf("printed TCAP does not re-parse: %v\n%s", err, text)
	}
}

func TestExecuteSelectionFilter(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 100)

	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Gt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(50000))
		},
	}
	runGraph(t, s, store, NewWrite("db", "rich", sel))

	got := resultRefs(t, store, "db", "rich")
	if len(got) != 49 { // salaries 51000..99000
		t.Fatalf("result count = %d, want 49", len(got))
	}
	for _, r := range got {
		if sal := object.GetF64(r, s.emp.Field("salary")); sal <= 50000 {
			t.Errorf("unfiltered salary %g", sal)
		}
	}
}

func TestExecuteSelectionWithNativeProjection(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 50)

	// Project each Emp into a fresh Sup-typed object whose name is the
	// employee's supervisor — exercising in-place allocation on output
	// pages via the native context.
	sup := s.sup
	emp := s.emp
	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("makeSup", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					e := args[0].H
					out, err := ctx.Alloc.MakeObject(sup)
					if err != nil {
						return object.Value{}, err
					}
					name := object.GetStrField(e, emp.Field("supervisor"))
					if err := object.SetStrField(ctx.Alloc, out, sup.Field("name"), name); err != nil {
						return object.Value{}, err
					}
					return object.HandleValue(out), nil
				},
				lambda.FromSelf(arg))
		},
	}
	runGraph(t, s, store, NewWrite("db", "projected", sel))

	got := resultRefs(t, store, "db", "projected")
	if len(got) != 50 {
		t.Fatalf("result count = %d, want 50", len(got))
	}
	for i, r := range got {
		if r.TypeCode() != sup.Code {
			t.Fatalf("result %d has type %d, want Sup", i, r.TypeCode())
		}
		if !strings.HasPrefix(object.GetStrField(r, sup.Field("name")), "sup") {
			t.Errorf("bad projected name %q", object.GetStrField(r, sup.Field("name")))
		}
	}
}

func TestExecuteTwoWayJoin(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 60)   // supervisors sup0..sup9
	s.loadSupervisors(t, store, 10) // sup0..sup9

	emp, sup := s.emp, s.sup
	join := &Join{
		In:       []Computation{NewScan("db", "emps", "Emp"), NewScan("db", "sups", "Sup")},
		ArgTypes: []string{"Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(args[0], "getSalary"), lambda.ConstF64(30000)),
				lambda.Eq(lambda.FromMethod(args[0], "getSupervisor"),
					lambda.FromMember(args[1], "name")),
			)
		},
		Projection: func(args []*lambda.Arg) lambda.Term {
			return lambda.FromNative("pairName", object.KHandle,
				func(ctx *lambda.NativeCtx, vals []object.Value) (object.Value, error) {
					out, err := ctx.Alloc.MakeObject(sup)
					if err != nil {
						return object.Value{}, err
					}
					n := object.GetStrField(vals[0].H, emp.Field("name")) + "/" +
						object.GetStrField(vals[1].H, sup.Field("name"))
					if err := object.SetStrField(ctx.Alloc, out, sup.Field("name"), n); err != nil {
						return object.Value{}, err
					}
					return object.HandleValue(out), nil
				},
				lambda.FromSelf(args[0]), lambda.FromSelf(args[1]))
		},
	}
	runGraph(t, s, store, NewWrite("db", "joined", join))

	got := resultRefs(t, store, "db", "joined")
	// Employees with salary > 30000: 31..59 => 29 rows, each matching
	// exactly one supervisor.
	if len(got) != 29 {
		t.Fatalf("join result count = %d, want 29", len(got))
	}
	for _, r := range got {
		name := object.GetStrField(r, sup.Field("name"))
		if !strings.Contains(name, "/sup") {
			t.Errorf("bad joined name %q", name)
		}
	}
}

func TestExecuteAggregate(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 100)

	emp := s.emp
	// Sum salaries per supervisor (string key, float64 value).
	agg := &Aggregate{
		In:      NewScan("db", "emps", "Emp"),
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
	runGraph(t, s, store, NewWrite("db", "bysup", agg))

	got := resultRefs(t, store, "db", "bysup")
	if len(got) != 10 {
		t.Fatalf("aggregate groups = %d, want 10", len(got))
	}
	total := 0.0
	for _, r := range got {
		total += object.GetF64(r, s.emp.Field("salary"))
	}
	want := 0.0
	for i := 0; i < 100; i++ {
		want += float64(i) * 1000
	}
	if total != want {
		t.Errorf("sum of sums = %g, want %g", total, want)
	}
}

func TestExecuteMultiSelection(t *testing.T) {
	reg := object.NewRegistry()
	order := object.NewStruct("Order").
		AddField("items", object.KHandle). // Vector<int64> of part ids
		MustBuild(reg)
	part := object.NewStruct("PartRef").
		AddField("id", object.KInt64).
		MustBuild(reg)
	s := &testSchema{reg: reg}

	store := NewMemStore()
	loadSet(t, store, reg, "db", "orders", 20, func(a *object.Allocator, i int) (object.Ref, error) {
		o, err := a.MakeObject(order)
		if err != nil {
			return object.NilRef, err
		}
		// Order i has i%4 items: each item j is a PartRef object.
		items, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			return object.NilRef, err
		}
		for j := 0; j < i%4; j++ {
			pr, err := a.MakeObject(part)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(pr, part.Field("id"), int64(i*100+j))
			if err := items.PushBackHandle(a, pr); err != nil {
				return object.NilRef, err
			}
		}
		if err := object.SetHandleField(a, o, order.Field("items"), items.Ref); err != nil {
			return object.NilRef, err
		}
		return o, nil
	})

	msel := &MultiSelection{
		In:      NewScan("db", "orders", "Order"),
		ArgType: "Order",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromMember(arg, "items")
		},
	}
	runGraph(t, s, store, NewWrite("db", "flat", msel))

	got := resultRefs(t, store, "db", "flat")
	want := 0
	for i := 0; i < 20; i++ {
		want += i % 4
	}
	if len(got) != want {
		t.Fatalf("flattened count = %d, want %d", len(got), want)
	}
	for _, r := range got {
		if r.TypeCode() != part.Code {
			t.Fatalf("flattened element has wrong type %d", r.TypeCode())
		}
	}
}

func TestExecuteThreeWayJoinFromPaper(t *testing.T) {
	// The §4 Dep/Emp/Sup three-way join on department name.
	reg := object.NewRegistry()
	dep := object.NewStruct("Dep").AddField("deptName", object.KString).MustBuild(reg)
	emp := object.NewStruct("Emp2").
		AddField("deptName", object.KString).
		AddField("id", object.KInt64).
		MustBuild(reg)
	sup := object.NewStruct("Sup2").
		AddField("dept", object.KString).
		AddField("id", object.KInt64).
		MustBuild(reg)
	emp.Methods["getDeptName"] = object.Method{Name: "getDeptName", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, emp.Field("deptName")))
		}}
	sup.Methods["getDept"] = object.Method{Name: "getDept", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, sup.Field("dept")))
		}}
	s := &testSchema{reg: reg}
	store := NewMemStore()
	deptName := func(i int) string { return fmt.Sprintf("d%d", i) }
	loadSet(t, store, reg, "db", "deps", 4, func(a *object.Allocator, i int) (object.Ref, error) {
		d, err := a.MakeObject(dep)
		if err != nil {
			return object.NilRef, err
		}
		return d, object.SetStrField(a, d, dep.Field("deptName"), deptName(i))
	})
	loadSet(t, store, reg, "db", "emps2", 12, func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(e, emp.Field("id"), int64(i))
		return e, object.SetStrField(a, e, emp.Field("deptName"), deptName(i%4))
	})
	loadSet(t, store, reg, "db", "sups2", 8, func(a *object.Allocator, i int) (object.Ref, error) {
		sp, err := a.MakeObject(sup)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(sp, sup.Field("id"), int64(i))
		return sp, object.SetStrField(a, sp, sup.Field("dept"), deptName(i%4))
	})

	join := &Join{
		In: []Computation{
			NewScan("db", "deps", "Dep"),
			NewScan("db", "emps2", "Emp2"),
			NewScan("db", "sups2", "Sup2"),
		},
		ArgTypes: []string{"Dep", "Emp2", "Sup2"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Eq(lambda.FromMember(args[0], "deptName"),
					lambda.FromMethod(args[1], "getDeptName")),
				lambda.Eq(lambda.FromMember(args[0], "deptName"),
					lambda.FromMethod(args[2], "getDept")),
			)
		},
		Projection: func(args []*lambda.Arg) lambda.Term {
			return lambda.FromSelf(args[0]) // keep the Dep object
		},
	}
	runGraph(t, s, store, NewWrite("db", "threeway", join))

	got := resultRefs(t, store, "db", "threeway")
	// Per dept: 3 emps × 2 sups = 6 combinations; 4 depts => 24 rows.
	if len(got) != 24 {
		t.Fatalf("three-way join rows = %d, want 24", len(got))
	}
}

func TestPlanShapesForJoin(t *testing.T) {
	s := newTestSchema()
	_ = s
	join := &Join{
		In:       []Computation{NewScan("db", "emps", "Emp"), NewScan("db", "sups", "Sup")},
		ArgTypes: []string{"Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMethod(args[0], "getSupervisor"),
				lambda.FromMember(args[1], "name"))
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	res, err := Compile(NewWrite("db", "out", join))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	// Expect exactly two pipelines: the build side and the probe side.
	var builds, probes int
	for _, st := range plan.Stages {
		switch st.Sink {
		case physical.SinkJoinBuild:
			builds++
		case physical.SinkOutput:
			probes++
		}
	}
	if builds != 1 || probes != 1 {
		t.Errorf("plan has %d build and %d output pipelines, want 1/1:\n%s", builds, probes, plan.String())
	}
	// The probe stage must depend on the build stage's table.
	for _, st := range plan.Stages {
		if st.Sink == physical.SinkOutput {
			found := false
			for _, d := range st.DependsOn {
				if strings.HasPrefix(d, "table:") {
					found = true
				}
			}
			if !found {
				t.Error("probe pipeline does not depend on the join table")
			}
		}
	}
}

func TestEngineStatsAccumulate(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 1000)
	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Gt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(-1))
		},
	}
	res, err := Compile(NewWrite("db", "all", sel))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(store, s.reg, 1<<16, 4)
	if err := ex.Run(res, plan); err != nil {
		t.Fatal(err)
	}
	if ex.Stats.Rows < 1000 {
		t.Errorf("stats rows = %d, want >= 1000", ex.Stats.Rows)
	}
	if ex.Stats.Batches < 1000/engine.BatchSize {
		t.Errorf("stats batches = %d too low", ex.Stats.Batches)
	}
}
