package core

import (
	"strings"
	"testing"

	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
)

func TestCompileRejectsBadGraphs(t *testing.T) {
	// Join with fewer than two inputs.
	j := &Join{In: []Computation{NewScan("db", "a", "T")}, ArgTypes: []string{"T"},
		Predicate:  func(args []*lambda.Arg) lambda.Term { return lambda.ConstF64(1) },
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) }}
	if _, err := Compile(NewWrite("db", "o", j)); err == nil {
		t.Error("join with one input should fail to compile")
	}

	// Join with mismatched arg types.
	j2 := &Join{In: []Computation{NewScan("db", "a", "T"), NewScan("db", "b", "T")},
		ArgTypes:   []string{"T"},
		Predicate:  func(args []*lambda.Arg) lambda.Term { return lambda.ConstF64(1) },
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) }}
	if _, err := Compile(NewWrite("db", "o", j2)); err == nil {
		t.Error("join with wrong ArgTypes arity should fail")
	}

	// Self-join of the same computation instance.
	scan := NewScan("db", "a", "T")
	j3 := &Join{In: []Computation{scan, scan}, ArgTypes: []string{"T", "T"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMember(args[0], "x"), lambda.FromMember(args[1], "x"))
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) }}
	if _, err := Compile(NewWrite("db", "o", j3)); err == nil ||
		!strings.Contains(err.Error(), "reuses the same computation") {
		t.Errorf("self-join of one instance should be rejected, got %v", err)
	}

	// Aggregate missing pieces.
	agg := &Aggregate{In: NewScan("db", "a", "T"), ArgType: "T"}
	if _, err := Compile(NewWrite("db", "o", agg)); err == nil {
		t.Error("aggregate without Key/Val/Combine/Finalize should fail")
	}

	// An aggregate states its algebra once: a Fold or a Combine, over a
	// value kind the fold is defined on.
	member := func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "x") }
	finalize := func(a *object.Allocator, k, v object.Value) (object.Ref, error) { return a.MakeRaw(8) }
	combine := func(_ *object.Allocator, cur object.Value, _ bool, _ object.Value) (object.Value, error) {
		return cur, nil
	}
	for what, bad := range map[string]*Aggregate{
		"neither a Combine nor a Fold":   {KeyKind: object.KInt64, ValKind: object.KInt64},
		"a Fold and a Combine beside it": {KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum, Combine: combine},
		"a Fold over handles":            {KeyKind: object.KInt64, ValKind: object.KHandle, Fold: object.FoldMax},
	} {
		bad.In, bad.ArgType, bad.Key, bad.Val, bad.Finalize = NewScan("db", "a", "T"), "T", member, member, finalize
		if _, err := Compile(NewWrite("db", "o", bad)); err == nil {
			t.Errorf("aggregate with %s should fail", what)
		}
	}
	good := &Aggregate{In: NewScan("db", "a", "T"), ArgType: "T", Key: member, Val: member, Finalize: finalize,
		KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	if _, err := Compile(NewWrite("db", "o", good)); err != nil {
		t.Errorf("aggregate declaring only a Fold: %v", err)
	}

	// MultiSelection without projection.
	ms := &MultiSelection{In: NewScan("db", "a", "T"), ArgType: "T"}
	if _, err := Compile(NewWrite("db", "o", ms)); err == nil {
		t.Error("multi-selection without projection should fail")
	}

	// Nil input.
	if _, err := Compile(NewWrite("db", "o", &Selection{In: nil, ArgType: "T"})); err == nil {
		t.Error("nil input should fail")
	}
}

func TestCrossJoinFallbackWithoutEquiKey(t *testing.T) {
	// No equi conjunct between the inputs: the compiler falls back to a
	// constant-key cross join, still filtered by the full predicate.
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 10)
	s.loadSupervisors(t, store, 4)

	join := &Join{
		In:       []Computation{NewScan("db", "emps", "Emp"), NewScan("db", "sups", "Sup")},
		ArgTypes: []string{"Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			// Pure inequality: not an equi-join key.
			return lambda.Gt(lambda.FromMethod(args[0], "getSalary"), lambda.ConstF64(5000))
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	runGraph(t, s, store, NewWrite("db", "cross", join))
	got := resultRefs(t, store, "db", "cross")
	// Employees 6..9 qualify (salary > 5000), each crossed with 4 sups.
	if len(got) != 4*4 {
		t.Fatalf("cross join rows = %d, want 16", len(got))
	}
}

func TestRuntimeErrorsSurfaceCleanly(t *testing.T) {
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 5)

	// Unknown member: compiles (the compiler cannot know every type's
	// layout) but fails at execution with a clear error.
	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Gt(lambda.FromMember(emp, "noSuchField"), lambda.ConstF64(0))
		},
	}
	res, err := Compile(NewWrite("db", "out", sel))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(store, s.reg, 1<<16, 2)
	if err := ex.Run(res, plan); err == nil || !strings.Contains(err.Error(), "noSuchField") {
		t.Errorf("expected member-not-found error, got %v", err)
	}

	// Unknown method likewise.
	sel2 := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Gt(lambda.FromMethod(emp, "noSuchMethod"), lambda.ConstF64(0))
		},
	}
	res2, err := Compile(NewWrite("db", "out2", sel2))
	if err != nil {
		t.Fatal(err)
	}
	plan2, _ := physical.Build(res2.Prog)
	if err := ex.Run(res2, plan2); err == nil || !strings.Contains(err.Error(), "noSuchMethod") {
		t.Errorf("expected method-not-found error, got %v", err)
	}
}

func TestPipelineSplitsOversizedBatches(t *testing.T) {
	// Tiny output pages force the engine to rotate and recursively split
	// batches (Appendix C's out-of-memory fault handling); results must
	// still be exact.
	s := newTestSchema()
	store := NewMemStore()
	s.loadEmployees(t, store, 300)

	sup := s.sup
	sel := &Selection{
		In:      NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("fatProjection", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					out, err := ctx.Alloc.MakeObject(sup)
					if err != nil {
						return object.Value{}, err
					}
					// A chunky string to fill pages fast.
					if err := object.SetStrField(ctx.Alloc, out, sup.Field("name"),
						strings.Repeat("x", 64)); err != nil {
						return object.Value{}, err
					}
					return object.HandleValue(out), nil
				}, lambda.FromSelf(arg))
		},
	}
	res, err := Compile(NewWrite("db", "fat", sel))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(store, s.reg, 4096, 2) // 4 KB pages
	if err := ex.Run(res, plan); err != nil {
		t.Fatal(err)
	}
	if got := len(resultRefs(t, store, "db", "fat")); got != 300 {
		t.Fatalf("result count = %d, want 300", got)
	}
	if ex.Stats.PagesSealed < 2 {
		t.Errorf("tiny pages should seal several (got %d)", ex.Stats.PagesSealed)
	}
	if ex.Stats.PageRetries == 0 {
		t.Error("expected page-full retries with 4KB pages")
	}
}
