package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// TestRebuildNativeApply pins how a native APPLY crosses the process
// boundary: printed TCAP carries only the native's name, and the receiving
// side resolves it through RegisterNativeFn. A registered native rebuilds
// into a kernel that computes the compiled one's column (here it decides a
// filter, so the selected rows show it); an unregistered name and a
// registration with the wrong argument count each fail Rebuild with their
// own error.
func TestRebuildNativeApply(t *testing.T) {
	bonus := func(_ *lambda.NativeCtx, args []object.Value) (object.Value, error) {
		return object.Float64Value(2*args[0].AsFloat64() + 1), nil
	}
	// compile builds "bonus(salary) > 40001" over 50 employees (salary
	// 1000·i, so i = 21…49 pass) with the native named name.
	compile := func(name string) (*testSchema, *CompileResult) {
		s := newTestSchema()
		sel := &Selection{
			In:      NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Gt(lambda.FromNative(name, object.KFloat64, bonus, lambda.FromMember(arg, "salary")),
					lambda.ConstF64(40001))
			},
			Projection: func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) },
		}
		res, err := Compile(NewWrite("db", "out", sel))
		if err != nil {
			t.Fatal(err)
		}
		return s, res
	}
	run := func(s *testSchema, res *CompileResult) []string {
		store := NewMemStore()
		s.loadEmployees(t, store, 50)
		plan, err := physical.Build(res.Prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := NewExecutor(store, s.reg, 1<<16, 2).Run(res, plan); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, r := range resultRefs(t, store, "db", "out") {
			names = append(names, object.GetStrField(r, s.emp.Field("name")))
		}
		return names
	}

	const registered = "rebuildTest.bonus"
	RegisterNativeFn(registered, bonus, 1)
	s, res := compile(registered)
	got, err := Rebuild(res.Prog.Print(), s.reg)
	if err != nil {
		t.Fatalf("rebuilding a registered native: %v", err)
	}
	want := run(s, res)
	if len(want) != 29 {
		t.Fatalf("compiled program selected %d rows, want 29", len(want))
	}
	if rebuilt := run(s, got); !reflect.DeepEqual(rebuilt, want) {
		t.Errorf("rebuilt native selected %v, compiled one %v", rebuilt, want)
	}

	s, res = compile("rebuildTest.neverRegistered")
	if _, err := Rebuild(res.Prog.Print(), s.reg); err == nil || !strings.Contains(err.Error(), "not registered on this side") {
		t.Errorf("unregistered native: err = %v, want \"not registered on this side\"", err)
	}

	const twoArgs = "rebuildTest.twoArgs"
	RegisterNativeFn(twoArgs, bonus, 2)
	s, res = compile(twoArgs)
	if _, err := Rebuild(res.Prog.Print(), s.reg); err == nil || !strings.Contains(err.Error(), "takes 2 args") {
		t.Errorf("native registered with 2 args, applied to 1: err = %v, want \"takes 2 args\"", err)
	}
}

// TestRebuildSortSpec pins how ORDER BY crosses the process boundary: the
// SORT statement's "desc" and "limit" Info rebuild the compiler's SortSpec
// exactly — per-key directions in any mix, with and without a top-k limit.
func TestRebuildSortSpec(t *testing.T) {
	salary := SortKey{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "salary") }, Kind: object.KFloat64}
	name := SortKey{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "name") }, Kind: object.KString}
	salaryDesc := salary
	salaryDesc.Desc = true
	for _, tc := range []struct {
		label string
		keys  []SortKey
		limit int
	}{
		{"one ascending key", []SortKey{name}, 0},
		{"descending then ascending", []SortKey{salaryDesc, name}, 0},
		{"ascending then descending, top-k", []SortKey{name, salaryDesc}, 7},
	} {
		s := newTestSchema()
		res, err := Compile(NewWrite("db", "out", &OrderBy{In: NewScan("db", "emps", "Emp"),
			ArgType: "Emp", Keys: tc.keys, Limit: tc.limit}))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Rebuild(res.Prog.Print(), s.reg)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if len(res.SortSpecs) != 1 || !reflect.DeepEqual(got.SortSpecs, res.SortSpecs) {
			t.Errorf("%s: rebuilt sort specs %+v, compiled %+v", tc.label, got.SortSpecs, res.SortSpecs)
		}
	}
}

// TestRebuildNamesUnshippableStatements pins the other half of the
// contract: a program whose statement cannot cross the process boundary —
// a window or DISTINCT (their functions are closures), a join, a
// method-call kernel, an anonymous aggregation — fails Rebuild with an
// error naming that statement.
func TestRebuildNamesUnshippableStatements(t *testing.T) {
	member := func(field string) func(*lambda.Arg) lambda.Term {
		return func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, field) }
	}
	emps := func() Computation { return NewScan("db", "emps", "Emp") }
	keep := func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
		return next, nil
	}
	for _, tc := range []struct {
		label string
		comp  Computation
		// unshippable picks the statement the error must name.
		unshippable func(*tcap.Stmt) bool
	}{
		{"window", &Window{In: emps(), ArgType: "Emp",
			Keys: []SortKey{{Term: member("name"), Kind: object.KString}},
			Val:  member("salary"), ValKind: object.KFloat64, Combine: keep,
			Emit: func(a *object.Allocator, obj object.Ref, _ object.Value) (object.Ref, error) { return obj, nil }},
			func(s *tcap.Stmt) bool { return s.Op == tcap.OpWindow }},
		{"distinct", &Distinct{In: emps(), ArgType: "Emp", Key: member("supervisor"), KeyKind: object.KString,
			Make: func(a *object.Allocator, key object.Value) (object.Ref, error) { return object.NilRef, nil }},
			func(s *tcap.Stmt) bool { return s.Op == tcap.OpDistinct }},
		{"join", &Join{In: []Computation{emps(), NewScan("db", "sups", "Sup")}, ArgTypes: []string{"Emp", "Sup"},
			Predicate: func(args []*lambda.Arg) lambda.Term {
				return lambda.Eq(lambda.FromMember(args[0], "supervisor"), lambda.FromMember(args[1], "name"))
			},
			Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) }},
			func(s *tcap.Stmt) bool { return s.Op == tcap.OpJoin }},
		{"method call", &Selection{In: emps(), ArgType: "Emp",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Gt(lambda.FromMethod(arg, "getSalary"), lambda.ConstF64(1))
			},
			Projection: func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) }},
			func(s *tcap.Stmt) bool { return s.Info["type"] == "methodCall" }},
		{"anonymous aggregation", &Aggregate{In: emps(), ArgType: "Emp",
			Key: member("supervisor"), Val: member("salary"), KeyKind: object.KString, ValKind: object.KFloat64,
			Combine:  keep,
			Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) { return object.NilRef, nil }},
			func(s *tcap.Stmt) bool { return s.Op == tcap.OpAggregate }},
	} {
		s := newTestSchema()
		res, err := Compile(NewWrite("db", "out", tc.comp))
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		var stmt *tcap.Stmt
		for _, st := range res.Prog.Stmts {
			if tc.unshippable(st) {
				stmt = st
			}
		}
		if stmt == nil {
			t.Fatalf("%s: compiled program has no such statement:\n%s", tc.label, res.Prog.Print())
		}
		_, err = Rebuild(res.Prog.Print(), s.reg)
		if want := fmt.Sprintf("%q", stmt.Out.Name); err == nil ||
			!strings.Contains(err.Error(), "not shippable") || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want \"not shippable\" naming statement %s", tc.label, err, want)
		}
	}
}
