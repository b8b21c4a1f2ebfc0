package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
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
