package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
)

// runGraphThreads is runGraph with an explicit executor-thread budget.
func runGraphThreads(t testing.TB, s *testSchema, store *MemStore, threads int, writes ...*Write) {
	t.Helper()
	res, err := Compile(writes...)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(store, s.reg, 1<<16, 4)
	ex.Threads = threads
	if err := ex.Run(res, plan); err != nil {
		t.Fatalf("threads=%d: %v", threads, err)
	}
}

// TestExecutorThreadsDeterministicSelection asserts the single-process
// executor's parallel pipeline produces byte-identical rows in identical
// ORDER at every thread count — the same contract the cluster's
// threads_test enforces, now on the shared engine driver.
func TestExecutorThreadsDeterministicSelection(t *testing.T) {
	var want []string
	for _, th := range []int{1, 2, 8} {
		s := newTestSchema()
		store := NewMemStore()
		s.loadEmployees(t, store, 500)
		sel := &Selection{
			In:      NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Gt(lambda.FromMethod(arg, "getSalary"), lambda.ConstF64(100000))
			},
			Projection: func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) },
		}
		runGraphThreads(t, s, store, th, NewWrite("db", "out", sel))
		var rows []string
		for _, r := range resultRefs(t, store, "db", "out") {
			rows = append(rows, fmt.Sprintf("%s|%v",
				object.GetStrField(r, s.emp.Field("name")),
				object.GetF64(r, s.emp.Field("salary"))))
		}
		if len(rows) == 0 {
			t.Fatalf("threads=%d: empty result", th)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: selection rows (or their order) differ from threads=1", th)
		}
	}
}

// TestExecutorThreadsDeterministicAggregation asserts the executor's
// parallel pre-aggregation, hash-range-parallel merge, and parallel
// finalization produce the identical group multiset at every thread count
// (integer-exact salaries make the sums bit-identical) — for a scalar sum
// and for a handle-valued accumulator object, whose partial aggregates the
// merge deep-copies off the pre-aggregated pages.
func TestExecutorThreadsDeterministicAggregation(t *testing.T) {
	for _, valKind := range []object.Kind{object.KFloat64, object.KHandle} {
		var want []string
		for _, th := range []int{1, 2, 4, 8} {
			s := newTestSchema()
			store := NewMemStore()
			s.loadEmployees(t, store, 700)
			emp := s.emp
			acc := object.NewStruct("SalAcc").AddField("sum", object.KFloat64).AddField("cnt", object.KInt64).MustBuild(s.reg)
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
			}
			sumOf := func(val object.Value) (float64, int64) { return val.F, 0 }
			if valKind == object.KHandle {
				// The value is the Emp itself; an Emp folds in as (salary, 1),
				// a partial SalAcc from another page as itself.
				agg.Val = func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) }
				agg.ValKind = object.KHandle
				sumOf = func(val object.Value) (float64, int64) {
					if val.H.TypeCode() == emp.Code {
						return object.GetF64(val.H, emp.Field("salary")), 1
					}
					return object.GetF64(val.H, acc.Field("sum")), object.GetI64(val.H, acc.Field("cnt"))
				}
				agg.Combine = func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
					if !exists && next.H.TypeCode() == acc.Code {
						return next, nil
					}
					if !exists {
						r, err := a.MakeObject(acc)
						if err != nil {
							return object.Value{}, err
						}
						cur = object.HandleValue(r)
					}
					sum, cnt := sumOf(cur)
					nSum, nCnt := sumOf(next)
					object.SetF64(cur.H, acc.Field("sum"), sum+nSum)
					object.SetI64(cur.H, acc.Field("cnt"), cnt+nCnt)
					return cur, nil
				}
			}
			agg.Finalize = func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
				out, err := a.MakeObject(emp)
				if err != nil {
					return object.NilRef, err
				}
				sum, cnt := sumOf(val)
				if err := object.SetStrField(a, out, emp.Field("name"), fmt.Sprintf("%s#%d", key.Str(), cnt)); err != nil {
					return object.NilRef, err
				}
				object.SetF64(out, emp.Field("salary"), sum)
				return out, nil
			}
			runGraphThreads(t, s, store, th, NewWrite("db", "bysup", agg))
			var rows []string
			for _, r := range resultRefs(t, store, "db", "bysup") {
				rows = append(rows, fmt.Sprintf("%s|%v",
					object.GetStrField(r, emp.Field("name")),
					object.GetF64(r, emp.Field("salary"))))
			}
			if len(rows) != 10 {
				t.Fatalf("%v threads=%d: %d groups, want 10", valKind, th, len(rows))
			}
			sort.Strings(rows)
			if want == nil {
				want = rows
				continue
			}
			if !reflect.DeepEqual(rows, want) {
				t.Errorf("%v threads=%d: aggregation differs from threads=1:\n%v\nvs\n%v", valKind, th, rows, want)
			}
		}
		for _, row := range want {
			if valKind == object.KHandle && !strings.Contains(row, "#70|") {
				t.Errorf("accumulator group %s does not count its 70 rows", row)
			}
		}
	}
}

// TestExecutorThreadsDeterministicJoin asserts the executor's parallel
// join-build (bucket-wise merged tables) and parallel probe pipelines
// produce byte-identical join rows in identical order at every thread
// count.
func TestExecutorThreadsDeterministicJoin(t *testing.T) {
	var want []string
	for _, th := range []int{1, 2, 8} {
		s := newTestSchema()
		store := NewMemStore()
		s.loadEmployees(t, store, 300)
		s.loadSupervisors(t, store, 10)
		emp, sup := s.emp, s.sup
		join := &Join{
			In:       []Computation{NewScan("db", "emps", "Emp"), NewScan("db", "sups", "Sup")},
			ArgTypes: []string{"Emp", "Sup"},
			Predicate: func(args []*lambda.Arg) lambda.Term {
				return lambda.Eq(lambda.FromMethod(args[0], "getSupervisor"),
					lambda.FromMember(args[1], "name"))
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
		runGraphThreads(t, s, store, th, NewWrite("db", "joined", join))
		var rows []string
		for _, r := range resultRefs(t, store, "db", "joined") {
			rows = append(rows, object.GetStrField(r, sup.Field("name")))
		}
		if len(rows) != 300 {
			t.Fatalf("threads=%d: join rows = %d, want 300", th, len(rows))
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: join rows (or their order) differ from threads=1", th)
		}
	}
}
