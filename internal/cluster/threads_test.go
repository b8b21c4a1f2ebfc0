package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// threadCounts is the intra-worker parallelism matrix every determinism
// test runs: sequential, the common small config, and oversubscribed.
var threadCounts = []int{1, 2, 8}

// threadedCluster is testCluster with an explicit executor-thread budget.
func threadedCluster(t testing.TB, n, threads int) (*Cluster, *object.TypeInfo) {
	t.Helper()
	c, err := New(Config{Workers: 4, Threads: threads, PageSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Catalog.Registry()
	emp := object.NewStruct("Emp").
		AddField("name", object.KString).
		AddField("salary", object.KFloat64).
		AddField("dept", object.KString).
		MustBuild(reg)
	emp.Methods["getSalary"] = object.Method{Name: "getSalary", Ret: object.KFloat64,
		Fn: func(r object.Ref) object.Value {
			return object.Float64Value(object.GetF64(r, emp.Field("salary")))
		}}
	emp.Methods["getDept"] = object.Method{Name: "getDept", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, emp.Field("dept")))
		}}
	if err := c.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSet("db", "emps", "Emp"); err != nil {
		t.Fatal(err)
	}
	loadEmps(t, c, emp, "db", "emps", n)
	return c, emp
}

// scanEmpRows reads every Emp of a set, serialized one row per string, in
// storage scan order.
func scanEmpRows(t testing.TB, c *Cluster, emp *object.TypeInfo, db, set string) []string {
	t.Helper()
	var rows []string
	err := c.ScanSet(db, set, func(r object.Ref) bool {
		rows = append(rows, fmt.Sprintf("%s|%v|%s",
			object.GetStrField(r, emp.Field("name")),
			object.GetF64(r, emp.Field("salary")),
			object.GetStrField(r, emp.Field("dept"))))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestThreadsDeterministicSelection asserts a filtered identity projection
// produces byte-identical rows in byte-identical ORDER at every thread
// count: contiguous chunk splitting plus thread-ordered page concatenation
// preserves the sequential materialization order exactly.
func TestThreadsDeterministicSelection(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, emp := threadedCluster(t, 1000, th)
		sel := &core.Selection{
			In:      core.NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Gt(lambda.FromMember(arg, "salary"), lambda.ConstF64(25000))
			},
			Projection: func(arg *lambda.Arg) lambda.Term { return lambda.FromSelf(arg) },
		}
		if err := c.CreateSet("db", "out", "Emp"); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Execute(core.NewWrite("db", "out", sel))
		if err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
		if stats.Threads != th {
			t.Errorf("ExecStats.Threads = %d, want %d", stats.Threads, th)
		}
		rows := scanEmpRows(t, c, emp, "db", "out")
		if len(rows) == 0 {
			t.Fatalf("threads=%d: empty result", th)
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: selection rows (or their order) differ from threads=%d", th, threadCounts[0])
		}
	}
}

// TestThreadsDeterministicAggregation asserts the dept->sum(salary)
// aggregation is byte-identical across thread counts. Salaries are exact
// integers in float64, so the per-thread partial sums merge associatively
// with no rounding drift.
func TestThreadsDeterministicAggregation(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, emp := threadedCluster(t, 1500, th)
		agg := &core.Aggregate{
			In:      core.NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Key: func(arg *lambda.Arg) lambda.Term {
				return lambda.FromMethod(arg, "getDept")
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
				if err := object.SetStrField(a, out, emp.Field("dept"), key.Str()); err != nil {
					return object.NilRef, err
				}
				object.SetF64(out, emp.Field("salary"), val.F)
				return out, nil
			},
		}
		if err := c.CreateSet("db", "sums", "Emp"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(core.NewWrite("db", "sums", agg)); err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
		rows := scanEmpRows(t, c, emp, "db", "sums")
		if len(rows) != 5 {
			t.Fatalf("threads=%d: %d groups, want 5", th, len(rows))
		}
		// Aggregates are sets: canonicalize by sorting (map iteration
		// order may differ), then demand byte equality.
		sort.Strings(rows)
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: aggregation differs from threads=%d:\n%v\nvs\n%v", th, threadCounts[0], rows, want)
		}
	}
}

// TestThreadsDeterministicHandleKeyedAggregation aggregates under a
// handle-valued key (a per-row allocated key object with registered
// Hash/Equal). Partitioning must follow the logical key, not the key
// object's page offset — offsets change on every deep copy between thread
// sinks and across the shuffle, and offset-partitioned maps would split one
// group across consuming workers.
func TestThreadsDeterministicHandleKeyedAggregation(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, emp := threadedCluster(t, 1200, th)
		reg := c.Catalog.Registry()
		keyTi := reg.LookupName("AggKey")
		if keyTi == nil {
			keyTi = object.NewStruct("AggKey").AddField("id", object.KInt64).MustBuild(reg)
		}
		keyTi.Hash = func(r object.Ref) uint64 {
			return object.HashValue(object.Int64Value(object.GetI64(r, keyTi.Field("id"))))
		}
		keyTi.Equal = func(a, b object.Ref) bool {
			return object.GetI64(a, keyTi.Field("id")) == object.GetI64(b, keyTi.Field("id"))
		}
		agg := &core.Aggregate{
			In:      core.NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Key: func(arg *lambda.Arg) lambda.Term {
				return lambda.FromNative("mkKey", object.KHandle,
					func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
						k, err := ctx.Alloc.MakeObject(keyTi)
						if err != nil {
							return object.Value{}, err
						}
						// Group id from the dept suffix ("d3" -> 3).
						d := object.GetStrField(args[0].H, empDeptField(emp))
						object.SetI64(k, keyTi.Field("id"), int64(d[1]-'0'))
						return object.HandleValue(k), nil
					},
					lambda.FromSelf(arg))
			},
			Val: func(arg *lambda.Arg) lambda.Term {
				return lambda.FromMethod(arg, "getSalary")
			},
			KeyKind: object.KHandle,
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
				id := object.GetI64(key.H, keyTi.Field("id"))
				if err := object.SetStrField(a, out, emp.Field("dept"), fmt.Sprintf("k%d", id)); err != nil {
					return object.NilRef, err
				}
				object.SetF64(out, emp.Field("salary"), val.F)
				return out, nil
			},
		}
		if err := c.CreateSet("db", "hsums", "Emp"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(core.NewWrite("db", "hsums", agg)); err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
		rows := scanEmpRows(t, c, emp, "db", "hsums")
		if len(rows) != 5 {
			t.Fatalf("threads=%d: %d groups, want 5 (offset-partitioned keys split groups)", th, len(rows))
		}
		sort.Strings(rows)
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: handle-keyed aggregation differs:\n%v\nvs\n%v", th, rows, want)
		}
	}
}

func empDeptField(emp *object.TypeInfo) *object.Field { return emp.Field("dept") }

// TestThreadsDeterministicJoin asserts a broadcast equi-join (parallel
// build-table merge plus parallel probe) is byte-identical across thread
// counts, in row order.
func TestThreadsDeterministicJoin(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, emp := threadedCluster(t, 600, th)
		// A small "reps" set: one representative employee per dept.
		if err := c.CreateSet("db", "reps", "Emp"); err != nil {
			t.Fatal(err)
		}
		loadEmps(t, c, emp, "db", "reps", 5) // e0..e4 land in depts d0..d4
		join := &core.Join{
			In:       []core.Computation{core.NewScan("db", "emps", "Emp"), core.NewScan("db", "reps", "Emp")},
			ArgTypes: []string{"Emp", "Emp"},
			Predicate: func(args []*lambda.Arg) lambda.Term {
				return lambda.Eq(lambda.FromMethod(args[0], "getDept"), lambda.FromMethod(args[1], "getDept"))
			},
			Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
		}
		if err := c.CreateSet("db", "joined", "Emp"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(core.NewWrite("db", "joined", join)); err != nil {
			t.Fatalf("threads=%d: %v", th, err)
		}
		rows := scanEmpRows(t, c, emp, "db", "joined")
		if len(rows) != 600 {
			t.Fatalf("threads=%d: join rows = %d, want 600", th, len(rows))
		}
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: join rows (or their order) differ from threads=%d", th, threadCounts[0])
		}
	}
}

// TestJoinBuildOnProjectedObjectsSurvivesScratchRecycling joins against a
// build side whose objects are allocated by a fused native projection — so
// they live on the build stage's scratch output pages. The stage driver
// recycles unreferenced scratch after the build; this guards the
// References() tracking that keeps the table's pages out of the pool (a
// false recycle would reset pages the probe still reads).
func TestJoinBuildOnProjectedObjectsSurvivesScratchRecycling(t *testing.T) {
	c, emp := threadedCluster(t, 300, 4)
	if err := c.CreateSet("db", "reps", "Emp"); err != nil {
		t.Fatal(err)
	}
	loadEmps(t, c, emp, "db", "reps", 5) // one rep per dept d0..d4
	sel := &core.Selection{
		In:      core.NewScan("db", "reps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("markRep", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					src := args[0].H
					out, err := ctx.Alloc.MakeObject(emp)
					if err != nil {
						return object.Value{}, err
					}
					if err := object.SetStrField(ctx.Alloc, out, emp.Field("name"),
						object.GetStrField(src, emp.Field("name"))); err != nil {
						return object.Value{}, err
					}
					// Marker: a salary only projected reps can have.
					object.SetF64(out, emp.Field("salary"),
						object.GetF64(src, emp.Field("salary"))+1e6)
					if err := object.SetStrField(ctx.Alloc, out, emp.Field("dept"),
						object.GetStrField(src, emp.Field("dept"))); err != nil {
						return object.Value{}, err
					}
					return object.HandleValue(out), nil
				},
				lambda.FromSelf(arg))
		},
	}
	join := &core.Join{
		In:       []core.Computation{core.NewScan("db", "emps", "Emp"), sel},
		ArgTypes: []string{"Emp", "Emp"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMethod(args[0], "getDept"), lambda.FromMethod(args[1], "getDept"))
		},
		// Emit the projected build object so the output must read the
		// scratch-allocated reps after recycling ran.
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[1]) },
	}
	if err := c.CreateSet("db", "joined", "Emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(core.NewWrite("db", "joined", join)); err != nil {
		t.Fatal(err)
	}
	count := 0
	err := c.ScanSet("db", "joined", func(r object.Ref) bool {
		count++
		if object.GetF64(r, emp.Field("salary")) < 1e6 {
			t.Fatalf("joined row holds a corrupted/unmarked build object (salary %v)",
				object.GetF64(r, emp.Field("salary")))
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 300 {
		t.Fatalf("join rows = %d, want 300", count)
	}
}

// TestBackendCrashReForkWithThreads reruns the crash-recovery contract under
// intra-worker parallelism: a user-code panic on an executor thread must
// still surface as a backend crash on the worker goroutine (so the front
// end re-forks and retries) rather than killing the process.
func TestBackendCrashReForkWithThreads(t *testing.T) {
	c, _ := threadedCluster(t, 400, 4)
	var crashes int32
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("crashOnce", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					if atomic.CompareAndSwapInt32(&crashes, 0, 1) {
						panic("user code bug on an executor thread")
					}
					return args[0], nil
				},
				lambda.FromSelf(arg))
		},
	}
	if err := c.CreateSet("db", "out", "Emp"); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Execute(core.NewWrite("db", "out", sel))
	if err != nil {
		t.Fatalf("job should survive a single thread crash: %v", err)
	}
	if stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", stats.Retries)
	}
	count, _ := c.CountSet("db", "out")
	if count != 400 {
		t.Errorf("post-crash result count = %d, want 400", count)
	}
}
