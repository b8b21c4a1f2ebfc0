package cluster

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// TestConfigFields pins Config's fields, so a new knob is a deliberate,
// reviewed edit: every removed knob was measured off (ROADMAP.md, the
// decision table under open item 1), and a new one needs a workload for
// which both of its settings are the right answer.
func TestConfigFields(t *testing.T) {
	want := []string{"Workers", "Threads", "PageSize", "DataDir", "CheckpointInterval",
		"MemoryBudget", "MaxRetries", "Transport", "ProcBin", "Fault"}
	var got []string
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		got = append(got, f.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cluster.Config fields = %v, want %v: a knob added or removed needs its measurement "+
			"in ROADMAP.md's decision table (open item 1) and this list updated with it", got, want)
	}
}

// testCluster builds a 4-worker cluster with the Emp schema registered and
// n employees loaded into db.emps.
func testCluster(t testing.TB, n int) (*Cluster, *object.TypeInfo) {
	t.Helper()
	c, err := New(Config{Workers: 4, PageSize: 1 << 16})
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

func loadEmps(t testing.TB, c *Cluster, emp *object.TypeInfo, db, set string, n int) {
	t.Helper()
	reg := c.Catalog.Registry()
	fill := func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		if err := object.SetStrField(a, e, emp.Field("name"), fmt.Sprintf("e%d", i)); err != nil {
			return object.NilRef, err
		}
		object.SetF64(e, emp.Field("salary"), float64(i)*100)
		if err := object.SetStrField(a, e, emp.Field("dept"), fmt.Sprintf("d%d", i%5)); err != nil {
			return object.NilRef, err
		}
		return e, nil
	}
	pages, err := object.BuildPages(reg, 1<<16, n, fill)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendData(db, set, pages); err != nil {
		t.Fatal(err)
	}
}

func TestFigure4Architecture(t *testing.T) {
	c, _ := testCluster(t, 10)
	if c.Catalog == nil {
		t.Fatal("master catalog missing")
	}
	if len(c.Workers) != 4 {
		t.Fatalf("workers = %d, want 4", len(c.Workers))
	}
	for _, w := range c.Workers {
		if w.Front == nil || w.Front.Local == nil || w.Front.Store == nil {
			t.Fatal("worker front end incomplete")
		}
		if w.Front.Backend() == nil {
			t.Fatal("worker backend missing")
		}
	}
}

func TestSendDataDistributesAcrossWorkers(t *testing.T) {
	c, _ := testCluster(t, 2000)
	count, err := c.CountSet("db", "emps")
	if err != nil {
		t.Fatal(err)
	}
	if count != 2000 {
		t.Fatalf("cluster-wide count = %d, want 2000", count)
	}
	// Data must be spread over more than one worker.
	withData := 0
	for _, w := range c.Workers {
		if pages, err := w.Front.Store.Pages("db", "emps"); err == nil && len(pages) > 0 {
			withData++
		}
	}
	if withData < 2 {
		t.Errorf("only %d workers hold data; round-robin expected", withData)
	}
	if c.Transport.Stats().PagesShipped == 0 {
		t.Error("SendData should count shipped pages")
	}
}

func TestDistributedSelection(t *testing.T) {
	c, _ := testCluster(t, 500)
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Ge(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(40000))
		},
	}
	if err := c.CreateSet("db", "rich", "Emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(core.NewWrite("db", "rich", sel)); err != nil {
		t.Fatal(err)
	}
	count, err := c.CountSet("db", "rich")
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 { // salaries 40000..49900
		t.Fatalf("selection result = %d, want 100", count)
	}
}

func TestDistributedSelectionUsesLocalCatalogFaulting(t *testing.T) {
	c, _ := testCluster(t, 100)
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.Ge(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(0))
		},
	}
	_ = c.CreateSet("db", "all", "Emp")
	if _, err := c.Execute(core.NewWrite("db", "all", sel)); err != nil {
		t.Fatal(err)
	}
	// Workers never registered Emp directly; they must have faulted the
	// type registration from the master (the .so-fetch analogue).
	if c.Catalog.Stats().TypeFetches == 0 {
		t.Error("no type fetches recorded; local catalogs should fault unknown types")
	}
}

func TestFigure5DistributedAggregation(t *testing.T) {
	c, emp := testCluster(t, 1000)
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
	// Write the aggregate result through an identity selection so the
	// finalized objects land in a stored set.
	_ = c.CreateSet("db", "bydept", "Emp")
	shippedBefore := c.Transport.Stats().BytesShipped
	if _, err := c.Execute(core.NewWrite("db", "bydept", agg)); err != nil {
		t.Fatal(err)
	}
	if c.Transport.Stats().BytesShipped <= shippedBefore {
		t.Error("distributed aggregation must shuffle map pages between workers")
	}
	var total float64
	groups := 0
	err := c.ScanSet("db", "bydept", func(r object.Ref) bool {
		groups++
		total += object.GetF64(r, emp.Field("salary"))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if groups != 5 {
		t.Fatalf("groups = %d, want 5", groups)
	}
	want := 0.0
	for i := 0; i < 1000; i++ {
		want += float64(i) * 100
	}
	if total != want {
		t.Errorf("sum of sums = %g, want %g", total, want)
	}
}

func TestDistributedBroadcastJoin(t *testing.T) {
	c, emp := testCluster(t, 200)
	// Second set: one representative employee per department.
	if err := c.CreateSet("db", "reps", "Emp"); err != nil {
		t.Fatal(err)
	}
	reg := c.Catalog.Registry()
	p := object.NewPage(1<<16, reg)
	a := object.NewAllocator(p)
	root, _ := object.MakeVector(a, object.KHandle, 0)
	root.Retain()
	p.SetRoot(root.Off)
	for i := 0; i < 5; i++ {
		e, _ := a.MakeObject(emp)
		_ = object.SetStrField(a, e, emp.Field("name"), fmt.Sprintf("rep%d", i))
		_ = object.SetStrField(a, e, emp.Field("dept"), fmt.Sprintf("d%d", i))
		_ = root.PushBackHandle(a, e)
	}
	if err := c.SendData("db", "reps", []*object.Page{p}); err != nil {
		t.Fatal(err)
	}

	join := &core.Join{
		In:       []core.Computation{core.NewScan("db", "emps", "Emp"), core.NewScan("db", "reps", "Emp")},
		ArgTypes: []string{"Emp", "Emp"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.Eq(lambda.FromMethod(args[0], "getDept"),
				lambda.FromMethod(args[1], "getDept"))
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	_ = c.CreateSet("db", "joined", "Emp")
	if _, err := c.Execute(core.NewWrite("db", "joined", join)); err != nil {
		t.Fatal(err)
	}
	count, err := c.CountSet("db", "joined")
	if err != nil {
		t.Fatal(err)
	}
	// Every employee matches exactly its department's rep.
	if count != 200 {
		t.Fatalf("join rows = %d, want 200", count)
	}
}

func TestBackendCrashReFork(t *testing.T) {
	c, emp := testCluster(t, 100)
	_ = emp

	var crashes int32
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("crashOnce", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					if atomic.CompareAndSwapInt32(&crashes, 0, 1) {
						panic("user code bug") // crashes this backend
					}
					return args[0], nil
				},
				lambda.FromSelf(arg))
		},
	}
	_ = c.CreateSet("db", "out", "Emp")
	stats, err := c.Execute(core.NewWrite("db", "out", sel))
	if err != nil {
		t.Fatalf("job should survive a single backend crash: %v", err)
	}
	if stats.Retries != 1 {
		t.Errorf("retries = %d, want 1", stats.Retries)
	}
	reforks := 0
	for _, w := range c.Workers {
		reforks += w.Front.ReForks
	}
	if reforks != 1 {
		t.Errorf("re-forks = %d, want 1", reforks)
	}
	count, _ := c.CountSet("db", "out")
	if count != 100 {
		t.Errorf("post-crash result count = %d, want 100", count)
	}
}

func TestBackendPersistentCrashFailsJob(t *testing.T) {
	c, _ := testCluster(t, 50)
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("alwaysCrash", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					panic("deterministic user bug")
				},
				lambda.FromSelf(arg))
		},
	}
	_ = c.CreateSet("db", "out", "Emp")
	if _, err := c.Execute(core.NewWrite("db", "out", sel)); err == nil {
		t.Fatal("persistently crashing user code must fail the job")
	}
	// The cluster survives: front ends are intact and a new job can run.
	for _, w := range c.Workers {
		if w.Front.Backend().Crashed() {
			t.Error("front end should have re-forked a live backend")
		}
	}
}

func TestHashPartitionJoin(t *testing.T) {
	c, emp := testCluster(t, 300)
	if err := c.CreateSet("db", "others", "Emp"); err != nil {
		t.Fatal(err)
	}
	loadEmps(t, c, emp, "db", "others", 300)

	deptField := emp.Field("dept")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
	}
	var matches int64
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "emps", "db", "others", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			atomic.AddInt64(&matches, 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// 5 departments × 60 × 60 pairs.
	if matches != 5*60*60 {
		t.Fatalf("hash-partition join matches = %d, want %d", matches, 5*60*60)
	}
}

func TestDiskBackedWorkers(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Workers: 2, PageSize: 1 << 16, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg := c.Catalog.Registry()
	emp := object.NewStruct("Emp").
		AddField("salary", object.KFloat64).
		MustBuild(reg)
	_ = c.CreateDatabase("db")
	_ = c.CreateSet("db", "emps", "Emp")

	p := object.NewPage(1<<16, reg)
	a := object.NewAllocator(p)
	root, _ := object.MakeVector(a, object.KHandle, 0)
	root.Retain()
	p.SetRoot(root.Off)
	for i := 0; i < 10; i++ {
		e, _ := a.MakeObject(emp)
		object.SetF64(e, emp.Field("salary"), float64(i))
		_ = root.PushBackHandle(a, e)
	}
	if err := c.SendData("db", "emps", []*object.Page{p}); err != nil {
		t.Fatal(err)
	}
	count, err := c.CountSet("db", "emps")
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("disk-backed count = %d, want 10", count)
	}
}
