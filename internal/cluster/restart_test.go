package cluster

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// registerEmp registers the Emp schema (with methods) on a cluster — the
// restart flow re-registers types the same way a fresh client would.
func registerEmp(t *testing.T, c *Cluster) *object.TypeInfo {
	t.Helper()
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
	return emp
}

// TestRestartRestoresPersistedSets is the restore round trip: a disk-backed
// cluster loads data and materializes a query result, a second cluster on
// the same DataDir re-registers the type, and both sets — loaded and
// computed — must be fully readable and queryable again.
func TestRestartRestoresPersistedSets(t *testing.T) {
	dir := t.TempDir()
	const n = 300

	{ // First life: load, query, shut down (nothing to close; state is on disk).
		c, err := New(Config{Workers: 3, PageSize: 1 << 14, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		// An unrelated type registered FIRST shifts Emp's type code: the
		// restart must pin persisted codes, not re-derive them from
		// registration order (the second life never registers Pad).
		object.NewStruct("Pad").AddField("x", object.KInt64).MustBuild(c.Catalog.Registry())
		emp := registerEmp(t, c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateSet("db", "emps", "Emp"); err != nil {
			t.Fatal(err)
		}
		loadEmps(t, c, emp, "db", "emps", n)
		sel := &core.Selection{
			In:      core.NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Ge(lambda.FromMethod(arg, "getSalary"), lambda.ConstF64(15000))
			},
		}
		if err := c.CreateSet("db", "rich", "Emp"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(core.NewWrite("db", "rich", sel)); err != nil {
			t.Fatal(err)
		}
	}

	// Second life: same DataDir, fresh cluster.
	c, err := New(Config{Workers: 3, PageSize: 1 << 14, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	emp := registerEmp(t, c) // binds the restored sets' type code

	for set, want := range map[string]int{"emps": n, "rich": n - 150} {
		count, err := c.CountSet("db", set)
		if err != nil {
			t.Fatalf("restored set %s: %v", set, err)
		}
		if count != want {
			t.Errorf("restored %s count = %d, want %d", set, count, want)
		}
	}
	// Restored objects must be fully readable (string fields, floats).
	var total float64
	if err := c.ScanSet("db", "emps", func(r object.Ref) bool {
		total += object.GetF64(r, emp.Field("salary"))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if want := float64(n*(n-1)/2) * 100; total != want {
		t.Errorf("restored salary total = %g, want %g", total, want)
	}
	// And queryable: run a distributed aggregation over the restored set.
	agg := &core.Aggregate{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Key: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromMember(arg, "dept")
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
	if err := c.CreateSet("db", "bydept", "Emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(core.NewWrite("db", "bydept", agg)); err != nil {
		t.Fatalf("query over restored data: %v", err)
	}
	groups, err := c.CountSet("db", "bydept")
	if err != nil {
		t.Fatal(err)
	}
	if groups != 5 {
		t.Errorf("groups over restored data = %d, want 5", groups)
	}
}

// TestRestartRestoresPartitionKey checks the co-partitioning label survives
// a restart: two sets loaded with SendDataPartitioned must still join with
// zero shuffle after reopening.
func TestRestartRestoresPartitionKey(t *testing.T) {
	dir := t.TempDir()
	load := func(c *Cluster, emp *object.TypeInfo, set string, n int, key func(object.Ref) uint64) {
		if err := c.CreateSet("db", set, "Emp"); err != nil {
			t.Fatal(err)
		}
		pages := buildEmpPages(t, c, emp, n)
		if err := c.SendDataPartitioned("db", set, pages, "dept", key); err != nil {
			t.Fatal(err)
		}
	}
	{
		c, err := New(Config{Workers: 2, PageSize: 1 << 14, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		emp := registerEmp(t, c)
		deptField := emp.Field("dept")
		key := func(r object.Ref) uint64 {
			return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
		}
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		load(c, emp, "left", 210, key)
		load(c, emp, "right", 7, key)
	}
	c, err := New(Config{Workers: 2, PageSize: 1 << 14, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	emp := registerEmp(t, c)
	deptField := emp.Field("dept")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
	}
	shippedBefore := c.Transport.Stats().BytesShipped
	var matches int64
	_, err = c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error { atomic.AddInt64(&matches, 1); return nil })
	if err != nil {
		t.Fatalf("co-partitioned join after restart: %v", err)
	}
	if matches != 210 {
		t.Errorf("matches = %d, want 210", matches)
	}
	if c.Transport.Stats().BytesShipped != shippedBefore {
		t.Error("co-partitioned join after restart shipped bytes; partition key not restored")
	}
}

// TestRestartKeepsClearedPartitionLabel appends rows with SendData to a
// labelled set, then reopens the cluster: the manifest saved when the label
// was cleared keeps it cleared, so the join shuffles and finds all 11 200
// matches, not the 7 200 a restored label would leave it.
func TestRestartKeepsClearedPartitionLabel(t *testing.T) {
	dir := t.TempDir()
	{
		c, err := New(Config{Workers: 2, PageSize: 1 << 14, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		emp := registerEmp(t, c)
		deptField := emp.Field("dept")
		key := func(r object.Ref) uint64 {
			return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
		}
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		for set, n := range map[string]int{"left": 280, "right": 140} {
			if err := c.CreateSet("db", set, "Emp"); err != nil {
				t.Fatal(err)
			}
			if err := c.SendDataPartitioned("db", set, buildEmpPages(t, c, emp, n), "dept", key); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.SendData("db", "left", buildEmpPages(t, c, emp, 280)); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	c, err := New(Config{Workers: 2, PageSize: 1 << 14, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	emp := registerEmp(t, c)
	if got := c.Catalog.PartitionKey("db", "left"); got != "" {
		t.Errorf("restart restored label %q on a set appended to round-robin", got)
	}
	if got := c.Catalog.PartitionKey("db", "right"); got != "dept" {
		t.Errorf("restart lost the untouched set's label (%q)", got)
	}
	pairs, shipped := empJoinPairs(t, c, emp, "left", "right")
	if len(pairs) != 11200 || shipped == 0 {
		t.Errorf("join after restart found %d pairs shipping %d bytes, want 11200 shuffled", len(pairs), shipped)
	}
}
