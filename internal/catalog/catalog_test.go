package catalog

import (
	"testing"

	"repro/internal/object"
)

func TestCreateDatabaseAndSet(t *testing.T) {
	m := NewMaster()
	ti := object.NewStruct("DataPoint").AddField("data", KHandleAlias).MustBuild(m.Registry())
	if err := m.CreateDatabase("Mydb"); err != nil {
		t.Fatal(err)
	}
	sm, err := m.CreateSet("Mydb", "Myset", "DataPoint")
	if err != nil {
		t.Fatal(err)
	}
	if sm.TypeCode != ti.Code {
		t.Errorf("set type code = %d, want %d", sm.TypeCode, ti.Code)
	}
	got, err := m.LookupSet("Mydb", "Myset")
	if err != nil || got != sm {
		t.Fatalf("LookupSet: %v %v", got, err)
	}
}

// KHandleAlias keeps the test readable.
const KHandleAlias = object.KHandle

func TestCreateSetErrors(t *testing.T) {
	m := NewMaster()
	if _, err := m.CreateSet("nodb", "s", "T"); err == nil {
		t.Error("set in unknown database should fail")
	}
	_ = m.CreateDatabase("db")
	if _, err := m.CreateSet("db", "s", "Unregistered"); err == nil {
		t.Error("set of unregistered type should fail")
	}
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(m.Registry())
	if _, err := m.CreateSet("db", "s", "T"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateSet("db", "s", "T"); err == nil {
		t.Error("duplicate set should fail")
	}
}

func TestDropSet(t *testing.T) {
	m := NewMaster()
	_ = m.CreateDatabase("db")
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(m.Registry())
	_, _ = m.CreateSet("db", "s", "T")
	if err := m.DropSet("db", "s"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupSet("db", "s"); err == nil {
		t.Error("dropped set should be gone")
	}
	if err := m.DropSet("db", "s"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestLocalCatalogFaultsUnknownTypes(t *testing.T) {
	m := NewMaster()
	ti := object.NewStruct("Emp").
		AddField("salary", object.KFloat64).
		MustBuild(m.Registry())

	w := NewLocal(m)
	// Worker has never seen the type; first lookup faults to the master.
	got := w.Registry().Lookup(ti.Code)
	if got == nil || got.Name != "Emp" {
		t.Fatalf("local lookup = %v", got)
	}
	if w.Fetches() != 1 {
		t.Errorf("Fetches = %d, want 1", w.Fetches())
	}
	// Second lookup is served from the local cache.
	_ = w.Registry().Lookup(ti.Code)
	if w.Fetches() != 1 {
		t.Errorf("Fetches after cached lookup = %d, want 1", w.Fetches())
	}
	if m.Stats().TypeFetches != 1 {
		t.Errorf("master TypeFetches = %d, want 1", m.Stats().TypeFetches)
	}
}

func TestLocalCatalogDispatchesShippedObjects(t *testing.T) {
	// End-to-end §6.3 scenario: an object built on a "client" using the
	// master registry is shipped as raw bytes to a worker that has never
	// seen the type; the worker resolves the type code through its local
	// catalog and calls a virtual method on the object.
	m := NewMaster()
	reg := m.Registry()
	ti := object.NewStruct("Emp").
		AddField("salary", object.KFloat64).
		MustBuild(reg)
	ti.Methods["getSalary"] = object.Method{
		Name: "getSalary", Ret: object.KFloat64,
		Fn: func(r object.Ref) object.Value {
			return object.Float64Value(object.GetF64(r, ti.Field("salary")))
		},
	}

	p := object.NewPage(4096, reg)
	a := object.NewAllocator(p)
	e, err := a.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	object.SetF64(e, ti.Field("salary"), 75000)
	p.SetRoot(e.Off)

	shipped := make([]byte, len(p.Bytes()))
	copy(shipped, p.Bytes())

	w := NewLocal(m)
	q, err := object.FromBytes(shipped, w.Registry())
	if err != nil {
		t.Fatal(err)
	}
	r := object.Ref{Page: q, Off: q.Root()}
	wti := w.Registry().Lookup(r.TypeCode())
	if wti == nil {
		t.Fatal("worker could not resolve shipped type")
	}
	meth, ok := wti.Method("getSalary")
	if !ok {
		t.Fatal("method table not shipped with registration")
	}
	if got := meth.Fn(r); got.F != 75000 {
		t.Errorf("dispatched getSalary = %v, want 75000", got)
	}
	if w.Fetches() != 1 {
		t.Errorf("expected exactly one type fetch, got %d", w.Fetches())
	}
}

func TestUpdateSetStats(t *testing.T) {
	m := NewMaster()
	_ = m.CreateDatabase("db")
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(m.Registry())
	sm, _ := m.CreateSet("db", "s", "T")
	m.UpdateSetStats("db", "s", 3, 12345, "")
	if sm.PageCount != 3 || sm.ByteCount != 12345 {
		t.Errorf("stats = (%d,%d), want (3,12345)", sm.PageCount, sm.ByteCount)
	}
	if len(m.Sets()) != 1 {
		t.Errorf("Sets() len = %d", len(m.Sets()))
	}
}

// TestAppendKeepsPartitionLabelTrue walks the label rule: an empty set
// takes an append's label, an append under the same label keeps it, and any
// other append — unrouted or under another key — clears it for good.
func TestAppendKeepsPartitionLabelTrue(t *testing.T) {
	m := NewMaster()
	_ = m.CreateDatabase("db")
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(m.Registry())
	for _, set := range []string{"a", "b"} {
		if _, err := m.CreateSet("db", set, "T"); err != nil {
			t.Fatal(err)
		}
	}
	for i, step := range []struct {
		set, key   string
		pages      int
		relabelled bool
		want       string
	}{
		{"a", "k", 1, true, "k"},    // an empty set takes the label
		{"a", "k", 2, false, "k"},   // the same key keeps it
		{"a", "", 0, false, "k"},    // appending nothing changes nothing
		{"a", "", 1, true, ""},      // rows placed round-robin clear it
		{"a", "k", 1, false, ""},    // and a keyed append cannot restore it
		{"b", "", 1, false, ""},     // an unrouted first append labels nothing
		{"b", "k", 1, false, ""},    // nor does a keyed one onto those rows
		{"nope", "k", 1, false, ""}, // an unknown set has no label
	} {
		if got := m.UpdateSetStats("db", step.set, step.pages, 100, step.key); got != step.relabelled {
			t.Errorf("step %d: relabelled = %v, want %v", i, got, step.relabelled)
		}
		if got := m.PartitionKey("db", step.set); got != step.want {
			t.Errorf("step %d: label of %s = %q, want %q", i, step.set, got, step.want)
		}
	}
	// A set carrying one label loses it to rows routed by another key.
	_, _ = m.CreateSet("db", "c", "T")
	m.UpdateSetStats("db", "c", 1, 100, "k")
	if !m.UpdateSetStats("db", "c", 1, 100, "j") || m.PartitionKey("db", "c") != "" {
		t.Errorf("rows routed by another key left label %q", m.PartitionKey("db", "c"))
	}
}

// TestSetVersionChangesWithContents pins SetVersion: a set's version moves
// when pages arrive, when the set is dropped and created again, and across
// a restart after the newest set was dropped.
func TestSetVersionChangesWithContents(t *testing.T) {
	m := NewMaster()
	_ = m.CreateDatabase("db")
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(m.Registry())
	type version struct {
		gen   uint64
		pages int
	}
	at := func(m *Master) version {
		gen, pages := m.SetVersion("db", "s")
		return version{gen, pages}
	}
	_, _ = m.CreateSet("db", "s", "T")
	created := at(m)
	m.UpdateSetStats("db", "s", 1, 100, "")
	if v := at(m); v.gen != created.gen || v.pages != created.pages+1 {
		t.Errorf("after one page: %+v, want the generation of %+v and one more page", v, created)
	}
	_ = m.DropSet("db", "s")
	_, _ = m.CreateSet("db", "s", "T")
	recreated := at(m)
	if recreated.gen == created.gen {
		t.Errorf("a dropped and recreated set kept generation %d", created.gen)
	}

	// A restarted catalog restores the counter, so a set created after the
	// set holding the newest generation was dropped still gets a generation
	// never seen before.
	_ = m.DropSet("db", "s")
	r := NewMaster()
	object.NewStruct("T").AddField("x", object.KInt64).MustBuild(r.Registry())
	r.RestoreDatabase("db")
	r.RestoreGeneration(m.Generation())
	_, _ = r.CreateSet("db", "s", "T")
	if v := at(r); v.gen == created.gen || v.gen == recreated.gen {
		t.Errorf("a set created after restart reused generation %d", v.gen)
	}
}
