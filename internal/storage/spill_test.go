package storage

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/object"
)

// spillTestPage builds a page holding one int64-tagged object.
func spillTestPage(t *testing.T, reg *object.Registry, ti *object.TypeInfo, id int64) *object.Page {
	t.Helper()
	p := object.NewPage(1<<12, reg)
	a := object.NewAllocator(p)
	root, err := object.MakeVector(a, object.KHandle, 0)
	if err != nil {
		t.Fatal(err)
	}
	root.Retain()
	p.SetRoot(root.Off)
	o, err := a.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	object.SetI64(o, ti.Field("id"), id)
	if err := root.PushBackHandle(a, o); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSpillPoolRoundTrip spills pages, loads them back, and checks the
// occupied prefix survives bit-for-bit.
func TestSpillPoolRoundTrip(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("SpillRec").AddField("id", object.KInt64).MustBuild(reg)
	sp := NewSpillPool(filepath.Join(t.TempDir(), "spill"), reg)

	p := spillTestPage(t, reg, ti, 42)
	want := append([]byte(nil), p.Bytes()...)
	slot, err := sp.Spill(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sp.Load(slot)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Bytes()) != string(want) {
		t.Error("loaded page bytes differ from the spilled image")
	}
	root := object.AsVector(object.Ref{Page: got, Off: got.Root()})
	if id := object.GetI64(root.HandleAt(0), ti.Field("id")); id != 42 {
		t.Errorf("loaded object id = %d, want 42", id)
	}
	if live := sp.LiveSlots(); live != 1 {
		t.Errorf("live slots = %d, want 1", live)
	}
}

// TestSpillPoolSlotReuse frees slots between spills and checks the file
// set stays bounded: a steady-state spill workload must recycle files, not
// grow the directory.
func TestSpillPoolSlotReuse(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("SpillRec2").AddField("id", object.KInt64).MustBuild(reg)
	dir := filepath.Join(t.TempDir(), "spill")
	sp := NewSpillPool(dir, reg)

	for i := 0; i < 20; i++ {
		slot, err := sp.Spill(spillTestPage(t, reg, ti, int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := sp.Load(slot)
		if err != nil {
			t.Fatal(err)
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		if id := object.GetI64(root.HandleAt(0), ti.Field("id")); id != int64(i) {
			t.Fatalf("round %d: loaded id %d", i, id)
		}
		sp.Free(slot)
	}
	if live := sp.LiveSlots(); live != 0 {
		t.Errorf("live slots after free = %d, want 0", live)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("slot files on disk = %d, want 1 (slots must recycle)", len(entries))
	}
}

// TestSpillPoolCloseRemovesFiles checks Close deletes every spill file and
// rejects further spills — the no-stray-files contract a finished step
// relies on.
func TestSpillPoolCloseRemovesFiles(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("SpillRec3").AddField("id", object.KInt64).MustBuild(reg)
	dir := filepath.Join(t.TempDir(), "spill")
	sp := NewSpillPool(dir, reg)
	for i := 0; i < 3; i++ {
		if _, err := sp.Spill(spillTestPage(t, reg, ti, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("spill dir still exists after Close (err=%v)", err)
	}
	if _, err := sp.SpillBytes([]byte("x")); err == nil {
		t.Error("spill after Close succeeded, want error")
	}
}
