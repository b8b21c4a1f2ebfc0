package object

import (
	"bytes"
	"testing"
)

// buildEmployeeType registers a small nested schema used across deep-copy
// tests: Emp{name string, salary float64, dept handle->Dep{deptName string}}.
func buildEmployeeType(reg *Registry) (emp, dep *TypeInfo) {
	dep = NewStruct("Dep").
		AddField("deptName", KString).
		MustBuild(reg)
	emp = NewStruct("Emp").
		AddField("name", KString).
		AddField("salary", KFloat64).
		AddField("dept", KHandle).
		MustBuild(reg)
	return emp, dep
}

func makeEmp(t testing.TB, a *Allocator, emp, dep *TypeInfo, name string, salary float64, deptName string) Ref {
	t.Helper()
	d, err := a.MakeObject(dep)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetStrField(a, d, dep.Field("deptName"), deptName); err != nil {
		t.Fatal(err)
	}
	e, err := a.MakeObject(emp)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetStrField(a, e, emp.Field("name"), name); err != nil {
		t.Fatal(err)
	}
	SetF64(e, emp.Field("salary"), salary)
	if err := SetHandleField(a, e, emp.Field("dept"), d); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDeepCopyNestedObject(t *testing.T) {
	reg := NewRegistry()
	emp, dep := buildEmployeeType(reg)
	p1 := NewPage(1<<16, reg)
	a1 := NewAllocator(p1)
	src := makeEmp(t, a1, emp, dep, "alice", 90000, "engineering")

	p2 := NewPage(1<<16, reg)
	a2 := NewAllocator(p2)
	dst, err := DeepCopy(a2, src)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Page != p2 {
		t.Fatal("copy must land on the destination page")
	}
	if !Equal(src, dst) {
		t.Error("deep copy is not structurally equal to source")
	}
	if GetStrField(dst, emp.Field("name")) != "alice" {
		t.Error("string field lost in copy")
	}
	dd := GetHandleField(dst, emp.Field("dept"))
	if dd.Page != p2 {
		t.Error("nested object must also land on the destination page")
	}
	if GetStrField(dd, dep.Field("deptName")) != "engineering" {
		t.Error("nested string lost in copy")
	}
}

func TestDeepCopyPreservesSharing(t *testing.T) {
	reg := NewRegistry()
	emp, dep := buildEmployeeType(reg)
	p1 := NewPage(1<<16, reg)
	a1 := NewAllocator(p1)

	d, _ := a1.MakeObject(dep)
	_ = SetStrField(a1, d, dep.Field("deptName"), "shared")
	e1, _ := a1.MakeObject(emp)
	e2, _ := a1.MakeObject(emp)
	_ = SetHandleField(a1, e1, emp.Field("dept"), d)
	_ = SetHandleField(a1, e2, emp.Field("dept"), d)
	v, _ := MakeVector(a1, KHandle, 2)
	_ = v.PushBackHandle(a1, e1)
	_ = v.PushBackHandle(a1, e2)

	p2 := NewPage(1<<16, reg)
	a2 := NewAllocator(p2)
	cv, err := DeepCopy(a2, v.Ref)
	if err != nil {
		t.Fatal(err)
	}
	cvec := AsVector(cv)
	c1 := GetHandleField(cvec.HandleAt(0), emp.Field("dept"))
	c2 := GetHandleField(cvec.HandleAt(1), emp.Field("dept"))
	if c1 != c2 {
		t.Error("shared child must be copied once (memoized), not duplicated")
	}
}

// TestDeepCopySharingAfterAdoptedWrite: a second handle to a string, written
// on a page adopted with FromBytes, raises the string's mark like a write on
// the original page would, so DeepCopy still copies the string once.
func TestDeepCopySharingAfterAdoptedWrite(t *testing.T) {
	reg := NewRegistry()
	pair := NewStruct("Pair").AddField("a", KHandle).AddField("b", KHandle).MustBuild(reg)
	p, a := newTestPage(t, 4096)
	holder, err := a.MakeObject(pair)
	if err != nil {
		t.Fatal(err)
	}
	s, err := MakeString(a, "shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := SetHandleField(a, holder, pair.Field("a"), s); err != nil {
		t.Fatal(err)
	}

	q, err := FromBytes(bytes.Clone(p.Data), reg)
	if err != nil {
		t.Fatal(err)
	}
	qa := NewAllocator(q)
	qholder, qs := Ref{Page: q, Off: holder.Off}, Ref{Page: q, Off: s.Off}
	if err := SetHandleField(qa, qholder, pair.Field("b"), qs); err != nil {
		t.Fatal(err)
	}
	if m := qs.RefCount(); m != 2 {
		t.Errorf("mark of a string with two handles on the adopted page = %d, want 2", m)
	}

	c, err := DeepCopy(NewAllocator(NewPage(4096, reg)), qholder)
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := GetHandleField(c, pair.Field("a")), GetHandleField(c, pair.Field("b"))
	if ca != cb {
		t.Errorf("the copy holds two strings at %d and %d, want one", ca.Off, cb.Off)
	}
	if StringContents(ca) != "shared" {
		t.Errorf("copied string = %q", StringContents(ca))
	}
}

// TestDeepCopyPreservesSharingAndCycles covers what the memo is for now that
// single-referent objects skip it and the root has a field of its own:
// sharing survives, cycles terminate (also when the root's only referent is
// inside the cycle), and one copy's memo is invisible to the next.
func TestDeepCopyPreservesSharingAndCycles(t *testing.T) {
	reg := NewRegistry()
	node := NewStruct("Node").
		AddField("id", KInt64).
		AddField("next", KHandle).
		AddField("data", KHandle).
		MustBuild(reg)
	next, data := node.Field("next"), node.Field("data")
	src := NewAllocator(NewPage(1<<20, reg))
	dst := NewAllocator(NewPage(1<<20, reg))
	mk := func(id int64) Ref {
		n, err := src.MakeObject(node)
		if err != nil {
			t.Fatal(err)
		}
		SetI64(n, node.Field("id"), id)
		return n
	}
	link := func(from Ref, f *Field, to Ref) {
		t.Helper()
		if err := SetHandleField(src, from, f, to); err != nil {
			t.Fatal(err)
		}
	}

	// Two handles to one vector copy to two handles to one copy.
	shared, err := MakeVector(src, KInt64, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		_ = shared.PushBackI64(src, i)
	}
	n1, n2 := mk(1), mk(2)
	link(n1, data, shared.Ref)
	link(n2, data, shared.Ref)
	link(n1, next, n2)
	c1, err := DeepCopy(dst, n1)
	if err != nil {
		t.Fatal(err)
	}
	c2 := GetHandleField(c1, next)
	if d1, d2 := GetHandleField(c1, data), GetHandleField(c2, data); d1 != d2 || d1.Page != dst.Page {
		t.Errorf("shared vector copied to %v and %v, want one copy on the destination page", d1, d2)
	}
	if !Equal(n1, c1) {
		t.Error("copy of the shared graph differs from its source")
	}

	// A second copy through the same allocator starts from an empty memo:
	// it is a fresh copy, not the first one handed back.
	again, err := DeepCopy(dst, n1)
	if err != nil {
		t.Fatal(err)
	}
	if again == c1 || GetHandleField(again, data) == GetHandleField(c1, data) || !Equal(n1, again) {
		t.Error("a second DeepCopy through one allocator saw the first one's memo")
	}

	// A two-node cycle entered from outside (the root has two referents)...
	a, b := mk(10), mk(11)
	link(a, next, b)
	link(b, next, a)
	a.Retain() // the holder outside the cycle
	ca, err := DeepCopy(dst, a)
	if err != nil {
		t.Fatal(err)
	}
	if cb := GetHandleField(ca, next); GetHandleField(cb, next) != ca || GetI64(cb, node.Field("id")) != 11 {
		t.Error("two-node cycle did not copy to a two-node cycle")
	}
	// ...and one whose root's only referent is the cycle itself: every
	// object in it has a referent mark of one.
	p, q := mk(20), mk(21)
	link(p, next, q)
	link(q, next, p)
	if p.RefCount() != 1 || q.RefCount() != 1 {
		t.Fatalf("cycle marks = %d, %d, want 1, 1", p.RefCount(), q.RefCount())
	}
	cp, err := DeepCopy(dst, p)
	if err != nil {
		t.Fatal(err)
	}
	if cq := GetHandleField(cp, next); GetHandleField(cq, next) != cp || cq == cp {
		t.Error("cycle of single-referent objects did not copy to a two-node cycle")
	}

	// Sharing at scale: two vectors over the same objects. The copies
	// share too, and the small copy after it works from a fresh memo.
	left, _ := MakeVector(src, KHandle, 0)
	right, _ := MakeVector(src, KHandle, 0)
	for i := 0; i < 1100; i++ {
		n := mk(int64(i))
		if err := left.PushBackHandle(src, n); err != nil {
			t.Fatal(err)
		}
		if err := right.PushBackHandle(src, n); err != nil {
			t.Fatal(err)
		}
	}
	both, _ := MakeVector(src, KHandle, 2)
	_ = both.PushBackHandle(src, left.Ref)
	_ = both.PushBackHandle(src, right.Ref)
	cboth, err := DeepCopy(dst, both.Ref)
	if err != nil {
		t.Fatal(err)
	}
	cl, cr := AsVector(AsVector(cboth).HandleAt(0)), AsVector(AsVector(cboth).HandleAt(1))
	for i := 0; i < cl.Len(); i++ {
		if cl.HandleAt(i) != cr.HandleAt(i) {
			t.Fatalf("element %d of the two vectors no longer shares one object", i)
		}
	}
	if small, err := DeepCopy(dst, n2); err != nil || !Equal(n2, small) {
		t.Errorf("copy after a large shared graph: %v", err)
	}
}

func TestCrossBlockAssignmentTriggersDeepCopy(t *testing.T) {
	// The paper's §6.4 example: data allocated in block 1 assigned into an
	// object on block 2 must be deep-copied to block 2 automatically.
	reg := NewRegistry()
	mb := NewStruct("MatrixBlock").
		AddField("chunkRow", KInt32).
		AddField("chunkCol", KInt32).
		AddField("value", KHandle).
		MustBuild(reg)

	p1 := NewPage(1<<16, reg)
	a1 := NewAllocator(p1)
	data, err := MakeVector(a1, KFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		_ = data.PushBackF64(a1, float64(i))
	}

	p2 := NewPage(1<<16, reg)
	a2 := NewAllocator(p2)
	myMatrix, err := a2.MakeObject(mb)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetHandleField(a2, myMatrix, mb.Field("value"), data.Ref); err != nil {
		t.Fatal(err)
	}
	got := GetHandleField(myMatrix, mb.Field("value"))
	if got.Page != p2 {
		t.Fatal("cross-block assignment must deep-copy onto the active block")
	}
	gv := AsVector(got)
	if gv.Len() != 100 || gv.F64At(42) != 42 {
		t.Error("copied vector contents are wrong")
	}
}

func TestCrossPageAssignmentOutsideActiveBlockFails(t *testing.T) {
	reg := NewRegistry()
	emp, dep := buildEmployeeType(reg)
	p1 := NewPage(1<<16, reg)
	a1 := NewAllocator(p1)
	e := makeEmp(t, a1, emp, dep, "bob", 1, "x")

	p2 := NewPage(1<<16, reg)
	a2 := NewAllocator(p2)
	d2, _ := a2.MakeObject(dep)

	// a1's active block is p1; writing a p2 target into an object on p1
	// with allocator a2 (whose block is p2, not p1) must fail.
	if err := SetHandleField(a2, e, emp.Field("dept"), d2); err != ErrCrossPage {
		t.Errorf("expected ErrCrossPage, got %v", err)
	}
}

func TestDeepCopiedGraphShipsIndependently(t *testing.T) {
	// End-to-end zero-cost movement of a complex graph: build, deep copy
	// to a fresh page, ship the bytes, verify structure.
	reg := NewRegistry()
	emp, dep := buildEmployeeType(reg)
	p1 := NewPage(1<<18, reg)
	a1 := NewAllocator(p1)
	v, _ := MakeVector(a1, KHandle, 0)
	for i := 0; i < 25; i++ {
		e := makeEmp(t, a1, emp, dep, "emp", float64(i)*1000, "dept")
		_ = v.PushBackHandle(a1, e)
	}

	p2 := NewPage(1<<18, reg)
	a2 := NewAllocator(p2)
	cp, err := DeepCopy(a2, v.Ref)
	if err != nil {
		t.Fatal(err)
	}
	p2.SetRoot(cp.Off)
	shipped := make([]byte, len(p2.Bytes()))
	copy(shipped, p2.Bytes())
	q, err := FromBytes(shipped, reg)
	if err != nil {
		t.Fatal(err)
	}
	rv := AsVector(Ref{Page: q, Off: q.Root()})
	if rv.Len() != 25 {
		t.Fatalf("shipped vector len = %d", rv.Len())
	}
	for i := 0; i < 25; i++ {
		e := rv.HandleAt(i)
		if GetF64(e, emp.Field("salary")) != float64(i)*1000 {
			t.Fatalf("shipped emp %d salary wrong", i)
		}
		if GetStrField(GetHandleField(e, emp.Field("dept")), dep.Field("deptName")) != "dept" {
			t.Fatalf("shipped emp %d dept wrong", i)
		}
	}
}

func TestEqualDetectsDifference(t *testing.T) {
	reg := NewRegistry()
	emp, dep := buildEmployeeType(reg)
	p := NewPage(1<<16, reg)
	a := NewAllocator(p)
	e1 := makeEmp(t, a, emp, dep, "a", 1, "d1")
	e2 := makeEmp(t, a, emp, dep, "a", 1, "d2")
	e3 := makeEmp(t, a, emp, dep, "a", 2, "d1")
	if Equal(e1, e2) {
		t.Error("different nested strings should not be Equal")
	}
	if Equal(e1, e3) {
		t.Error("different scalars should not be Equal")
	}
}
