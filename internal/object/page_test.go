package object

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func newTestPage(t testing.TB, size int) (*Page, *Allocator) {
	t.Helper()
	reg := NewRegistry()
	p := NewPage(size, reg)
	return p, NewAllocator(p)
}

func TestNewPageHeader(t *testing.T) {
	p := NewPage(4096, NewRegistry())
	if got := p.Used(); got != PageHeaderSize {
		t.Errorf("Used() = %d, want %d", got, PageHeaderSize)
	}
	for _, w := range [][2]int{{8, 12}, {16, 20}, {20, 24}} {
		if v := binary.LittleEndian.Uint32(p.Data[w[0]:w[1]]); v != 0 {
			t.Errorf("header word [%d:%d] = %d, want 0", w[0], w[1], v)
		}
	}
	if p.Root() != 0 {
		t.Errorf("Root() = %d, want 0", p.Root())
	}
}

func TestPageRootRoundTrip(t *testing.T) {
	p := NewPage(4096, NewRegistry())
	p.SetRoot(1234)
	if p.Root() != 1234 {
		t.Errorf("Root() = %d, want 1234", p.Root())
	}
}

func TestFromBytesValidation(t *testing.T) {
	if _, err := FromBytes([]byte("nope"), nil); err == nil {
		t.Error("FromBytes should reject short/bad bytes")
	}
	if _, err := FromBytes(make([]byte, 100), nil); err == nil {
		t.Error("FromBytes should reject missing magic")
	}
}

// markedPage returns a page holding a root vector with two handles to one
// string (mark 2) and a string with one handle (mark 1).
func markedPage(t *testing.T) *Page {
	t.Helper()
	p, a := newTestPage(t, 4096)
	v, err := MakeVector(a, KHandle, 4)
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := MakeString(a, "shared")
	once, _ := MakeString(a, "once")
	for _, s := range []Ref{shared, shared, once} {
		if err := v.PushBackHandle(a, s); err != nil {
			t.Fatal(err)
		}
	}
	p.SetRoot(v.Off)
	return p
}

// TestFromBytesUnmanaged: adopting page bytes writes none of them, so the
// adopted page is byte for byte its source.
func TestFromBytesUnmanaged(t *testing.T) {
	p := markedPage(t)
	q, err := FromBytes(bytes.Clone(p.Data), NewRegistry())
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Errorf("FromBytes changed the adopted bytes: first difference at offset %d", firstDiff(q.Data, p.Data))
	}
}

// firstDiff returns the first offset at which a and b differ, or -1.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func TestBytesIsOccupiedPrefix(t *testing.T) {
	p, a := newTestPage(t, 4096)
	if _, err := MakeString(a, "hello"); err != nil {
		t.Fatal(err)
	}
	b := p.Bytes()
	if uint32(len(b)) != p.Used() {
		t.Errorf("Bytes() length %d != Used() %d", len(b), p.Used())
	}
	if len(b) >= len(p.Data) {
		t.Error("Bytes() should be a strict prefix for a non-full page")
	}
}

// TestStringBytesRoundTrip pins the byte-slice pair beside MakeString and
// StringContents: the same object bytes go down, and what comes back is a
// view of the page (no copy) that an append cannot grow into its neighbour.
func TestStringBytesRoundTrip(t *testing.T) {
	p, a := newTestPage(t, 4096)
	content := "k\x00ey\xff"
	fromString, err := MakeString(a, content)
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := MakeStringBytes(a, []byte(content))
	if err != nil {
		t.Fatal(err)
	}
	next, err := MakeString(a, "neighbour")
	if err != nil {
		t.Fatal(err)
	}
	if StringContents(fromBytes) != content || !Equal(fromString, fromBytes) {
		t.Errorf("MakeStringBytes stored %q, MakeString %q", StringContents(fromBytes), StringContents(fromString))
	}
	view := StringBytes(fromBytes)
	if string(view) != content || cap(view) != len(view) {
		t.Fatalf("StringBytes = %q (len %d, cap %d), want %q with no spare capacity", view, len(view), cap(view), content)
	}
	if &view[0] != &p.Data[fromBytes.Off] {
		t.Error("StringBytes copied the contents instead of viewing the page")
	}
	_ = append(view, "overflow"...)
	if got := StringContents(next); got != "neighbour" {
		t.Errorf("appending to the view reached the next object: %q", got)
	}
	if StringBytes(NilRef) != nil {
		t.Error("StringBytes(NilRef) should be nil")
	}
}

func TestShipPagePreservesObjects(t *testing.T) {
	// The zero-cost movement property: copy the occupied bytes, adopt
	// them elsewhere, and every object is readable without any decode
	// step.
	p, a := newTestPage(t, 8192)
	v, err := MakeVector(a, KFloat64, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := v.PushBackF64(a, float64(i)*1.5); err != nil {
			t.Fatal(err)
		}
	}
	p.SetRoot(v.Off)

	shipped := make([]byte, len(p.Bytes()))
	copy(shipped, p.Bytes())

	q, err := FromBytes(shipped, p.Reg)
	if err != nil {
		t.Fatal(err)
	}
	rv := AsVector(Ref{Page: q, Off: q.Root()})
	if rv.Len() != 100 {
		t.Fatalf("shipped vector Len = %d, want 100", rv.Len())
	}
	for i := 0; i < 100; i++ {
		if got := rv.F64At(i); got != float64(i)*1.5 {
			t.Fatalf("shipped elem %d = %g, want %g", i, got, float64(i)*1.5)
		}
	}
}

// TestRetainMarkSaturates: the referent mark counts 0, 1, then stays at 2,
// "more than one", however many handles or Go-side holders follow.
func TestRetainMarkSaturates(t *testing.T) {
	reg := NewRegistry()
	holder := NewStruct("MarkHolder").AddField("a", KHandle).AddField("b", KHandle).MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p)
	s, err := MakeString(a, "ephemeral")
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.MakeObject(holder)
	if err != nil {
		t.Fatal(err)
	}
	if s.RefCount() != 0 || s.soleReferent() {
		t.Fatalf("fresh mark = %d, want 0 and not sole", s.RefCount())
	}
	if err := SetHandleField(a, h, holder.Field("a"), s); err != nil {
		t.Fatal(err)
	}
	if s.RefCount() != 1 || !s.soleReferent() {
		t.Fatalf("mark after one handle = %d, want 1 and sole", s.RefCount())
	}
	if err := SetHandleField(a, h, holder.Field("b"), s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Retain()
	}
	if err := SetHandleField(a, h, holder.Field("b"), NilRef); err != nil {
		t.Fatal(err)
	}
	if s.RefCount() != 2 || s.soleReferent() {
		t.Errorf("mark after two handles, five holders and an overwrite = %d, want 2 and not sole", s.RefCount())
	}
}

// TestUnmanagedPageFreezesCounts: a page adopted with FromBytes resumes
// allocation and mark-keeping exactly like its original, so the same writes
// on both leave the same bytes, and a second handle written on the copy
// raises its target's mark to 2.
func TestUnmanagedPageFreezesCounts(t *testing.T) {
	p := markedPage(t)
	q, err := FromBytes(bytes.Clone(p.Data), p.Reg)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	for _, page := range []*Page{p, q} {
		a := NewAllocator(page)
		root := AsVector(Ref{Page: page, Off: page.Root()})
		s, err := MakeString(a, "later")
		if err != nil {
			t.Fatal(err)
		}
		if err := root.PushBackHandle(a, s); err != nil {
			t.Fatal(err)
		}
		if err := root.PushBackHandle(a, root.HandleAt(2)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Errorf("the copy diverged from its original at offset %d", firstDiff(q.Data, p.Data))
	}
	if m := AsVector(Ref{Page: q, Off: q.Root()}).HandleAt(2).RefCount(); m != 2 {
		t.Errorf("mark of a string handled twice on the adopted page = %d, want 2", m)
	}
}
