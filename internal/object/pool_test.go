package object

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

func TestPageReset(t *testing.T) {
	reg := NewRegistry()
	p := NewPage(4096, reg)
	a := NewAllocator(p)
	s, err := MakeString(a, "scrap")
	if err != nil {
		t.Fatal(err)
	}
	p.SetRoot(s.Off)
	// Dirty the two unused header words and the reserved one.
	copy(p.Data[8:12], "\xff\xff\xff\xff")
	copy(p.Data[16:24], "\xff\xff\xff\xff\xff\xff\xff\xff")

	p.Reset()
	if p.Used() != PageHeaderSize {
		t.Errorf("Used after reset = %d", p.Used())
	}
	if binary.LittleEndian.Uint32(p.Data[8:12]) != 0 || p.Root() != 0 ||
		binary.LittleEndian.Uint64(p.Data[16:24]) != 0 {
		t.Error("reset did not restore a pristine header")
	}
	// The page must be immediately reusable as an allocation block.
	a2 := NewAllocator(p)
	s2, err := MakeString(a2, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if StringContents(s2) != "fresh" {
		t.Error("reset page produced corrupted allocation")
	}
}

func TestPagePoolRecyclesWithoutDataBleed(t *testing.T) {
	reg := NewRegistry()
	pool := NewPagePool(8192)

	// Fill a page with recognizable content, return it, get it back, and
	// check that fresh allocations are properly zeroed even though the
	// body was not cleared.
	p1 := pool.Get(reg)
	a := NewAllocator(p1)
	v, err := MakeVector(a, KFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 100; j++ {
		_ = v.PushBackF64(a, 12345.678)
	}
	pool.Put(p1)
	p2 := pool.Get(reg)
	if p2 != p1 || pool.Reuses() != 1 {
		t.Fatalf("got the returned page back: %v, Reuses = %d; want true, 1", p2 == p1, pool.Reuses())
	}
	a2 := NewAllocator(p2)
	v2, err := MakeVector(a2, KFloat64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		_ = v2.PushBackF64(a2, 0)
	}
	for i := 0; i < 8; i++ {
		if v2.F64At(i) != 0 {
			t.Fatalf("stale data bled into recycled allocation: %g", v2.F64At(i))
		}
	}
	// Shipping a recycled page only moves the occupied prefix, into a frame
	// whose own stale tail lies past that prefix, so stale tail bytes never
	// escape.
	if int(p2.Used()) >= len(p2.Data) {
		t.Error("recycled page should not be full")
	}
}

// TestPagePoolChecksSeals: under -tags pagecheck, Put takes back a sealed
// page whose bytes did not change, and panics, naming the offset, on one
// written after Seal; the recycled frame starts unsealed.
func TestPagePoolChecksSeals(t *testing.T) {
	if !poisonReleased {
		t.Skip("seals are checked only under -tags pagecheck")
	}
	reg := NewRegistry()
	pool := NewPagePool(4096)
	p := pool.Get(reg)
	s, err := MakeString(NewAllocator(p), "sealed")
	if err != nil {
		t.Fatal(err)
	}
	p.Seal()
	pool.Put(p)
	q := pool.Get(reg)
	if _, err := MakeString(NewAllocator(q), "fresh"); err != nil {
		t.Fatal(err)
	}
	pool.Put(q) // written, but not sealed since it came back from the pool

	p = pool.Get(reg)
	if s, err = MakeString(NewAllocator(p), "sealed"); err != nil {
		t.Fatal(err)
	}
	p.Seal()
	p.Data[s.Off] ^= 1
	defer func() {
		want := fmt.Sprintf("offset %d", s.Off)
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, want) {
			t.Errorf("Put of a sealed page written at %d: panic %q, want one naming %q", s.Off, msg, want)
		}
	}()
	pool.Put(p)
}

// TestPagePoolSurvivesGCAndHoldsAtMostMade: a page put back is still there
// after a garbage collection, handed out last in first out, and the free
// list never holds more pages than the pool has made — a page the pool did
// not make only takes the place of one it did. Drain empties the list.
func TestPagePoolSurvivesGCAndHoldsAtMostMade(t *testing.T) {
	reg := NewRegistry()
	pool := NewPagePool(4096)
	a, b := pool.Get(reg), pool.Get(reg)
	pool.Put(a)
	pool.Put(b)
	runtime.GC()
	runtime.GC()
	if made, free := pool.Counts(); made != 2 || free != 2 {
		t.Fatalf("after a GC: made %d, free %d; want 2, 2", made, free)
	}
	if got := pool.Get(reg); got != b {
		t.Error("the last page put back was not the first handed out")
	}
	if got := pool.Get(reg); got != a {
		t.Error("the first page put back was not handed out second")
	}
	if pool.Reuses() != 2 {
		t.Errorf("Reuses = %d, want 2", pool.Reuses())
	}

	// Three foreign pages of the right size: the list takes two, the
	// pages the pool has made.
	for i := 0; i < 3; i++ {
		pool.Put(NewPage(4096, reg))
	}
	if made, free := pool.Counts(); made != 2 || free != 2 {
		t.Errorf("after three foreign Puts: made %d, free %d; want 2, 2", made, free)
	}
	pool.Drain()
	if made, free := pool.Counts(); made != 2 || free != 0 {
		t.Errorf("after Drain: made %d, free %d; want 2, 0", made, free)
	}
	if p := pool.Get(reg); p == a || p == b {
		t.Error("a drained pool handed out an old page")
	}
}

func TestPagePoolDropsWrongSizes(t *testing.T) {
	pool := NewPagePool(4096)
	pool.Put(NewPage(8192, NewRegistry())) // wrong size: dropped
	p := pool.Get(NewRegistry())
	if len(p.Data) != 4096 {
		t.Errorf("pool returned %d-byte page, want 4096", len(p.Data))
	}
	pool.Put(nil) // must not panic
}

func TestF64Span(t *testing.T) {
	reg := NewRegistry()
	p := NewPage(8192, reg)
	a := NewAllocator(p)
	v, err := MakeVector(a, KFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		_ = v.PushBackF64(a, float64(i))
	}
	sp := v.F64Span()
	if sp.Len() != 64 {
		t.Fatalf("span len = %d", sp.Len())
	}
	if sp.At(10) != 10 {
		t.Errorf("At(10) = %g", sp.At(10))
	}
	sp.Set(10, 99)
	sp.Add(10, 1)
	if v.F64At(10) != 100 {
		t.Errorf("after Set+Add, elem = %g, want 100", v.F64At(10))
	}
	var buf [64]float64
	dst := sp.AppendTo(buf[:0])
	if len(dst) != 64 || dst[63] != 63 || dst[10] != 100 || &dst[0] != &buf[0] {
		t.Error("AppendTo wrong")
	}
	empty, _ := MakeVector(a, KFloat64, 0)
	if empty.F64Span().Len() != 0 {
		t.Error("empty vector span should have length 0")
	}
}

func TestSimpleTypeCodes(t *testing.T) {
	tc := SimpleCode(48)
	if !IsSimpleCode(tc) {
		t.Error("SimpleCode should set the simple bit")
	}
	if SimpleSize(tc) != 48 {
		t.Errorf("SimpleSize = %d", SimpleSize(tc))
	}
	if IsSimpleCode(TCVector) || IsSimpleCode(FirstUserTypeCode) {
		t.Error("builtin/user codes must not read as simple")
	}
	// A simple-typed object deep-copies as a flat byte copy.
	reg := NewRegistry()
	p := NewPage(4096, reg)
	a := NewAllocator(p)
	off, err := a.Alloc(16, SimpleCode(16))
	if err != nil {
		t.Fatal(err)
	}
	r := Ref{Page: p, Off: off}
	copy(r.Payload(), "0123456789abcdef")
	p2 := NewPage(4096, reg)
	a2 := NewAllocator(p2)
	cp, err := DeepCopy(a2, r)
	if err != nil {
		t.Fatal(err)
	}
	if string(cp.Payload()) != "0123456789abcdef" {
		t.Error("simple type flat copy lost data")
	}
}

func TestHandleSlotTypeCode(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("T").AddField("child", KHandle).MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p)
	parent, _ := a.MakeObject(ti)
	child, _ := MakeString(a, "x")
	if err := SetHandleField(a, parent, ti.Field("child"), child); err != nil {
		t.Fatal(err)
	}
	// The slot carries the pointee's type code without dereferencing —
	// the dispatch-before-touch capability of §6.3.
	if got := HandleSlotTypeCode(p, parent.Off+ti.Field("child").Off); got != TCString {
		t.Errorf("slot type code = %d, want TCString", got)
	}
}

func TestBuildPagesRotation(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Fat").AddField("pad", KHandle).MustBuild(reg)
	pages, err := BuildPages(reg, 2048, 200, func(a *Allocator, i int) (Ref, error) {
		r, err := a.MakeObject(ti)
		if err != nil {
			return NilRef, err
		}
		v, err := MakeVector(a, KFloat64, 8)
		if err != nil {
			return NilRef, err
		}
		for j := 0; j < 8; j++ {
			if err := v.PushBackF64(a, float64(i)); err != nil {
				return NilRef, err
			}
		}
		return r, SetHandleField(a, r, ti.Field("pad"), v.Ref)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) < 2 {
		t.Fatalf("expected rotation across pages, got %d", len(pages))
	}
	total := 0
	for _, p := range pages {
		root := AsVector(Ref{Page: p, Off: p.Root()})
		total += root.Len()
	}
	if total != 200 {
		t.Errorf("objects across pages = %d, want 200", total)
	}
}
