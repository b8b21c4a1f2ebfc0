package object

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	_, a := newTestPage(t, 4096)
	off, err := a.Alloc(16, TCRaw)
	if err != nil {
		t.Fatal(err)
	}
	r := Ref{Page: a.Page, Off: off}
	if r.TypeCode() != TCRaw {
		t.Errorf("TypeCode = %d, want TCRaw", r.TypeCode())
	}
	if r.PayloadSize() != 16 {
		t.Errorf("PayloadSize = %d, want 16", r.PayloadSize())
	}
	if r.RefCount() != 0 {
		t.Errorf("fresh object's referent mark = %d, want 0", r.RefCount())
	}
}

func TestAllocPageFull(t *testing.T) {
	_, a := newTestPage(t, 256)
	var lastErr error
	for i := 0; i < 100; i++ {
		if _, lastErr = a.Alloc(64, TCRaw); lastErr != nil {
			break
		}
	}
	if lastErr != ErrPageFull {
		t.Fatalf("expected ErrPageFull, got %v", lastErr)
	}
}

// TestAllocZeroesRecycledSpace: Alloc zeroes a payload and its pad up to
// the next multiple of 8 — and no byte past it — on the body of a pooled
// page, which Reset does not clear.
func TestAllocZeroesRecycledSpace(t *testing.T) {
	// A pooled page whose body was all 0xFF when it went back to the pool
	// (under -tags pagecheck, Put poisons it instead).
	pool := NewPagePool(4096)
	p := pool.Get(NewRegistry())
	for j := PageHeaderSize; j < len(p.Data); j++ {
		p.Data[j] = 0xFF
	}
	pool.Put(p)
	if q := pool.Get(NewRegistry()); q != p {
		t.Fatal("the pool did not hand the page back")
	}
	recycled := slices.Clone(p.Data)
	a := NewAllocator(p)
	for _, size := range []uint32{1, 3, 7, 8, 13, 20, 31} {
		off, err := a.Alloc(size, TCRaw)
		if err != nil {
			t.Fatal(err)
		}
		end := off + alignUp(size, 8)
		for i := off; i < end; i++ {
			if p.Data[i] != 0 {
				t.Fatalf("byte %d of a %d-byte payload = %#x, want 0", i-off, size, p.Data[i])
			}
		}
		if recycled[end] == 0 || p.Data[end] != recycled[end] {
			t.Fatalf("the byte past a %d-byte payload's pad = %#x, want the recycled %#x (non-zero)", size, p.Data[end], recycled[end])
		}
	}
}

// TestAllocatorIsARegion: every allocation bumps the watermark, and an
// object whose last handle is overwritten keeps its space: the next
// allocation lands past it.
func TestAllocatorIsARegion(t *testing.T) {
	reg := NewRegistry()
	holder := NewStruct("RegionHolder").AddField("h", KHandle).MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p)
	h, err := a.MakeObject(holder)
	if err != nil {
		t.Fatal(err)
	}
	old, err := a.MakeRaw(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetHandleField(a, h, holder.Field("h"), old); err != nil {
		t.Fatal(err)
	}
	copy(old.Payload(), "the overwritten object's payload")
	usedBefore := p.Used()
	if err := SetHandleField(a, h, holder.Field("h"), NilRef); err != nil {
		t.Fatal(err)
	}
	if p.Used() != usedBefore || old.PayloadSize() != 32 || string(old.Payload()) != "the overwritten object's payload" {
		t.Fatalf("overwriting the last handle moved the watermark to %d (was %d) or touched the object", p.Used(), usedBefore)
	}
	next, err := a.MakeRaw(32)
	if err != nil {
		t.Fatal(err)
	}
	if next.Off <= old.Off {
		t.Errorf("allocation after the overwrite landed at %d, want past the unreachable object at %d", next.Off, old.Off)
	}
	if p.Used() <= usedBefore {
		t.Error("allocation should advance the watermark")
	}
}

// TestAllocatorDetachStopsReuse: a detached allocator allocates nothing
// more on its page, Detach writes none of the page's bytes, and the page's
// marks still rise.
func TestAllocatorDetachStopsReuse(t *testing.T) {
	p, a := newTestPage(t, 4096)
	off, _ := a.Alloc(32, TCRaw)
	before := string(p.Data)
	if got := a.Detach(); got != p {
		t.Fatalf("Detach returned %p, want the page %p", got, p)
	}
	if _, err := a.Alloc(8, TCRaw); err != ErrPageFull {
		t.Errorf("Alloc after Detach: %v, want ErrPageFull", err)
	}
	if string(p.Data) != before {
		t.Error("Detach wrote the page")
	}
	r := Ref{Page: p, Off: off}
	r.Retain()
	if r.RefCount() != 1 {
		t.Errorf("mark on the detached page = %d, want 1", r.RefCount())
	}
}

func TestAllocAlignment(t *testing.T) {
	_, a := newTestPage(t, 4096)
	for _, sz := range []uint32{1, 3, 7, 8, 9, 31, 64} {
		off, err := a.Alloc(sz, TCRaw)
		if err != nil {
			t.Fatal(err)
		}
		if (off-ObjHeaderSize)%4 != 0 {
			t.Errorf("object header for size %d not 4-aligned: payload off %d", sz, off)
		}
	}
}

// Property: a random sequence of allocations and frees never corrupts the
// page. A free is the overwrite of an object's last handle, which in a
// region leaves the object where it is: each allocation lands past the one
// before, every object keeps its header and payload, reachable or not, and
// the watermark covers them all.
func TestQuickAllocFreeInvariants(t *testing.T) {
	reg := NewRegistry()
	holder := NewStruct("QuickHolder").AddField("h", KHandle).MustBuild(reg)
	f := func(ops []uint16) bool {
		p := NewPage(1<<16, reg)
		a := NewAllocator(p)
		h, err := a.MakeObject(holder)
		if err != nil {
			return false
		}
		type obj struct {
			off  uint32
			size uint32
			fill byte
		}
		var objs []obj
		for _, op := range ops {
			if op%3 == 0 && len(objs) > 0 {
				// point the holder at a pseudo-random earlier object,
				// leaving the one it held unreachable
				o := objs[int(op)%len(objs)]
				if SetHandleField(a, h, holder.Field("h"), Ref{Page: p, Off: o.off}) != nil {
					return false
				}
				continue
			}
			size := uint32(op%200) + 1
			off, err := a.Alloc(size, TCRaw)
			if err != nil {
				continue // page full is fine
			}
			if len(objs) > 0 && off <= objs[len(objs)-1].off {
				return false
			}
			fill := byte(op)
			r := Ref{Page: p, Off: off}
			for j := range r.Payload() {
				r.Payload()[j] = fill
			}
			objs = append(objs, obj{off, size, fill})
		}
		for _, o := range objs {
			r := Ref{Page: p, Off: o.off}
			if r.PayloadSize() != o.size || r.TypeCode() != TCRaw || o.off+o.size > p.Used() {
				return false
			}
			for _, b := range r.Payload() {
				if b != o.fill {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
