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
		t.Errorf("fresh object RefCount = %d, want 0", r.RefCount())
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

// TestAllocatorIsARegion: every allocation bumps the watermark; a destroyed
// object leaves the live count but its space is never handed out again.
func TestAllocatorIsARegion(t *testing.T) {
	p := NewPage(4096, NewRegistry())
	a := NewAllocator(p)
	off, _ := a.Alloc(32, TCRaw)
	r := Ref{Page: p, Off: off}
	r.Retain()
	usedBefore := p.Used()
	r.Release()
	if p.ActiveObjects() != 0 || p.Used() != usedBefore {
		t.Fatalf("after Release: %d live objects, watermark %d; want 0 and %d unchanged",
			p.ActiveObjects(), p.Used(), usedBefore)
	}
	off2, _ := a.Alloc(32, TCRaw)
	if off2 <= off {
		t.Errorf("allocation after a free landed at %d, want past the freed object at %d", off2, off)
	}
	if p.Used() <= usedBefore {
		t.Error("allocation should advance the watermark")
	}
}

func TestDestructorReleasesChildren(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Holder").
		AddField("name", KString).
		AddField("data", KHandle).
		MustBuild(reg)
	p := NewPage(8192, reg)
	a := NewAllocator(p)

	h, err := a.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	if err := SetStrField(a, h, ti.Field("name"), "child-string"); err != nil {
		t.Fatal(err)
	}
	v, err := MakeVector(a, KFloat64, 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.PushBackF64(a, 3.14)
	if err := SetHandleField(a, h, ti.Field("data"), v.Ref); err != nil {
		t.Fatal(err)
	}
	// holder + string + vector + vector's array
	if p.ActiveObjects() != 4 {
		t.Fatalf("ActiveObjects = %d, want 4", p.ActiveObjects())
	}
	h.Retain()
	h.Release()
	if p.ActiveObjects() != 0 {
		t.Errorf("after destroying holder, ActiveObjects = %d, want 0 (children must cascade)", p.ActiveObjects())
	}
}

func TestAllocatorDetachStopsReuse(t *testing.T) {
	p, a := newTestPage(t, 4096)
	off, _ := a.Alloc(32, TCRaw)
	a.Detach()
	r := Ref{Page: p, Off: off}
	r.Retain()
	r.Release() // page inactive: object destroyed, space not recycled
	if p.ActiveObjects() != 0 {
		t.Error("objects on inactive managed blocks are still refcounted")
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
// page: every live object keeps its header intact and the active count
// matches the model.
func TestQuickAllocFreeInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		p := NewPage(1<<16, NewRegistry())
		a := NewAllocator(p)
		type obj struct {
			off  uint32
			size uint32
			fill byte
		}
		var live []obj
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				// free a pseudo-random live object
				i := int(op) % len(live)
				r := Ref{Page: p, Off: live[i].off}
				r.Retain()
				r.Release()
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := uint32(op%200) + 1
			off, err := a.Alloc(size, TCRaw)
			if err != nil {
				continue // page full is fine
			}
			fill := byte(op)
			r := Ref{Page: p, Off: off}
			for j := range r.Payload() {
				r.Payload()[j] = fill
			}
			live = append(live, obj{off, size, fill})
		}
		if int(p.ActiveObjects()) != len(live) {
			return false
		}
		for _, o := range live {
			r := Ref{Page: p, Off: o.off}
			if r.PayloadSize() != o.size || r.TypeCode() != TCRaw {
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
