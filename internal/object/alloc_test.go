package object

import (
	"testing"
	"testing/quick"
)

func TestAllocBasics(t *testing.T) {
	_, a := newTestPage(t, 4096)
	off, err := a.Alloc(16, TCRaw, FullRefCount)
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
		if _, lastErr = a.Alloc(64, TCRaw, FullRefCount); lastErr != nil {
			break
		}
	}
	if lastErr != ErrPageFull {
		t.Fatalf("expected ErrPageFull, got %v", lastErr)
	}
}

// TestAllocZeroesRecycledSpace: Alloc zeroes a payload and its pad up to
// the next multiple of 8 — and no byte past it — whether the space comes
// off a freelist or from the body of a pooled page, which Reset does not
// clear.
func TestAllocZeroesRecycledSpace(t *testing.T) {
	// zeroed checks the payload of a size-byte object at off and its pad,
	// and that the byte after the pad — the next header — is still 0xFF.
	zeroed := func(what string, d []byte, off, size uint32) {
		t.Helper()
		end := off + alignUp(size, 8)
		for i := off; i < end; i++ {
			if d[i] != 0 {
				t.Fatalf("%s: byte %d of a %d-byte payload = %#x, want 0", what, i-off, size, d[i])
			}
		}
		if d[end] != 0xFF {
			t.Fatalf("%s: the byte past a %d-byte payload's pad was cleared", what, size)
		}
	}

	// A freed chunk, payload and pad dirty, handed back by lightweight reuse.
	p, a := newTestPage(t, 4096)
	for _, size := range []uint32{32, 29} {
		off, _ := a.Alloc(size, TCRaw, FullRefCount)
		r := Ref{Page: p, Off: off}
		for i := off; i < off+alignUp(size, 8)+1; i++ {
			p.Data[i] = 0xFF
		}
		r.Retain()
		r.Release() // freed -> freelist
		off2, _ := a.Alloc(size, TCRaw, FullRefCount)
		if off2 != off {
			t.Fatalf("lightweight reuse should hand back the freed chunk (got %d, want %d)", off2, off)
		}
		zeroed("freelist", p.Data, off2, size)
	}

	// A pooled page whose body was all 0xFF when it went back to the pool.
	// Under the race detector sync.Pool drops Puts at random, so the round
	// trip repeats until a page comes back.
	pool := NewPagePool(4096)
	for i := 0; i < 64 && pool.Reuses() == 0; i++ {
		p = pool.Get(NewRegistry())
		for j := PageHeaderSize; j < len(p.Data); j++ {
			p.Data[j] = 0xFF
		}
		pool.Put(p)
		p = pool.Get(NewRegistry())
	}
	if pool.Reuses() == 0 {
		t.Fatal("the pool never handed a page back")
	}
	a = NewAllocator(p, PolicyLightweightReuse)
	for _, size := range []uint32{1, 3, 7, 8, 13, 20, 31} {
		off, err := a.Alloc(size, TCRaw, FullRefCount)
		if err != nil {
			t.Fatal(err)
		}
		zeroed("pooled page", p.Data, off, size)
	}
}

func TestPolicyNoReuseNeverRecycles(t *testing.T) {
	p := NewPage(4096, NewRegistry())
	a := NewAllocator(p, PolicyNoReuse)
	off, _ := a.Alloc(32, TCRaw, FullRefCount)
	r := Ref{Page: p, Off: off}
	r.Retain()
	usedBefore := p.Used()
	r.Release()
	off2, _ := a.Alloc(32, TCRaw, FullRefCount)
	if off2 == off {
		t.Error("no-reuse policy must not reuse freed space")
	}
	if p.Used() <= usedBefore {
		t.Error("no-reuse allocation should advance the watermark")
	}
}

func TestPolicyRecyclingReusesSameType(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Recyclable").
		AddField("x", KFloat64).
		AddField("y", KInt64).
		MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p, PolicyRecycling)

	r1, err := a.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	off1 := r1.Off
	SetF64(r1, ti.Field("x"), 42)
	r1.Retain()
	r1.Release()

	r2, err := a.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Off != off1 {
		t.Errorf("recycling should reuse the exact object slot: got %d, want %d", r2.Off, off1)
	}
	if a.Stats.RecycleHits != 1 {
		t.Errorf("RecycleHits = %d, want 1", a.Stats.RecycleHits)
	}
	if GetF64(r2, ti.Field("x")) != 0 {
		t.Error("recycled object payload must be zeroed")
	}
}

func TestNoRefCountObjectPolicy(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Region").AddField("x", KInt64).MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p, PolicyLightweightReuse)

	r, err := a.MakeObjectPolicy(ti, NoRefCount)
	if err != nil {
		t.Fatal(err)
	}
	if !r.NoRefCount() {
		t.Fatal("object should carry the no-refcount flag")
	}
	r.Retain()
	r.Release()
	r.Release()
	if p.ActiveObjects() != 1 {
		t.Error("no-refcount object must never be freed by Release")
	}
}

func TestUniqueOwnershipFreesOnRelease(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Uniq").AddField("x", KInt64).MustBuild(reg)
	p := NewPage(4096, reg)
	a := NewAllocator(p, PolicyLightweightReuse)

	r, err := a.MakeObjectPolicy(ti, UniqueOwnership)
	if err != nil {
		t.Fatal(err)
	}
	if !r.UniqueOwner() {
		t.Fatal("object should carry unique-ownership flag")
	}
	r.Release()
	if p.ActiveObjects() != 0 {
		t.Error("unique-owner release must destroy the object")
	}
}

func TestDestructorReleasesChildren(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Holder").
		AddField("name", KString).
		AddField("data", KHandle).
		MustBuild(reg)
	p := NewPage(8192, reg)
	a := NewAllocator(p, PolicyLightweightReuse)

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
	off, _ := a.Alloc(32, TCRaw, FullRefCount)
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
		off, err := a.Alloc(sz, TCRaw, FullRefCount)
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
		a := NewAllocator(p, PolicyLightweightReuse)
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
			off, err := a.Alloc(size, TCRaw, FullRefCount)
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
