package object

import (
	"encoding/binary"
	"math/bits"
)

// Policy selects how an allocation block reclaims the space of deallocated
// objects (paper Appendix B). It is set per computation.
type Policy uint8

const (
	// PolicyLightweightReuse (the default) recycles freed space through
	// size-bucketed freelists: a freed chunk of total size n goes into
	// bucket ceil(log2(n)); allocation scans the matching bucket before
	// bumping the watermark.
	PolicyLightweightReuse Policy = iota

	// PolicyNoReuse never reuses freed space — classical region
	// allocation. Fastest, at the cost of holes on the page.
	PolicyNoReuse

	// PolicyRecycling layers a per-type free object cache on top of
	// lightweight reuse: freed fixed-length objects are kept on a
	// per-type-code list and handed back verbatim to the next
	// zero-argument MakeObject of the same type.
	PolicyRecycling
)

// String names the policy as the paper's Appendix B does.
func (p Policy) String() string {
	switch p {
	case PolicyLightweightReuse:
		return "lightweight-reuse"
	case PolicyNoReuse:
		return "no-reuse"
	case PolicyRecycling:
		return "recycling"
	default:
		return "unknown"
	}
}

// ObjectPolicy selects per-object reference-counting behaviour at allocation
// time (paper Appendix B).
type ObjectPolicy uint8

const (
	// FullRefCount is the default: the object is reference counted and
	// destroyed when its count returns to zero.
	FullRefCount ObjectPolicy = iota

	// NoRefCount opts the object out of counting entirely; it lives
	// until its page is recycled (pure region semantics).
	NoRefCount

	// UniqueOwnership is not counted but destroyed when its single
	// referencing handle is destroyed or reassigned.
	UniqueOwnership
)

// AllocStats accumulates allocator activity for benchmarks and tests.
type AllocStats struct {
	Allocs         uint64
	Frees          uint64
	BytesAllocated uint64
	ReuseHits      uint64
	RecycleHits    uint64
	DeepCopies     uint64
}

const numBuckets = 32

// Allocator manages the active allocation block for one thread of execution
// — the paper's makeObjectAllocatorBlock. All MakeObject calls go to the
// current block; when it fills, ErrPageFull propagates and the caller (user
// code or the execution engine) installs a fresh page.
type Allocator struct {
	Page   *Page
	Policy Policy
	Stats  AllocStats

	reg     *Registry
	free    [numBuckets][]uint32 // freed payload offsets by ceil-log2(total size)
	recycle map[uint32][]uint32  // type code -> freed payload offsets
}

// NewAllocator makes page the active allocation block with the given reuse
// policy. The page must be managed. If the page was another allocator's
// active block, that block becomes inactive (its freelists are abandoned,
// matching the paper: inactive managed blocks only shrink).
func NewAllocator(p *Page, policy Policy) *Allocator {
	a := &Allocator{Page: p, Policy: policy, reg: p.Reg}
	if policy == PolicyRecycling {
		a.recycle = make(map[uint32][]uint32)
	}
	if p.alloc != nil {
		p.alloc.Page = nil
	}
	p.alloc = a
	return a
}

// Detach makes the allocator's page an inactive managed block (e.g. when the
// engine seals an output page for shipping) and returns it.
func (a *Allocator) Detach() *Page {
	p := a.Page
	if p != nil {
		p.alloc = nil
	}
	a.Page = nil
	return p
}

func bucketFor(total uint32) int {
	b := bits.Len32(total - 1)
	if b >= numBuckets {
		return numBuckets - 1
	}
	return b
}

func alignUp(n, a uint32) uint32 {
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// Alloc reserves space for an object with the given payload size, type code
// and per-object policy, returning the payload offset. The object starts
// with reference count zero; writing a handle to it (or Retain) takes
// ownership.
func (a *Allocator) Alloc(payloadSize, typeCode uint32, op ObjectPolicy) (uint32, error) {
	if a.Page == nil {
		return 0, ErrPageFull
	}
	size := alignUp(payloadSize, 8)
	total := ObjHeaderSize + size

	off := a.takeFree(total)
	if off == 0 {
		base := alignUp(a.Page.Used(), 4)
		if uint64(base)+uint64(total) > uint64(len(a.Page.Data)) {
			return 0, ErrPageFull
		}
		a.Page.setUsed(base + total)
		off = base + ObjHeaderSize
	}
	h := off - ObjHeaderSize
	var rc uint32
	switch op {
	case NoRefCount:
		rc = rcNoRefCount
	case UniqueOwnership:
		rc = rcUniqueOwner
	}
	d := a.Page.Data
	binary.LittleEndian.PutUint32(d[h:h+4], rc)
	binary.LittleEndian.PutUint32(d[h+4:h+8], typeCode)
	binary.LittleEndian.PutUint32(d[h+8:h+12], payloadSize)
	// Zero the payload and its alignment pad: recycled space, and a pooled
	// page's body, may hold stale bytes.
	clear(d[off : off+size])
	a.Page.setActiveObjects(a.Page.ActiveObjects() + 1)
	a.Stats.Allocs++
	a.Stats.BytesAllocated += uint64(total)
	return off, nil
}

// takeFree searches the reuse structures for a chunk able to hold total
// bytes, returning its payload offset or 0.
func (a *Allocator) takeFree(total uint32) uint32 {
	if a.Policy == PolicyNoReuse {
		return 0
	}
	b := bucketFor(total)
	list := a.free[b]
	for i, off := range list {
		chunkTotal := ObjHeaderSize + alignUp(a.chunkPayload(off), 8)
		if chunkTotal >= total {
			a.free[b] = append(list[:i], list[i+1:]...)
			a.Stats.ReuseHits++
			return off
		}
	}
	return 0
}

func (a *Allocator) chunkPayload(off uint32) uint32 {
	h := off - ObjHeaderSize
	return binary.LittleEndian.Uint32(a.Page.Data[h+8 : h+12])
}

// reclaim returns a destroyed object's space to the allocator (called from
// destroyObject when the object's page is this allocator's active block).
func (a *Allocator) reclaim(off, typeCode uint32) {
	a.Stats.Frees++
	switch a.Policy {
	case PolicyNoReuse:
		return
	case PolicyRecycling:
		if !IsSimpleCode(typeCode) && typeCode >= FirstUserTypeCode {
			a.recycle[typeCode] = append(a.recycle[typeCode], off)
			return
		}
	}
	total := ObjHeaderSize + alignUp(a.chunkPayload(off), 8)
	b := bucketFor(total)
	a.free[b] = append(a.free[b], off)
}

// takeRecycled pops a recycled object of the given type, if any. The object
// retains its previous header; the caller re-initializes the refcount word
// and zeroes the payload.
func (a *Allocator) takeRecycled(typeCode uint32) (uint32, bool) {
	if a.Policy != PolicyRecycling {
		return 0, false
	}
	list := a.recycle[typeCode]
	if len(list) == 0 {
		return 0, false
	}
	off := list[len(list)-1]
	a.recycle[typeCode] = list[:len(list)-1]
	a.Stats.RecycleHits++
	return off, true
}

// MakeObject allocates a zeroed instance of a registered user type with the
// default (full refcount) policy.
func (a *Allocator) MakeObject(ti *TypeInfo) (Ref, error) {
	return a.MakeObjectPolicy(ti, FullRefCount)
}

// MakeObjectPolicy allocates a zeroed instance of a registered user type
// with an explicit per-object policy. Under the recycling allocator policy,
// a previously freed object of the same type is reused when available
// (the paper's zero-argument-constructor fast path).
func (a *Allocator) MakeObjectPolicy(ti *TypeInfo, op ObjectPolicy) (Ref, error) {
	if off, ok := a.takeRecycled(ti.Code); ok {
		h := off - ObjHeaderSize
		d := a.Page.Data
		var rc uint32
		switch op {
		case NoRefCount:
			rc = rcNoRefCount
		case UniqueOwnership:
			rc = rcUniqueOwner
		}
		binary.LittleEndian.PutUint32(d[h:h+4], rc)
		clear(d[off : off+alignUp(ti.Size, 8)])
		a.Page.setActiveObjects(a.Page.ActiveObjects() + 1)
		a.Stats.Allocs++
		return Ref{Page: a.Page, Off: off}, nil
	}
	off, err := a.Alloc(ti.Size, ti.Code, op)
	if err != nil {
		return NilRef, err
	}
	return Ref{Page: a.Page, Off: off}, nil
}

// MakeRaw allocates an uninterpreted blob (simple type): no handles inside,
// memmove-copyable, with the size encoded in its type code.
func (a *Allocator) MakeRaw(size uint32) (Ref, error) {
	off, err := a.Alloc(size, SimpleCode(size), FullRefCount)
	if err != nil {
		return NilRef, err
	}
	return Ref{Page: a.Page, Off: off}, nil
}

// destroyObject runs the object's destructor (recursively releasing held
// handles) and frees its space. It is invoked when a refcount reaches zero
// or a unique owner dies.
func destroyObject(r Ref) {
	if r.IsNil() || !r.Page.Managed() {
		return
	}
	// Mark destroyed first to cut reference cycles: set count high bit
	// pattern? Simpler: drop active count and rely on acyclic graphs,
	// which the deep-copy discipline guarantees for cross-page data.
	releaseChildren(r)
	p := r.Page
	if n := p.ActiveObjects(); n > 0 {
		p.setActiveObjects(n - 1)
	}
	if p.alloc != nil {
		p.alloc.reclaim(r.Off, r.TypeCode())
	}
}

// releaseChildren releases every handle the object holds, dispatching on the
// object's type code.
func releaseChildren(r Ref) {
	tc := r.TypeCode()
	switch {
	case IsSimpleCode(tc), tc == TCString, tc == TCArray, tc == TCRaw, tc == TCNil:
		return
	case tc == TCVector:
		v := Vector{r}
		if v.ElemKind().IsHandleKind() {
			for i, n := 0, v.Len(); i < n; i++ {
				v.HandleAt(i).Release()
			}
		}
		v.dataRef().Release()
	case tc == TCMap:
		m := OMap{r}
		m.releaseEntries()
		m.slotsRef().Release()
	default:
		ti := lookupType(r)
		if ti == nil {
			return
		}
		for _, f := range ti.HandleFields() {
			GetHandleField(r, f).Release()
		}
	}
}

func lookupType(r Ref) *TypeInfo {
	if r.Page.Reg == nil {
		return nil
	}
	return r.Page.Reg.Lookup(r.TypeCode())
}
