package object

import "encoding/binary"

// Policy is kept only so callers that still pass NewAllocator a policy
// compile: every allocation block is a region, and the argument is ignored.
type Policy uint8

// Deprecated: ignored by NewAllocator. ROADMAP item 1(a) deletes it.
const PolicyLightweightReuse Policy = 0

// Allocator manages the active allocation block for one thread of execution
// — the paper's makeObjectAllocatorBlock. All MakeObject calls go to the
// current block; when it fills, ErrPageFull propagates and the caller (user
// code or the execution engine) installs a fresh page.
//
// Every block is a region (paper Appendix B's "no reuse" policy): Alloc bumps
// the page watermark, and an object's space comes back only when its whole
// page does (PagePool.Put), so no object has a destructor. The page's bytes
// and its watermark are therefore the allocator's whole state, so a byte
// copy of a page resumes allocation exactly where the original would.
type Allocator struct {
	Page *Page
}

// NewAllocator makes page the active allocation block: a fresh page, or the
// byte copy of one, which resumes at its watermark. If the page was another
// allocator's active block, that allocator loses it (its Page becomes nil).
func NewAllocator(p *Page, _ ...Policy) *Allocator {
	a := &Allocator{Page: p}
	if p.alloc != nil {
		p.alloc.Page = nil
	}
	p.alloc = a
	return a
}

// Detach makes the allocator's page an inactive block (e.g. when the engine
// seals an output page for shipping) and returns it. Nothing allocates on it
// any more; its bytes are unchanged.
func (a *Allocator) Detach() *Page {
	p := a.Page
	if p != nil {
		p.alloc = nil
	}
	a.Page = nil
	return p
}

func alignUp(n, a uint32) uint32 {
	if rem := n % a; rem != 0 {
		return n + a - rem
	}
	return n
}

// Alloc reserves space for an object with the given payload size and type
// code past the page watermark, returning the payload offset. The object
// starts with a referent mark of zero; writing a handle to it (or Retain)
// raises the mark.
func (a *Allocator) Alloc(payloadSize, typeCode uint32) (uint32, error) {
	if a.Page == nil {
		return 0, ErrPageFull
	}
	size := alignUp(payloadSize, 8)
	total := ObjHeaderSize + size
	base := alignUp(a.Page.Used(), 4)
	if uint64(base)+uint64(total) > uint64(len(a.Page.Data)) {
		return 0, ErrPageFull
	}
	a.Page.setUsed(base + total)
	off := base + ObjHeaderSize
	d := a.Page.Data
	binary.LittleEndian.PutUint32(d[base:base+4], 0)
	binary.LittleEndian.PutUint32(d[base+4:base+8], typeCode)
	binary.LittleEndian.PutUint32(d[base+8:base+12], payloadSize)
	// Zero the payload and its alignment pad: a pooled page's body may hold
	// stale bytes.
	clear(d[off : off+size])
	return off, nil
}

// MakeObject allocates a zeroed instance of a registered user type.
func (a *Allocator) MakeObject(ti *TypeInfo) (Ref, error) {
	off, err := a.Alloc(ti.Size, ti.Code)
	if err != nil {
		return NilRef, err
	}
	return Ref{Page: a.Page, Off: off}, nil
}

// MakeRaw allocates an uninterpreted blob (simple type): no handles inside,
// memmove-copyable, with the size encoded in its type code.
func (a *Allocator) MakeRaw(size uint32) (Ref, error) {
	off, err := a.Alloc(size, SimpleCode(size))
	if err != nil {
		return NilRef, err
	}
	return Ref{Page: a.Page, Off: off}, nil
}

func lookupType(r Ref) *TypeInfo {
	if r.Page.Reg == nil {
		return nil
	}
	return r.Page.Reg.Lookup(r.TypeCode())
}
