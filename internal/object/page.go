package object

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Layout constants for the on-page binary format. Everything needed to
// interpret a page is stored inside the page bytes themselves so that a page
// remains valid after a byte-wise move between processes, to disk, or over
// the network.
const (
	// PageHeaderSize is the fixed page header:
	//   [0:4]   magic "PCPG"
	//   [4:8]   used watermark (next free offset)
	//   [8:12]  unused, always zero (ROADMAP item 30(b) retires it with
	//           the next format bump)
	//   [12:16] root object payload offset (0 = none)
	//   [16:20] unused, written zero and ignored on read (item 30(b)
	//           retires it with [8:12])
	//   [20:24] reserved
	PageHeaderSize = 24

	// ObjHeaderSize is the per-object header preceding each payload:
	//   [0:4] referent mark: 0, 1, or 2 for more than one (Retain)
	//   [4:8] type code
	//   [8:12] payload size
	ObjHeaderSize = 12

	// HandleSize is the size of an in-page handle slot:
	//   [0:4] relative offset (int32, target payload offset minus slot
	//         offset; 0 = nil)
	//   [4:8] type code of the pointee
	HandleSize = 8
)

const pageMagic = "PCPG"

// Common object-model errors.
var (
	// ErrPageFull is returned when an allocation does not fit on the
	// active allocation block. The execution engine reacts by obtaining
	// a fresh page (paper §6.1: "out-of-memory execution ... means that
	// the page is full").
	ErrPageFull = errors.New("object: allocation block full")

	// ErrBadPage is returned when page bytes fail validation.
	ErrBadPage = errors.New("object: invalid page bytes")

	// ErrCrossPage is returned when a handle located outside the active
	// allocation block is assigned a target on a different page; the
	// object model only performs the automatic deep copy for handles on
	// the active block (paper §6.4).
	ErrCrossPage = errors.New("object: cross-page handle assignment outside active block")
)

// Page is a block of memory in which PC objects are allocated in place.
// Only Data is meaningful for persistence; the remaining fields are runtime
// bookkeeping (registry association, the active allocator) and are
// reconstructed when a page is adopted by a process via FromBytes.
type Page struct {
	Data []byte

	// Reg resolves type codes for deep-copy traversal.
	// It is process-local state, never persisted.
	Reg *Registry

	// seal is Seal's record (pagecheck.go), zero-size without the tag.
	seal sealRecord

	// alloc points at the allocator currently treating this page as its
	// active block, if any, so a new allocator on the page can take it
	// from the old one. A detached page is an inactive block: its objects'
	// referent marks still rise, and nothing allocates on it.
	alloc *Allocator
}

// NewPage creates an empty page of the given total size.
func NewPage(size int, reg *Registry) *Page {
	if size < PageHeaderSize+ObjHeaderSize {
		panic(fmt.Sprintf("object: page size %d too small", size))
	}
	p := &Page{Data: make([]byte, size), Reg: reg}
	copy(p.Data[0:4], pageMagic)
	p.setUsed(PageHeaderSize)
	return p
}

// FromBytes adopts page bytes received from disk or the network. It
// validates the header and writes nothing: the page's bytes alone decide its
// watermark and its objects' referent marks, so an adopted page behaves
// exactly like the page it was copied from.
func FromBytes(b []byte, reg *Registry) (*Page, error) {
	if len(b) < PageHeaderSize || string(b[0:4]) != pageMagic {
		return nil, ErrBadPage
	}
	p := &Page{Data: b, Reg: reg}
	if int(p.Used()) > len(b) {
		return nil, fmt.Errorf("%w: used %d exceeds page size %d", ErrBadPage, p.Used(), len(b))
	}
	return p, nil
}

// Bytes returns the occupied prefix of the page: the bytes that must be
// moved to ship every object on the page. Shipping a page is exactly one
// copy of these bytes — the zero-cost data movement principle — into a
// page-pool frame on the receiving side when the page is the pool's size.
// Past the prefix a recycled frame holds a former page's bytes, which
// nothing reads.
func (p *Page) Bytes() []byte { return p.Data[:p.Used()] }

// Used returns the allocation watermark.
func (p *Page) Used() uint32 { return binary.LittleEndian.Uint32(p.Data[4:8]) }

func (p *Page) setUsed(u uint32) { binary.LittleEndian.PutUint32(p.Data[4:8], u) }

// Root returns the payload offset of the page's root object (by convention
// the top-level container, e.g. a Vector of handles), or 0 if unset.
func (p *Page) Root() uint32 { return binary.LittleEndian.Uint32(p.Data[12:16]) }

// SetRoot records the page's root object.
func (p *Page) SetRoot(off uint32) {
	binary.LittleEndian.PutUint32(p.Data[12:16], off)
}

// Remaining returns the free bytes left on the page past the watermark.
func (p *Page) Remaining() uint32 { return uint32(len(p.Data)) - p.Used() }

// Ref is a process-local reference to an object payload on a page. Unlike
// in-page handle slots (which hold relative offsets), a Ref carries the page
// pointer and is only valid within the current process.
type Ref struct {
	Page *Page
	Off  uint32 // payload offset; header lives at Off-ObjHeaderSize
}

// NilRef is the zero Ref.
var NilRef = Ref{}

// IsNil reports whether the Ref points at nothing.
func (r Ref) IsNil() bool { return r.Page == nil || r.Off == 0 }

func (r Ref) header() uint32 { return r.Off - ObjHeaderSize }

// TypeCode returns the object's type code from its header.
func (r Ref) TypeCode() uint32 {
	return binary.LittleEndian.Uint32(r.Page.Data[r.header()+4 : r.header()+8])
}

// PayloadSize returns the object's payload size from its header.
func (r Ref) PayloadSize() uint32 {
	return binary.LittleEndian.Uint32(r.Page.Data[r.header()+8 : r.header()+12])
}

// Payload returns the object's payload bytes.
func (r Ref) Payload() []byte { return r.Page.Data[r.Off : r.Off+r.PayloadSize()] }

func (r Ref) rcWord() uint32 {
	return binary.LittleEndian.Uint32(r.Page.Data[r.header() : r.header()+4])
}

func (r Ref) setRCWord(w uint32) {
	binary.LittleEndian.PutUint32(r.Page.Data[r.header():r.header()+4], w)
}

// RefCount returns the object's referent mark: 0, 1, or 2 for more than
// one. It is exact only while it is below 2.
func (r Ref) RefCount() uint32 { return r.rcWord() }

// soleReferent reports whether the object's header shows exactly one way in:
// a referent mark of one. Reached through a handle slot, such an object
// cannot be reached again through another (DeepCopy skips its memo for it).
// Marks live in the page bytes, so the answer holds for shipped and stored
// copies too.
func (r Ref) soleReferent() bool { return r.rcWord() == 1 }

// Retain raises the referent mark (a handle slot written to the object, or
// a Go-side owning reference, the analogue of holding a Handle variable in
// the C++ binding). The mark saturates at 2, "more than one"; nothing lowers
// it, since an object's space returns only with its page. It writes the page
// that holds the object, whichever page that is: the engine retains only
// objects on pages it is still writing, and a sealed, shipped or stored page
// is only read (paper §6.5's lock-free cross-thread reads).
func (r Ref) Retain() {
	if r.IsNil() {
		return
	}
	if w := r.rcWord(); w < 2 {
		r.setRCWord(w + 1)
	}
}
