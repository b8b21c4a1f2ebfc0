// Package object implements the PlinyCompute (PC) object model: a
// page-as-a-heap persistent object toolkit (paper §3, §6).
//
// All objects live in place on pages ([]byte arenas). References between
// objects are Handle slots holding a *relative offset* plus a type code, so
// a page can be written to disk or shipped across the (simulated) network as
// raw bytes with zero serialization cost: copying the page preserves every
// handle. This is the paper's "zero-cost data movement" principle.
//
// Every allocation block is a region: allocation bumps the page watermark
// and an object's space comes back only when its whole page is recycled, so
// objects have no destructors and no reference counts. Of the paper's
// Appendix B policies this is "no reuse"; lightweight reuse, recycling and
// the per-object opt-outs (no-refcount, unique ownership) are not
// implemented, since none of them lowered any workload's memory or time
// (ROADMAP.md's decision table, "allocation policy"). An object's header
// keeps only a referent mark, which DeepCopy reads to skip its memo.
package object

import "fmt"

// Kind identifies the primitive storage kind of a field, vector element, or
// map key/value inside a page. KString and KHandle occupy an 8-byte handle
// slot; KString merely documents that the pointee is a TCString object.
type Kind uint8

// Storage kinds. The set mirrors what the paper's C++ binding supports via
// the compiler-specified layout: scalar primitives, nested handles, and
// strings (which are themselves PC objects).
const (
	KInvalid Kind = iota
	KBool
	KInt32
	KInt64
	KFloat64
	KHandle
	KString
)

// Size returns the number of bytes the kind occupies inside an object
// payload, vector data array, or map slot.
func (k Kind) Size() uint32 {
	switch k {
	case KBool:
		return 1
	case KInt32:
		return 4
	case KInt64, KFloat64, KHandle, KString:
		return 8
	default:
		return 0
	}
}

// IsHandleKind reports whether values of this kind are stored as handle
// slots and therefore raise referent marks and take part in deep copies.
func (k Kind) IsHandleKind() bool { return k == KHandle || k == KString }

// String names the kind as schemas and error messages spell it.
func (k Kind) String() string {
	switch k {
	case KBool:
		return "bool"
	case KInt32:
		return "int32"
	case KInt64:
		return "int64"
	case KFloat64:
		return "float64"
	case KHandle:
		return "handle"
	case KString:
		return "string"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Built-in type codes. Codes below FirstUserTypeCode are reserved for the
// object model itself; catalog-registered user types start at
// FirstUserTypeCode. Codes with the SimpleTypeBit set denote "simple" types
// in the paper's sense (no handles, no virtual functions; a memmove suffices
// to copy them) and encode the object size in the low 31 bits.
const (
	TCNil    uint32 = 0
	TCArray  uint32 = 1 // raw element storage backing Vector and Map
	TCString uint32 = 2 // variable-length byte string
	TCVector uint32 = 3 // generic vector container
	TCMap    uint32 = 4 // generic hash map container
	TCRaw    uint32 = 5 // uninterpreted blob

	// FirstUserTypeCode is the first code the catalog hands out to
	// registered user types (paper §6.3's registered Object descendants).
	FirstUserTypeCode uint32 = 1000

	// SimpleTypeBit marks a type code as a "simple" (memmove-copyable)
	// type whose size is encoded in the remaining bits (paper §6.3).
	SimpleTypeBit uint32 = 1 << 31
)

// SimpleCode builds the type code for a simple (flat, handle-free) type of
// the given payload size.
func SimpleCode(size uint32) uint32 { return SimpleTypeBit | (size &^ SimpleTypeBit) }

// IsSimpleCode reports whether tc denotes a simple type.
func IsSimpleCode(tc uint32) bool { return tc&SimpleTypeBit != 0 }

// SimpleSize extracts the object size encoded in a simple type code.
func SimpleSize(tc uint32) uint32 { return tc &^ SimpleTypeBit }
