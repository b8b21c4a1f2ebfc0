package object

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Vector is PC's generic growable array container, stored entirely in-page:
// a fixed header (length, capacity, element kind, handle to the backing
// array object). Element storage is a separate TCArray object on the same
// page, so growth allocates a new array; the old one stays on the page,
// unreachable, until the page is recycled.
//
// Vector element kinds: scalars are stored inline; KHandle/KString elements
// are 8-byte handle slots inside the array, so nested object graphs stay
// page-local and shippable.
type Vector struct{ Ref }

const (
	vecLenOff  = 0
	vecCapOff  = 4
	vecKindOff = 8
	vecDataOff = 12
	vecHdrSize = vecDataOff + HandleSize
)

// MakeVector allocates an empty vector with the given element kind and
// initial capacity on the active block.
func MakeVector(a *Allocator, elem Kind, initCap int) (Vector, error) {
	if elem.Size() == 0 {
		return Vector{}, fmt.Errorf("object: vector of invalid kind %v", elem)
	}
	if initCap < 0 {
		initCap = 0
	}
	off, err := a.Alloc(vecHdrSize, TCVector)
	if err != nil {
		return Vector{}, err
	}
	v := Vector{Ref{Page: a.Page, Off: off}}
	d := v.Page.Data
	binary.LittleEndian.PutUint32(d[off+vecCapOff:], uint32(initCap))
	binary.LittleEndian.PutUint32(d[off+vecKindOff:], uint32(elem))
	if initCap > 0 {
		arr, err := a.Alloc(uint32(initCap)*elem.Size(), TCArray)
		if err != nil {
			return Vector{}, err
		}
		if err := WriteHandleSlot(a, v.Page, off+vecDataOff, Ref{Page: a.Page, Off: arr}); err != nil {
			return Vector{}, err
		}
	}
	return v, nil
}

// AsVector views a Ref known to be a vector.
func AsVector(r Ref) Vector { return Vector{r} }

// Len returns the element count.
func (v Vector) Len() int {
	return int(binary.LittleEndian.Uint32(v.Page.Data[v.Off+vecLenOff:]))
}

// Cap returns the current capacity.
func (v Vector) Cap() int {
	return int(binary.LittleEndian.Uint32(v.Page.Data[v.Off+vecCapOff:]))
}

// ElemKind returns the element storage kind.
func (v Vector) ElemKind() Kind {
	return Kind(binary.LittleEndian.Uint32(v.Page.Data[v.Off+vecKindOff:]))
}

func (v Vector) setLen(n int) {
	binary.LittleEndian.PutUint32(v.Page.Data[v.Off+vecLenOff:], uint32(n))
}

func (v Vector) setCap(n int) {
	binary.LittleEndian.PutUint32(v.Page.Data[v.Off+vecCapOff:], uint32(n))
}

func (v Vector) dataRef() Ref { return ReadHandleSlot(v.Page, v.Off+vecDataOff) }

// elemOff returns the absolute page offset of element i.
func (v Vector) elemOff(i int) uint32 {
	return v.dataRef().Off + uint32(i)*v.ElemKind().Size()
}

// grow ensures capacity for at least need elements, reallocating the backing
// array (and rewriting relative handle offsets, which move with the slots).
func (v Vector) grow(a *Allocator, need int) error {
	cap := v.Cap()
	if need <= cap {
		return nil
	}
	newCap := cap * 2
	if newCap < 8 {
		newCap = 8
	}
	for newCap < need {
		newCap *= 2
	}
	kind := v.ElemKind()
	es := kind.Size()
	arrOff, err := a.Alloc(uint32(newCap)*es, TCArray)
	if err != nil {
		return err
	}
	old := v.dataRef()
	n := v.Len()
	d := v.Page.Data
	if !old.IsNil() && n > 0 {
		if kind.IsHandleKind() {
			// Re-anchor every handle slot at its new location; the
			// targets do not move, only the slots do, so referent
			// marks are untouched.
			for i := 0; i < n; i++ {
				oldSlot := old.Off + uint32(i)*es
				newSlot := arrOff + uint32(i)*es
				rewriteHandleSlotRaw(v.Page, newSlot, ReadHandleSlot(v.Page, oldSlot))
			}
		} else {
			copy(d[arrOff:arrOff+uint32(n)*es], d[old.Off:old.Off+uint32(n)*es])
		}
	}
	// Point the vector at the new array. The old one stays where it is,
	// unreachable, until its page is recycled.
	newArr := Ref{Page: v.Page, Off: arrOff}
	rewriteHandleSlotRaw(v.Page, v.Off+vecDataOff, newArr)
	newArr.Retain()
	v.setCap(newCap)
	return nil
}

// PushBack appends a Value of the vector's element kind. Handle values on a
// foreign page are deep-copied by the slot-write rule.
func (v Vector) PushBack(a *Allocator, val Value) error {
	n := v.Len()
	if err := v.grow(a, n+1); err != nil {
		return err
	}
	v.setLen(n + 1)
	if err := v.Set(a, n, val); err != nil {
		// Roll back the length: a handle or string element can fault
		// mid-write (the deep copy of a cross-page target can fill the
		// page), and the caller's rotate-and-retry must not leave a
		// phantom nil element behind on the page being sealed.
		v.setLen(n)
		return err
	}
	return nil
}

// PushBackF64 is the float64 fast path.
func (v Vector) PushBackF64(a *Allocator, f float64) error {
	n := v.Len()
	if err := v.grow(a, n+1); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(v.Page.Data[v.elemOff(n):], float64bits(f))
	v.setLen(n + 1)
	return nil
}

// PushBackI64 is the int64 fast path.
func (v Vector) PushBackI64(a *Allocator, x int64) error {
	n := v.Len()
	if err := v.grow(a, n+1); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(v.Page.Data[v.elemOff(n):], uint64(x))
	v.setLen(n + 1)
	return nil
}

// PushBackHandle appends a handle element.
func (v Vector) PushBackHandle(a *Allocator, target Ref) error {
	return v.PushBack(a, HandleValue(target))
}

// Set writes element i from a Value.
func (v Vector) Set(a *Allocator, i int, val Value) error {
	if i < 0 || i >= v.Len() {
		return fmt.Errorf("object: vector index %d out of range [0,%d)", i, v.Len())
	}
	off := v.elemOff(i)
	d := v.Page.Data
	switch v.ElemKind() {
	case KBool:
		if val.B {
			d[off] = 1
		} else {
			d[off] = 0
		}
	case KInt32:
		binary.LittleEndian.PutUint32(d[off:], uint32(val.AsInt64()))
	case KInt64:
		binary.LittleEndian.PutUint64(d[off:], uint64(val.AsInt64()))
	case KFloat64:
		binary.LittleEndian.PutUint64(d[off:], float64bits(val.AsFloat64()))
	case KString:
		if val.K == KString {
			sr, err := MakeStringBytes(a, val.strBytes())
			if err != nil {
				return err
			}
			return WriteHandleSlot(a, v.Page, off, sr)
		}
		return WriteHandleSlot(a, v.Page, off, val.H)
	case KHandle:
		return WriteHandleSlot(a, v.Page, off, val.H)
	default:
		return fmt.Errorf("object: vector of invalid kind")
	}
	return nil
}

// At reads element i as a Value.
func (v Vector) At(i int) Value {
	off := v.elemOff(i)
	d := v.Page.Data
	switch v.ElemKind() {
	case KBool:
		return BoolValue(d[off] != 0)
	case KInt32:
		return Int32Value(int32(binary.LittleEndian.Uint32(d[off:])))
	case KInt64:
		return Int64Value(int64(binary.LittleEndian.Uint64(d[off:])))
	case KFloat64:
		return Float64Value(float64frombits(binary.LittleEndian.Uint64(d[off:])))
	case KString:
		return StringRefValue(ReadHandleSlot(v.Page, off))
	case KHandle:
		return HandleValue(ReadHandleSlot(v.Page, off))
	default:
		return Value{}
	}
}

// F64At is the float64 fast path.
func (v Vector) F64At(i int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(v.Page.Data[v.elemOff(i):]))
}

// I64At is the int64 fast path.
func (v Vector) I64At(i int) int64 {
	return int64(binary.LittleEndian.Uint64(v.Page.Data[v.elemOff(i):]))
}

// HandleAt resolves handle element i.
func (v Vector) HandleAt(i int) Ref { return ReadHandleSlot(v.Page, v.elemOff(i)) }

// SetF64 writes float64 element i without bounds allocation overhead.
func (v Vector) SetF64(i int, f float64) {
	binary.LittleEndian.PutUint64(v.Page.Data[v.elemOff(i):], float64bits(f))
}

// F64Span is a resolved view over a float64 vector's storage: the handle
// indirection is paid once, then element access is a direct byte-offset
// read/write — the Go analogue of Eigen mapping the raw block through
// getRawDataHandle()->c_ptr() (paper §8.3.1). The span is invalidated by
// any operation that grows the vector.
type F64Span struct {
	d    []byte
	base uint32
	n    int
}

// F64Span resolves the vector's storage for hot loops.
func (v Vector) F64Span() F64Span {
	n := v.Len()
	if n == 0 {
		return F64Span{}
	}
	return F64Span{d: v.Page.Data, base: v.elemOff(0), n: n}
}

// Len returns the element count.
func (s F64Span) Len() int { return s.n }

// At reads element i.
func (s F64Span) At(i int) float64 {
	return float64frombits(binary.LittleEndian.Uint64(s.d[s.base+uint32(i)*8:]))
}

// Set writes element i.
func (s F64Span) Set(i int, x float64) {
	binary.LittleEndian.PutUint64(s.d[s.base+uint32(i)*8:], float64bits(x))
}

// Add increments element i by delta.
func (s F64Span) Add(i int, delta float64) {
	off := s.base + uint32(i)*8
	cur := float64frombits(binary.LittleEndian.Uint64(s.d[off:]))
	binary.LittleEndian.PutUint64(s.d[off:], float64bits(cur+delta))
}

// AppendTo appends the span's elements to dst and returns the extended
// slice. Over a stack array (buf[:0]) it reads a point off its page into Go
// floats without allocating; a span longer than the array spills to the heap
// as append does.
func (s F64Span) AppendTo(dst []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, s.n)[:n+s.n]
	b := s.d[s.base : s.base+uint32(s.n)*8]
	for i := range dst[n:] {
		dst[n+i] = float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return dst
}

// Float64Slice copies the vector's contents into a fresh Go slice (bridging
// into numeric kernels, the analogue of Eigen mapping the raw block).
func (v Vector) Float64Slice() []float64 {
	return v.F64Span().AppendTo(make([]float64, 0, v.Len()))
}

// AppendF64Span bulk-appends the elements of another float64 vector's span,
// page to page: the bytes are copied as they lie, no Go floats in between. s
// must not be a span of v itself (growing v may move its storage).
func (v Vector) AppendF64Span(a *Allocator, s F64Span) error {
	n := v.Len()
	if err := v.grow(a, n+s.n); err != nil {
		return err
	}
	if s.n > 0 {
		copy(v.Page.Data[v.dataRef().Off+uint32(n)*8:], s.d[s.base:s.base+uint32(s.n)*8])
	}
	v.setLen(n + s.n)
	return nil
}

// AppendFloat64s bulk-appends a Go slice into a float64 vector.
func (v Vector) AppendFloat64s(a *Allocator, xs []float64) error {
	n := v.Len()
	if err := v.grow(a, n+len(xs)); err != nil {
		return err
	}
	d := v.Page.Data
	base := v.dataRef().Off + uint32(n)*8
	for i, x := range xs {
		binary.LittleEndian.PutUint64(d[base+uint32(i)*8:], float64bits(x))
	}
	v.setLen(n + len(xs))
	return nil
}
