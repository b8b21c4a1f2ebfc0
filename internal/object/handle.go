package object

import (
	"encoding/binary"
	"fmt"
)

// In-page handle slots: 8 bytes holding (relative offset, type code). The
// relative offset is the target payload offset minus the slot offset, so the
// slot stays valid when the whole page is moved byte-wise.

// ReadHandleSlot resolves the handle slot at slotOff on page p.
func ReadHandleSlot(p *Page, slotOff uint32) Ref {
	rel := int32(binary.LittleEndian.Uint32(p.Data[slotOff : slotOff+4]))
	if rel == 0 {
		return NilRef
	}
	return Ref{Page: p, Off: uint32(int64(slotOff) + int64(rel))}
}

// HandleSlotTypeCode returns the pointee type code stored in the slot
// without dereferencing (used for dispatch decisions before touching the
// target, paper §6.3).
func HandleSlotTypeCode(p *Page, slotOff uint32) uint32 {
	return binary.LittleEndian.Uint32(p.Data[slotOff+4 : slotOff+8])
}

// WriteHandleSlot assigns target to the handle slot at slotOff on page p,
// enforcing the object model's cross-block rule: if the slot lives on the
// active allocation block of a and the target lives on a different page, the
// target is deep-copied into the active block so that every page remains
// self-contained and zero-cost movable (paper §6.4).
//
// The new target is retained, which raises its referent mark on whichever
// page holds it; the old target is left as it is, its space reclaimed with its page.
func WriteHandleSlot(a *Allocator, p *Page, slotOff uint32, target Ref) error {
	if !target.IsNil() && target.Page != p {
		if a == nil || a.Page != p {
			return ErrCrossPage
		}
		copied, err := DeepCopy(a, target)
		if err != nil {
			return err
		}
		target = copied
	}

	d := p.Data
	if target.IsNil() {
		binary.LittleEndian.PutUint32(d[slotOff:slotOff+4], 0)
		binary.LittleEndian.PutUint32(d[slotOff+4:slotOff+8], TCNil)
	} else {
		rel := int64(target.Off) - int64(slotOff)
		if rel == 0 {
			return fmt.Errorf("object: handle slot cannot point at itself")
		}
		binary.LittleEndian.PutUint32(d[slotOff:slotOff+4], uint32(int32(rel)))
		binary.LittleEndian.PutUint32(d[slotOff+4:slotOff+8], target.TypeCode())
		target.Retain()
	}
	return nil
}

// rewriteHandleSlotRaw rewrites a slot's relative offset for a target known
// to be on the same page, without touching referent marks (used by map
// rehashing and array growth where the logical reference set is unchanged).
func rewriteHandleSlotRaw(p *Page, slotOff uint32, target Ref) {
	d := p.Data
	if target.IsNil() {
		binary.LittleEndian.PutUint32(d[slotOff:slotOff+4], 0)
		binary.LittleEndian.PutUint32(d[slotOff+4:slotOff+8], TCNil)
		return
	}
	rel := int64(target.Off) - int64(slotOff)
	binary.LittleEndian.PutUint32(d[slotOff:slotOff+4], uint32(int32(rel)))
	binary.LittleEndian.PutUint32(d[slotOff+4:slotOff+8], target.TypeCode())
}

// Scalar field accessors for registered user types. Hot paths take a *Field
// (resolved once) rather than a name.

// GetF64 reads a float64 field.
func GetF64(r Ref, f *Field) float64 {
	return float64frombits(binary.LittleEndian.Uint64(r.Page.Data[r.Off+f.Off : r.Off+f.Off+8]))
}

// SetF64 writes a float64 field.
func SetF64(r Ref, f *Field, v float64) {
	binary.LittleEndian.PutUint64(r.Page.Data[r.Off+f.Off:r.Off+f.Off+8], float64bits(v))
}

// GetI32 reads an int32 field.
func GetI32(r Ref, f *Field) int32 {
	return int32(binary.LittleEndian.Uint32(r.Page.Data[r.Off+f.Off : r.Off+f.Off+4]))
}

// SetI32 writes an int32 field.
func SetI32(r Ref, f *Field, v int32) {
	binary.LittleEndian.PutUint32(r.Page.Data[r.Off+f.Off:r.Off+f.Off+4], uint32(v))
}

// GetI64 reads an int64 field.
func GetI64(r Ref, f *Field) int64 {
	return int64(binary.LittleEndian.Uint64(r.Page.Data[r.Off+f.Off : r.Off+f.Off+8]))
}

// SetI64 writes an int64 field.
func SetI64(r Ref, f *Field, v int64) {
	binary.LittleEndian.PutUint64(r.Page.Data[r.Off+f.Off:r.Off+f.Off+8], uint64(v))
}

// GetBool reads a bool field.
func GetBool(r Ref, f *Field) bool { return r.Page.Data[r.Off+f.Off] != 0 }

// SetBool writes a bool field.
func SetBool(r Ref, f *Field, v bool) {
	if v {
		r.Page.Data[r.Off+f.Off] = 1
	} else {
		r.Page.Data[r.Off+f.Off] = 0
	}
}

// GetHandleField resolves a handle (or string) field to its target.
func GetHandleField(r Ref, f *Field) Ref { return ReadHandleSlot(r.Page, r.Off+f.Off) }

// SetHandleField assigns a handle field, applying the cross-block deep-copy
// rule through WriteHandleSlot.
func SetHandleField(a *Allocator, r Ref, f *Field, target Ref) error {
	return WriteHandleSlot(a, r.Page, r.Off+f.Off, target)
}

// GetStrField copies a string field's contents into a Go string ("" for
// nil). Hot paths read the field as a handle (GetHandleField, GetField) and
// work on StringBytes instead.
func GetStrField(r Ref, f *Field) string { return StringContents(GetHandleField(r, f)) }

// SetStrField allocates a string object on the active block and points the
// field at it.
func SetStrField(a *Allocator, r Ref, f *Field, s string) error {
	sr, err := MakeString(a, s)
	if err != nil {
		return err
	}
	return SetHandleField(a, r, f, sr)
}

// GetField reads any field as a Value, dispatching on the field kind.
func GetField(r Ref, f *Field) Value {
	switch f.Kind {
	case KBool:
		return BoolValue(GetBool(r, f))
	case KInt32:
		return Int32Value(GetI32(r, f))
	case KInt64:
		return Int64Value(GetI64(r, f))
	case KFloat64:
		return Float64Value(GetF64(r, f))
	case KString:
		return StringRefValue(GetHandleField(r, f))
	case KHandle:
		return HandleValue(GetHandleField(r, f))
	default:
		return Value{}
	}
}

// SetField writes any field from a Value, dispatching on the field kind.
func SetField(a *Allocator, r Ref, f *Field, v Value) error {
	switch f.Kind {
	case KBool:
		SetBool(r, f, v.B)
	case KInt32:
		SetI32(r, f, int32(v.AsInt64()))
	case KInt64:
		SetI64(r, f, v.AsInt64())
	case KFloat64:
		SetF64(r, f, v.AsFloat64())
	case KString:
		sr, err := MakeStringBytes(a, v.strBytes())
		if err != nil {
			return err
		}
		return SetHandleField(a, r, f, sr)
	case KHandle:
		return SetHandleField(a, r, f, v.H)
	default:
		return fmt.Errorf("object: cannot set field of kind %v", f.Kind)
	}
	return nil
}
