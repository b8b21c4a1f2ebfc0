package object

import (
	"encoding/binary"
	"fmt"
)

// OMap is PC's generic in-page hash map (the paper's Map container, used
// both by applications and internally by the execution engine to implement
// aggregation and hash joins). It is an open-addressing, linear-probing
// table whose slot array is a TCArray object on the same page, so the whole
// map — keys, values, nested objects — ships with the page.
//
// Supported key kinds: KInt64, KFloat64, KString, and KHandle (the latter
// requires the key type to register Hash and Equal functions, mirroring the
// paper's requirement that aggregation keys be hashable PC objects).
type OMap struct{ Ref }

const (
	mapCountOff = 0
	mapSlotsOff = 4
	mapKKindOff = 8
	mapVKindOff = 12
	mapDataOff  = 16
	mapHdrSize  = mapDataOff + HandleSize

	slotEmpty uint32 = 0
	slotFull  uint32 = 1
)

// MakeMap allocates an empty map with the given key/value kinds.
func MakeMap(a *Allocator, keyKind, valKind Kind, initSlots int) (OMap, error) {
	switch keyKind {
	case KInt64, KFloat64, KString, KHandle:
	default:
		return OMap{}, fmt.Errorf("object: unsupported map key kind %v", keyKind)
	}
	if valKind.Size() == 0 {
		return OMap{}, fmt.Errorf("object: unsupported map value kind %v", valKind)
	}
	if initSlots < 8 {
		initSlots = 8
	}
	initSlots = nextPow2(initSlots)
	off, err := a.Alloc(mapHdrSize, TCMap)
	if err != nil {
		return OMap{}, err
	}
	m := OMap{Ref{Page: a.Page, Off: off}}
	d := m.Page.Data
	binary.LittleEndian.PutUint32(d[off+mapKKindOff:], uint32(keyKind))
	binary.LittleEndian.PutUint32(d[off+mapVKindOff:], uint32(valKind))
	if err := m.allocSlots(a, initSlots); err != nil {
		return OMap{}, err
	}
	return m, nil
}

// AsMap views a Ref known to be a map.
func AsMap(r Ref) OMap { return OMap{r} }

func nextPow2(n int) int {
	p := 8
	for p < n {
		p *= 2
	}
	return p
}

// Len returns the number of entries.
func (m OMap) Len() int {
	return int(binary.LittleEndian.Uint32(m.Page.Data[m.Off+mapCountOff:]))
}

func (m OMap) setLen(n int) {
	binary.LittleEndian.PutUint32(m.Page.Data[m.Off+mapCountOff:], uint32(n))
}

func (m OMap) slots() int {
	return int(binary.LittleEndian.Uint32(m.Page.Data[m.Off+mapSlotsOff:]))
}

func (m OMap) setSlots(n int) {
	binary.LittleEndian.PutUint32(m.Page.Data[m.Off+mapSlotsOff:], uint32(n))
}

// KeyKind returns the key storage kind.
func (m OMap) KeyKind() Kind {
	return Kind(binary.LittleEndian.Uint32(m.Page.Data[m.Off+mapKKindOff:]))
}

// ValKind returns the value storage kind.
func (m OMap) ValKind() Kind {
	return Kind(binary.LittleEndian.Uint32(m.Page.Data[m.Off+mapVKindOff:]))
}

func (m OMap) slotsRef() Ref { return ReadHandleSlot(m.Page, m.Off+mapDataOff) }

func (m OMap) slotSize() uint32 { return 4 + m.KeyKind().Size() + m.ValKind().Size() }

func (m OMap) slotOff(i int) uint32 { return m.slotsRef().Off + uint32(i)*m.slotSize() }

func (m OMap) slotState(i int) uint32 {
	return binary.LittleEndian.Uint32(m.Page.Data[m.slotOff(i):])
}

func (m OMap) setSlotState(i int, s uint32) {
	binary.LittleEndian.PutUint32(m.Page.Data[m.slotOff(i):], s)
}

func (m OMap) keyOff(i int) uint32 { return m.slotOff(i) + 4 }

func (m OMap) valOff(i int) uint32 { return m.slotOff(i) + 4 + m.KeyKind().Size() }

func (m OMap) allocSlots(a *Allocator, n int) error {
	arrOff, err := a.Alloc(uint32(n)*m.slotSize(), TCArray)
	if err != nil {
		return err
	}
	arr := Ref{Page: a.Page, Off: arrOff}
	rewriteHandleSlotRaw(m.Page, m.Off+mapDataOff, arr)
	arr.Retain()
	m.setSlots(n)
	return nil
}

// hashKey hashes a key of the map's key kind. Handle keys dispatch through
// the registered type's Hash function.
func (m OMap) hashKey(key Value) uint64 {
	if m.KeyKind() == KHandle && key.K == KHandle && !key.H.IsNil() {
		if ti := lookupType(key.H); ti != nil && ti.Hash != nil {
			return ti.Hash(key.H)
		}
	}
	return HashValue(key)
}

// keyAt reads the key stored at page offset off (m.keyOff(i) for slot i). A
// string key comes back handle-backed: comparing or hashing it reads the
// page in place.
func (m OMap) keyAt(off uint32) Value {
	d := m.Page.Data
	switch m.KeyKind() {
	case KInt64:
		return Int64Value(int64(binary.LittleEndian.Uint64(d[off:])))
	case KFloat64:
		return Float64Value(float64frombits(binary.LittleEndian.Uint64(d[off:])))
	case KString:
		return StringRefValue(ReadHandleSlot(m.Page, off))
	case KHandle:
		return HandleValue(ReadHandleSlot(m.Page, off))
	default:
		return Value{}
	}
}

// keyEquals compares the key in slot i with key.
func (m OMap) keyEquals(i int, key Value) bool {
	stored := m.keyAt(m.keyOff(i))
	if m.KeyKind() == KHandle && !stored.H.IsNil() && key.K == KHandle && !key.H.IsNil() {
		if ti := lookupType(stored.H); ti != nil && ti.Equal != nil {
			return ti.Equal(stored.H, key.H)
		}
	}
	return stored.Equal(key)
}

// readVal reads the value stored in slot i.
func (m OMap) readVal(i int) Value {
	off := m.valOff(i)
	d := m.Page.Data
	switch m.ValKind() {
	case KBool:
		return BoolValue(d[off] != 0)
	case KInt32:
		return Int32Value(int32(binary.LittleEndian.Uint32(d[off:])))
	case KInt64:
		return Int64Value(int64(binary.LittleEndian.Uint64(d[off:])))
	case KFloat64:
		return Float64Value(float64frombits(binary.LittleEndian.Uint64(d[off:])))
	case KString:
		return StringRefValue(ReadHandleSlot(m.Page, off))
	case KHandle:
		return HandleValue(ReadHandleSlot(m.Page, off))
	default:
		return Value{}
	}
}

// writeKey stores key into slot i. A string key is always written as a fresh
// string object on the active block, whichever form the Value has. A float
// that no int64 equals is refused by an int64-keyed map: stored truncated it
// would be a different key.
func (m OMap) writeKey(a *Allocator, i int, key Value) error {
	off := m.keyOff(i)
	d := m.Page.Data
	switch m.KeyKind() {
	case KInt64:
		if key.K == KFloat64 {
			if _, ok := exactInt64(key.F); !ok {
				return fmt.Errorf("object: map key %g is not an int64", key.F)
			}
		}
		binary.LittleEndian.PutUint64(d[off:], uint64(key.AsInt64()))
	case KFloat64:
		binary.LittleEndian.PutUint64(d[off:], float64bits(key.AsFloat64()))
	case KString:
		sr, err := MakeStringBytes(a, key.strBytes())
		if err != nil {
			return err
		}
		return WriteHandleSlot(a, m.Page, off, sr)
	case KHandle:
		return WriteHandleSlot(a, m.Page, off, key.H)
	}
	return nil
}

// writeVal stores val into slot i.
func (m OMap) writeVal(a *Allocator, i int, val Value) error {
	off := m.valOff(i)
	d := m.Page.Data
	switch m.ValKind() {
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
		sr, err := MakeStringBytes(a, val.strBytes())
		if err != nil {
			return err
		}
		return WriteHandleSlot(a, m.Page, off, sr)
	case KHandle:
		return WriteHandleSlot(a, m.Page, off, val.H)
	}
	return nil
}

// exactInt64 converts f to the int64 it equals; ok is false when there is
// none (f is fractional, NaN or out of range).
func exactInt64(f float64) (i int64, ok bool) {
	if f >= -(1<<63) && f < 1<<63 {
		i = int64(f)
		return i, float64(i) == f
	}
	return 0, false
}

// find locates the slot holding key, or the insertion slot. Returns (slot,
// found).
func (m OMap) find(key Value) (int, bool) {
	// A numeric probe is converted to the map's key kind — the form writeKey
	// stores and rehash re-hashes — so a key that Value.Equal calls equal to
	// a stored one (3 and 3.0) also hashes to its chain. A float that no
	// int64 equals (3.5, NaN) stays as it is and misses.
	switch kk := m.KeyKind(); {
	case kk == KFloat64 && (key.K == KInt32 || key.K == KInt64):
		key = Float64Value(key.AsFloat64())
	case kk == KInt64 && key.K == KFloat64:
		if i, ok := exactInt64(key.F); ok {
			key = Int64Value(i)
		}
	}
	n := m.slots()
	mask := n - 1
	i := int(m.hashKey(key)) & mask
	for {
		switch m.slotState(i) {
		case slotEmpty:
			return i, false
		case slotFull:
			if m.keyEquals(i, key) {
				return i, true
			}
		}
		i = (i + 1) & mask
	}
}

// Get returns the value for key.
func (m OMap) Get(key Value) (Value, bool) {
	i, ok := m.find(key)
	if !ok {
		return Value{}, false
	}
	return m.readVal(i), true
}

// Put inserts or overwrites key's value, growing the table past a 70% load
// factor. Foreign-page handle keys/values are deep-copied by the slot-write
// rule.
func (m OMap) Put(a *Allocator, key, val Value) error {
	if (m.Len()+1)*10 >= m.slots()*7 {
		if err := m.rehash(a, m.slots()*2); err != nil {
			return err
		}
	}
	i, found := m.find(key)
	if !found {
		m.setSlotState(i, slotFull)
		if err := m.writeKey(a, i, key); err != nil {
			// Roll back the claimed slot so the table stays sound.
			m.setSlotState(i, slotEmpty)
			return err
		}
		m.setLen(m.Len() + 1)
	}
	return m.writeVal(a, i, val)
}

// Update looks up key and applies fn to its current value (ok=false when
// absent), storing the result. This is the aggregation primitive: one probe
// per (key, value) pair.
func (m OMap) Update(a *Allocator, key Value, fn func(cur Value, ok bool) Value) error {
	if (m.Len()+1)*10 >= m.slots()*7 {
		if err := m.rehash(a, m.slots()*2); err != nil {
			return err
		}
	}
	i, found := m.find(key)
	if !found {
		m.setSlotState(i, slotFull)
		if err := m.writeKey(a, i, key); err != nil {
			m.setSlotState(i, slotEmpty)
			return err
		}
		m.setLen(m.Len() + 1)
		return m.writeVal(a, i, fn(Value{}, false))
	}
	return m.writeVal(a, i, fn(m.readVal(i), true))
}

// rehash grows the slot array to newSlots, walking the old one in slot
// order. A map with the 20-byte scalar slot layout is walked on raw bytes
// (rehashScalar); every other kind goes through rehashGeneric. Both place
// each entry with the same hash and probe, so the page bytes are the same.
func (m OMap) rehash(a *Allocator, newSlots int) error {
	if HasScalarSlots(m.KeyKind(), m.ValKind()) {
		return m.rehashScalar(a, newSlots)
	}
	return m.rehashGeneric(a, newSlots)
}

// rehashScalar is rehash for int64 keys with 8-byte scalar values: per full
// slot it hashes the 8 key bytes (HashInt64, which is hashKey of the boxed
// key), probes the new array's state words and copies key and value as 16
// raw bytes. Nothing is boxed and the header is read once.
func (m OMap) rehashScalar(a *Allocator, newSlots int) error {
	oldArr, oldN := m.slotsRef(), m.slots()
	if err := m.allocSlots(a, newSlots); err != nil {
		return err
	}
	d := m.Page.Data
	old := d[oldArr.Off : oldArr.Off+uint32(oldN)*scalarSlotSize]
	slots := d[m.slotsRef().Off:][:newSlots*scalarSlotSize]
	mask := uint32(newSlots - 1)
	for ; len(old) >= scalarSlotSize; old = old[scalarSlotSize:] {
		if binary.LittleEndian.Uint32(old) != slotFull {
			continue
		}
		i := uint32(HashInt64(int64(binary.LittleEndian.Uint64(old[4:])))) & mask
		for binary.LittleEndian.Uint32(slots[i*scalarSlotSize:]) == slotFull {
			i = (i + 1) & mask
		}
		slot := slots[i*scalarSlotSize : (i+1)*scalarSlotSize]
		binary.LittleEndian.PutUint32(slot, slotFull)
		copy(slot[4:], old[4:scalarSlotSize])
	}
	return nil
}

// rehashGeneric is rehash for any key and value kinds. Handle slots are
// re-anchored with raw rewrites (the logical reference set is unchanged).
func (m OMap) rehashGeneric(a *Allocator, newSlots int) error {
	oldArr := m.slotsRef()
	oldN := m.slots()
	if err := m.allocSlots(a, newSlots); err != nil {
		return err
	}
	d := m.Page.Data
	kk, vk := m.KeyKind(), m.ValKind()
	ss := m.slotSize()
	mask := newSlots - 1
	for j := 0; j < oldN; j++ {
		oldSlot := oldArr.Off + uint32(j)*ss
		if binary.LittleEndian.Uint32(d[oldSlot:]) != slotFull {
			continue
		}
		oldKey, oldVal := oldSlot+4, oldSlot+4+kk.Size()
		i := int(m.hashKey(m.keyAt(oldKey))) & mask
		for m.slotState(i) == slotFull {
			i = (i + 1) & mask
		}
		m.setSlotState(i, slotFull)
		// Move key and value bytes, re-anchoring handle slots.
		if kk.IsHandleKind() {
			rewriteHandleSlotRaw(m.Page, m.keyOff(i), ReadHandleSlot(m.Page, oldKey))
		} else {
			copy(d[m.keyOff(i):m.keyOff(i)+kk.Size()], d[oldKey:oldKey+kk.Size()])
		}
		if vk.IsHandleKind() {
			rewriteHandleSlotRaw(m.Page, m.valOff(i), ReadHandleSlot(m.Page, oldVal))
		} else {
			copy(d[m.valOff(i):m.valOff(i)+vk.Size()], d[oldVal:oldVal+vk.Size()])
		}
	}
	return nil
}

// Iterate calls fn for each entry until fn returns false.
func (m OMap) Iterate(fn func(key, val Value) bool) {
	n := m.slots()
	for i := 0; i < n; i++ {
		if m.slotState(i) == slotFull {
			if !fn(m.keyAt(m.keyOff(i)), m.readVal(i)) {
				return
			}
		}
	}
}
