package object

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Typed scalar fold on an OMap's raw slots.
//
// An int64-keyed map with an 8-byte scalar value has fixed 20-byte slots
// (state, key, value), so a sum, min or max can be folded without boxing
// the pair into Values and without re-decoding the map header per slot
// access: ScalarSlots resolves the slot array once, Fold probes it on raw
// bytes and then makes exactly the page mutations of the boxed one-probe
// update (FindSlot, combine, MaybeGrow, ClaimSlot, WriteValAt) in the same
// order, growing through the same rehash. Map pages, snapshots and
// ErrPageFull fault points are therefore byte-for-byte those of the boxed
// path; which path ran cannot be read off a page.

// FoldOp is a closed scalar fold over int64 or float64 values: the algebra
// of an aggregation stated as data, so the engine can run it in a typed
// loop and derive the boxed combine from the same definition. The zero
// value is "no fold".
type FoldOp uint8

// The folds. Each is associative and commutative on values; float min and
// max follow Go's built-ins (a NaN operand yields NaN, -0 orders below +0).
const (
	FoldSum FoldOp = iota + 1
	FoldMin
	FoldMax
)

// String names the fold for error messages.
func (op FoldOp) String() string {
	switch op {
	case FoldSum:
		return "sum"
	case FoldMin:
		return "min"
	case FoldMax:
		return "max"
	default:
		return fmt.Sprintf("FoldOp(%d)", uint8(op))
	}
}

// I64 folds next into cur (sums wrap around, like Go's int64).
func (op FoldOp) I64(cur, next int64) int64 {
	switch op {
	case FoldMin:
		return min(cur, next)
	case FoldMax:
		return max(cur, next)
	default:
		return cur + next
	}
}

// F64 folds next into cur. A NaN result is always math.NaN(): which
// operand's payload an add of two NaNs keeps is the instruction's operand
// order — the compiler's choice at each place this inlines — and the typed
// and the boxed path must store the same bytes.
func (op FoldOp) F64(cur, next float64) float64 {
	var r float64
	switch op {
	case FoldMin:
		r = min(cur, next)
	case FoldMax:
		r = max(cur, next)
	default:
		r = cur + next
	}
	if r != r {
		return math.NaN()
	}
	return r
}

// HashInt64 is HashValue(Int64Value(k)) without the box: the hash an
// int64-keyed map probes with and the engine routes partitions by: FNV-1a
// over the key's eight little-endian bytes, written out step by step (on a
// 2-vCPU Xeon VM the loop form hashes a key in 7.4 ns, this one in 3.4).
func HashInt64(k int64) uint64 {
	u := uint64(k)
	h := (fnvOffset64 ^ u&0xff) * fnvPrime64
	h = (h ^ u>>8&0xff) * fnvPrime64
	h = (h ^ u>>16&0xff) * fnvPrime64
	h = (h ^ u>>24&0xff) * fnvPrime64
	h = (h ^ u>>32&0xff) * fnvPrime64
	h = (h ^ u>>40&0xff) * fnvPrime64
	h = (h ^ u>>48&0xff) * fnvPrime64
	return (h ^ u>>56) * fnvPrime64
}

// scalarSlotSize is the slot stride of an int64-keyed map with an 8-byte
// value: 4 bytes of state, the key, the value.
const scalarSlotSize = 4 + 8 + 8

// ScalarSlots is an OMap with KInt64 keys and KInt64 or KFloat64 values,
// resolved for raw-slot access. Values cross this API as their 8 stored
// bytes (uint64(v) for an int64, math.Float64bits for a float64). The view
// belongs to one map on one page; Fold re-resolves it when the map has
// rehashed since — through Fold itself or through a boxed writer beside it.
type ScalarSlots struct {
	m     OMap
	d     []byte // the map's page
	base  uint32 // page offset of slot 0
	mask  uint32 // slots - 1
	float bool   // values are float64 bits
}

// HasScalarSlots reports whether a map of these kinds has the 20-byte
// scalar slot layout: an int64 key and an int64 or float64 value.
func HasScalarSlots(keyKind, valKind Kind) bool {
	return keyKind == KInt64 && (valKind == KInt64 || valKind == KFloat64)
}

// ScalarSlots resolves the slot array of a map expected to hold valKind
// values under int64 keys; ok is false when the map's kinds are others or
// do not have the scalar slot layout.
func (m OMap) ScalarSlots(valKind Kind) (s ScalarSlots, ok bool) {
	if m.ValKind() != valKind || !HasScalarSlots(m.KeyKind(), valKind) {
		return ScalarSlots{}, false
	}
	s = ScalarSlots{m: m, d: m.Page.Data, float: valKind == KFloat64}
	s.resolve()
	return s, true
}

func (s *ScalarSlots) resolve() {
	s.base = s.m.slotsRef().Off
	s.mask = uint32(s.m.slots() - 1)
}

// Slots returns the number of slots, full or empty.
func (s *ScalarSlots) Slots() int { return int(s.mask) + 1 }

// EntryAt reads slot i; full is false for an empty slot.
func (s *ScalarSlots) EntryAt(i int) (key int64, val uint64, full bool) {
	off := s.base + uint32(i)*scalarSlotSize
	if binary.LittleEndian.Uint32(s.d[off:]) != slotFull {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint64(s.d[off+4:])), binary.LittleEndian.Uint64(s.d[off+12:]), true
}

// probe runs the map's linear probe from hash h, returning the page offset
// of the slot holding key (found) or of the empty slot it would take.
func (s *ScalarSlots) probe(h uint64, key int64) (off uint32, found bool) {
	for i := uint32(h) & s.mask; ; i = (i + 1) & s.mask {
		off = s.base + i*scalarSlotSize
		if binary.LittleEndian.Uint32(s.d[off:]) == slotEmpty {
			return off, false
		}
		if int64(binary.LittleEndian.Uint64(s.d[off+4:])) == key {
			return off, true
		}
	}
}

// Fold folds val into key's entry with op; h must be HashInt64(key) (the
// caller has it already, for the partition route). It reports whether the
// map rehashed. On ErrPageFull — the page cannot hold the doubled slot
// array — the map is unchanged.
func (s *ScalarSlots) Fold(a *Allocator, h uint64, key int64, val uint64, op FoldOp) (grown bool, err error) {
	if s.m.slots() != s.Slots() {
		s.resolve() // a boxed update grew the map
	}
	off, found := s.probe(h, key)
	if found {
		cur := binary.LittleEndian.Uint64(s.d[off+12:])
		if s.float {
			val = float64bits(op.F64(float64frombits(cur), float64frombits(val)))
		} else {
			val = uint64(op.I64(int64(cur), int64(val)))
		}
	}
	// Put's growth rule, applied like Put applies it: before the write,
	// also when the key is already present.
	n := s.m.Len()
	if slots := s.Slots(); (n+1)*10 >= slots*7 {
		if err := s.m.rehash(a, slots*2); err != nil {
			return false, err
		}
		s.resolve()
		grown = true
		off, found = s.probe(h, key)
	}
	if !found {
		binary.LittleEndian.PutUint32(s.d[off:], slotFull)
		binary.LittleEndian.PutUint64(s.d[off+4:], uint64(key))
		s.m.setLen(n + 1)
	}
	binary.LittleEndian.PutUint64(s.d[off+12:], val)
	return grown, nil
}
