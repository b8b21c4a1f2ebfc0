package object

import "fmt"

// DeepCopy copies the object graph rooted at src into the allocator's active
// block, returning the copy's Ref. Sharing within the graph is preserved (two
// handles to one object copy to two handles to one copy), which also
// terminates on cyclic graphs.
//
// This is the mechanism behind the paper's automatic cross-block assignment
// rule (§6.4): PC never allows a handle to point off its page, so assigning
// a foreign target deep-copies it into the active block. It is also the
// virtual "deep copy function" every Object descendant carries — here
// dispatched through the type registry instead of a vTable.
func DeepCopy(a *Allocator, src Ref) (Ref, error) {
	if src.IsNil() {
		return NilRef, nil
	}
	c := copier{a: a, root: src}
	return c.copy(src)
}

// copier is one DeepCopy in progress. An object may be reached a second time
// in two ways. A cycle can lead back to the root, whatever its referent mark
// says: rootCopy holds its copy. Any other object whose header does not show
// exactly one referent may be shared: memo maps it to its copy, and is made
// when the first one is met. An object reached through a handle slot whose
// mark is one has only ever had that slot as a way in and is copied without
// a lookup, so a graph without sharing — all but 375 of the 2 801 880 copies
// of a tpch_objects run, every copy of join_part and sort_full — never makes
// a map. Marks only go up, so an object whose second handle was overwritten
// still counts as shared: it is memoized, never copied twice.
type copier struct {
	a              *Allocator
	root, rootCopy Ref
	memo           map[Ref]Ref
}

// note records src's copy before src's children are visited, so a cycle
// back to src finds it.
func (c *copier) note(src, dst Ref) {
	switch {
	case src == c.root:
		c.rootCopy = dst
	case !src.soleReferent():
		if c.memo == nil {
			c.memo = make(map[Ref]Ref)
		}
		c.memo[src] = dst
	}
}

func (c *copier) copy(src Ref) (Ref, error) {
	if src.IsNil() {
		return NilRef, nil
	}
	if src == c.root {
		if !c.rootCopy.IsNil() {
			return c.rootCopy, nil
		}
	} else if !src.soleReferent() {
		if dst, ok := c.memo[src]; ok {
			return dst, nil
		}
	}
	tc := src.TypeCode()
	switch {
	case IsSimpleCode(tc), tc == TCString, tc == TCRaw:
		return c.copyFlat(src)
	case tc == TCArray:
		// Raw arrays are only meaningful through their containing
		// Vector/Map, which copy them with element awareness; a bare
		// array copy is a flat byte copy.
		return c.copyFlat(src)
	case tc == TCVector:
		return c.copyVector(Vector{src})
	case tc == TCMap:
		return c.copyMap(OMap{src})
	default:
		return c.copyUser(src)
	}
}

func (c *copier) copyFlat(src Ref) (Ref, error) {
	size := src.PayloadSize()
	off, err := c.a.Alloc(size, src.TypeCode())
	if err != nil {
		return NilRef, err
	}
	dst := Ref{Page: c.a.Page, Off: off}
	copy(dst.Page.Data[off:off+size], src.Page.Data[src.Off:src.Off+size])
	c.note(src, dst)
	return dst, nil
}

func (c *copier) copyVector(src Vector) (Ref, error) {
	n := src.Len()
	kind := src.ElemKind()
	dst, err := MakeVector(c.a, kind, n)
	if err != nil {
		return NilRef, err
	}
	c.note(src.Ref, dst.Ref)
	dst.setLen(n)
	if n == 0 {
		return dst.Ref, nil
	}
	if !kind.IsHandleKind() {
		es := kind.Size()
		copy(dst.Page.Data[dst.elemOff(0):dst.elemOff(0)+uint32(n)*es],
			src.Page.Data[src.elemOff(0):src.elemOff(0)+uint32(n)*es])
		return dst.Ref, nil
	}
	for i := 0; i < n; i++ {
		child, err := c.copy(src.HandleAt(i))
		if err != nil {
			return NilRef, err
		}
		rewriteHandleSlotRaw(dst.Page, dst.elemOff(i), child)
		child.Retain()
	}
	return dst.Ref, nil
}

// copyMap re-inserts src's entries in slot order. String keys and values are
// handle-backed views of src's page, which Put writes as fresh string
// objects; handle keys and values are copied first and then assigned.
func (c *copier) copyMap(src OMap) (Ref, error) {
	dst, err := MakeMap(c.a, src.KeyKind(), src.ValKind(), src.Len()*2)
	if err != nil {
		return NilRef, err
	}
	c.note(src.Ref, dst.Ref)
	for i, n := 0, src.slots(); i < n; i++ {
		if src.slotState(i) != slotFull {
			continue
		}
		key, val := src.keyAt(src.keyOff(i)), src.readVal(i)
		if key.K == KHandle && !key.H.IsNil() {
			child, err := c.copy(key.H)
			if err != nil {
				return NilRef, err
			}
			key = HandleValue(child)
		}
		if val.K == KHandle && !val.H.IsNil() {
			child, err := c.copy(val.H)
			if err != nil {
				return NilRef, err
			}
			val = HandleValue(child)
		}
		if err := dst.Put(c.a, key, val); err != nil {
			return NilRef, err
		}
	}
	return dst.Ref, nil
}

func (c *copier) copyUser(src Ref) (Ref, error) {
	ti := lookupType(src)
	if ti == nil {
		return NilRef, fmt.Errorf("object: deep copy of unregistered type code %d", src.TypeCode())
	}
	size := src.PayloadSize()
	off, err := c.a.Alloc(size, src.TypeCode())
	if err != nil {
		return NilRef, err
	}
	dst := Ref{Page: c.a.Page, Off: off}
	copy(dst.Page.Data[off:off+size], src.Page.Data[src.Off:src.Off+size])
	handles := ti.HandleFields()
	c.note(src, dst)
	for _, f := range handles {
		child, err := c.copy(GetHandleField(src, f))
		if err != nil {
			return NilRef, err
		}
		rewriteHandleSlotRaw(dst.Page, dst.Off+f.Off, child)
		child.Retain()
	}
	return dst, nil
}

// Equal performs a deep structural comparison of two object graphs (test and
// verification helper; not part of the hot path).
func Equal(a, b Ref) bool {
	return deepEqual(a, b, make(map[[2]Ref]bool))
}

func deepEqual(a, b Ref, seen map[[2]Ref]bool) bool {
	if a.IsNil() || b.IsNil() {
		return a.IsNil() == b.IsNil()
	}
	key := [2]Ref{a, b}
	if seen[key] {
		return true
	}
	seen[key] = true
	ta, tb := a.TypeCode(), b.TypeCode()
	if ta != tb {
		return false
	}
	switch {
	case IsSimpleCode(ta), ta == TCString, ta == TCRaw, ta == TCArray:
		return string(a.Payload()) == string(b.Payload())
	case ta == TCVector:
		va, vb := Vector{a}, Vector{b}
		if va.Len() != vb.Len() || va.ElemKind() != vb.ElemKind() {
			return false
		}
		for i, n := 0, va.Len(); i < n; i++ {
			if va.ElemKind().IsHandleKind() && va.ElemKind() != KString {
				if !deepEqual(va.HandleAt(i), vb.HandleAt(i), seen) {
					return false
				}
			} else if !va.At(i).Equal(vb.At(i)) {
				return false
			}
		}
		return true
	case ta == TCMap:
		ma, mb := OMap{a}, OMap{b}
		if ma.Len() != mb.Len() {
			return false
		}
		eq := true
		ma.Iterate(func(k, v Value) bool {
			ov, ok := mb.Get(k)
			if !ok {
				eq = false
				return false
			}
			if v.K == KHandle {
				eq = deepEqual(v.H, ov.H, seen)
			} else {
				eq = v.Equal(ov)
			}
			return eq
		})
		return eq
	default:
		tia := lookupType(a)
		if tia == nil {
			return string(a.Payload()) == string(b.Payload())
		}
		for i := range tia.Fields {
			f := &tia.Fields[i]
			if f.Kind == KHandle {
				if !deepEqual(GetHandleField(a, f), GetHandleField(b, f), seen) {
					return false
				}
			} else if !GetField(a, f).Equal(GetField(b, f)) {
				return false
			}
		}
		return true
	}
}
