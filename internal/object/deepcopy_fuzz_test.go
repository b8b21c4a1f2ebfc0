package object

import (
	"fmt"
	"testing"
)

// FuzzDeepCopySharing builds a random graph of user structs, handle vectors
// and int64 → handle maps with shared children and cycles, overwriting
// random slots on the way, so some objects reachable through one slot carry
// the "more than one" referent mark. A copy of any of its objects must equal
// its source and keep its sharing exactly: two handles to one source object
// become two handles to one copy, and two distinct objects stay distinct.
func FuzzDeepCopySharing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 3, 0, 1, 3, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 3, 0, 1, 3, 1, 0, 3, 0, 2, 0})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 4, 0, 1, 4, 0, 1, 6, 0, 2, 0, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 5, 0, 1, 5, 8, 1, 5, 0, 15, 7, 1, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 0, 1, 3, 16, 1, 3, 1, 2, 3, 2, 0, 3, 1, 15, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		reg := NewRegistry()
		node := NewStruct("FuzzNode").
			AddField("id", KInt64).
			AddField("a", KHandle).
			AddField("b", KHandle).
			MustBuild(reg)
		src := NewAllocator(NewPage(1<<20, reg))
		var objs []Ref
		// pick names an object of the graph, or nil for one byte in 16.
		pick := func(b byte) Ref {
			if b%16 == 15 || len(objs) == 0 {
				return NilRef
			}
			return objs[int(b)%len(objs)]
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		root := data[0]
		for ops := data[1:]; len(ops) >= 3 && len(objs) < 200; ops = ops[3:] {
			op, x, y := ops[0]%8, ops[1], ops[2]
			switch {
			case op == 0:
				n, err := src.MakeObject(node)
				must(err)
				SetI64(n, node.Field("id"), int64(len(objs)))
				objs = append(objs, n)
			case op == 1:
				v, err := MakeVector(src, KHandle, int(x%4))
				must(err)
				objs = append(objs, v.Ref)
			case op == 2:
				m, err := MakeMap(src, KInt64, KHandle, 2)
				must(err)
				objs = append(objs, m.Ref)
			case op == 7 && len(objs) > 0:
				pick(x).Retain() // a Go-side holder
			case len(objs) == 0:
			default:
				from, to := pick(x), pick(y)
				if from.IsNil() {
					continue
				}
				switch tc := from.TypeCode(); {
				case tc == TCVector && op == 6 && AsVector(from).Len() > 0:
					v := AsVector(from)
					must(v.Set(src, int(y)%v.Len(), HandleValue(to)))
				case tc == TCVector:
					must(AsVector(from).PushBackHandle(src, to))
				case tc == TCMap:
					must(AsMap(from).Put(src, Int64Value(int64(y%8)), HandleValue(to)))
				default:
					fld := node.Field("a")
					if op%2 == 0 {
						fld = node.Field("b")
					}
					must(SetHandleField(src, from, fld, to))
				}
			}
		}
		if len(objs) == 0 {
			return
		}
		from := pick(root)
		if from.IsNil() {
			from = objs[0]
		}
		dst := NewAllocator(NewPage(1<<22, reg))
		cp, err := DeepCopy(dst, from)
		must(err)
		if !Equal(from, cp) {
			t.Fatal("the copy differs from its source")
		}
		if err := sameSharing(from, cp, map[Ref]Ref{}, map[Ref]Ref{}); err != nil {
			t.Fatal(err)
		}
	})
}

// sameSharing walks a source graph and its copy in step and fails if one
// source object has two copies or one copy stands for two source objects.
func sameSharing(s, d Ref, fwd, back map[Ref]Ref) error {
	if s.IsNil() || d.IsNil() {
		if s.IsNil() != d.IsNil() {
			return fmt.Errorf("nil %v copied to %v", s, d)
		}
		return nil
	}
	if got, ok := fwd[s]; ok {
		if got != d {
			return fmt.Errorf("source object at %d copied twice, to %d and %d", s.Off, got.Off, d.Off)
		}
		return nil
	}
	if got, ok := back[d]; ok {
		return fmt.Errorf("copy at %d stands for source objects at %d and %d", d.Off, got.Off, s.Off)
	}
	fwd[s], back[d] = d, s
	switch s.TypeCode() {
	case TCVector:
		vs, vd := AsVector(s), AsVector(d)
		for i := 0; i < vs.Len(); i++ {
			if err := sameSharing(vs.HandleAt(i), vd.HandleAt(i), fwd, back); err != nil {
				return err
			}
		}
	case TCMap:
		var err error
		md := AsMap(d)
		AsMap(s).Iterate(func(k, v Value) bool {
			dv, _ := md.Get(k)
			err = sameSharing(v.H, dv.H, fwd, back)
			return err == nil
		})
		return err
	default:
		ti := lookupType(s)
		for _, f := range ti.HandleFields() {
			if err := sameSharing(GetHandleField(s, f), GetHandleField(d, f), fwd, back); err != nil {
				return err
			}
		}
	}
	return nil
}
