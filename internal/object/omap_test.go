package object

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestMapPutGetI64(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	m, err := MakeMap(a, KInt64, KFloat64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := m.Put(a, Int64Value(i), Float64Value(float64(i)*2)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d, want 200", m.Len())
	}
	for i := int64(0); i < 200; i++ {
		v, ok := m.Get(Int64Value(i))
		if !ok || v.F != float64(i)*2 {
			t.Fatalf("Get(%d) = (%v, %v)", i, v, ok)
		}
	}
	if _, ok := m.Get(Int64Value(999)); ok {
		t.Error("Get of absent key returned ok")
	}
}

func TestMapOverwrite(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	m, _ := MakeMap(a, KInt64, KInt64, 8)
	_ = m.Put(a, Int64Value(1), Int64Value(10))
	_ = m.Put(a, Int64Value(1), Int64Value(20))
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1 after overwrite", m.Len())
	}
	v, _ := m.Get(Int64Value(1))
	if v.I != 20 {
		t.Errorf("value = %d, want 20", v.I)
	}
}

// TestMapNumericProbeUsesKeyKind: a probe is hashed as the map's key kind,
// the form the key is stored and re-hashed in. 3 and 3.0 are Equal, so they
// must be one entry whichever kind the probe arrives in — before and after
// the table grows.
func TestMapNumericProbeUsesKeyKind(t *testing.T) {
	_, a := newTestPage(t, 1<<18)
	for _, c := range []struct {
		kind       Kind
		put, probe func(int64) Value
	}{
		{KFloat64, func(i int64) Value { return Float64Value(float64(i)) }, Int64Value},
		{KInt64, Int64Value, func(i int64) Value { return Float64Value(float64(i)) }},
	} {
		m, err := MakeMap(a, c.kind, KInt64, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Put(a, c.put(3), Int64Value(30)); err != nil {
			t.Fatal(err)
		}
		if v, ok := m.Get(c.probe(3)); !ok || v.I != 30 {
			t.Fatalf("%v-keyed map: Get(%v) after Put(%v) = (%v, %v)", c.kind, c.probe(3), c.put(3), v, ok)
		}
		if err := m.Put(a, c.probe(3), Int64Value(31)); err != nil {
			t.Fatal(err)
		}
		if m.Len() != 1 {
			t.Fatalf("%v-keyed map: Len = %d after Put(%v) and Put(%v), want 1", c.kind, m.Len(), c.put(3), c.probe(3))
		}
		slots := m.slots()
		for i := int64(100); i < 200; i++ { // grow through several rehashes, alternating kinds
			key := c.put(i)
			if i%2 == 0 {
				key = c.probe(i)
			}
			if err := m.Put(a, key, Int64Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		if m.slots() == slots || m.Len() != 101 {
			t.Fatalf("%v-keyed map: %d slots, Len %d: want a grown table of 101 keys", c.kind, m.slots(), m.Len())
		}
		for _, key := range []Value{c.put(3), c.probe(3), Int32Value(3)} {
			if v, ok := m.Get(key); !ok || v.I != 31 {
				t.Errorf("%v-keyed map after growth: Get(%v) = (%v, %v), want 31", c.kind, key, v, ok)
			}
		}
		for i := int64(100); i < 200; i++ {
			if v, ok := m.Get(c.probe(i)); !ok || v.I != i {
				t.Fatalf("%v-keyed map after growth: Get(%v) = (%v, %v)", c.kind, c.probe(i), v, ok)
			}
		}
	}

	// A float that no int64 equals neither finds nor becomes an int64 key.
	m, err := MakeMap(a, KInt64, KInt64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(a, Int64Value(3), Int64Value(30)); err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{3.5, -0.5, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 63, -(1 << 63) - 2048} {
		if v, ok := m.Get(Float64Value(f)); ok {
			t.Errorf("int64-keyed map: Get(%g) = (%v, true), want a miss", f, v)
		}
		if err := m.Put(a, Float64Value(f), Int64Value(99)); err == nil {
			t.Errorf("int64-keyed map: Put(%g) succeeded, want an error", f)
		}
		err := m.Update(a, Float64Value(f), func(Value, bool) Value { return Int64Value(99) })
		if err == nil {
			t.Errorf("int64-keyed map: Update(%g) succeeded, want an error", f)
		}
	}
	if v, _ := m.Get(Int64Value(3)); m.Len() != 1 || v.I != 30 {
		t.Errorf("int64-keyed map after refused keys: Len %d, Get(3) = %v, want 1 and 30", m.Len(), v)
	}
	if v, ok := m.Get(Float64Value(-(1 << 63))); ok { // exact, in range, absent
		t.Errorf("int64-keyed map: Get(-2^63) = (%v, true), want a miss", v)
	}
	if err := m.Put(a, Float64Value(-(1 << 63)), Int64Value(7)); err != nil {
		t.Errorf("int64-keyed map: Put(-2^63): %v", err)
	}
	if v, ok := m.Get(Int64Value(math.MinInt64)); !ok || v.I != 7 {
		t.Errorf("int64-keyed map: Get(MinInt64) = (%v, %v), want 7", v, ok)
	}
}

func TestMapStringKeys(t *testing.T) {
	_, a := newTestPage(t, 1<<18)
	m, err := MakeMap(a, KString, KInt64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("customer-%03d", i)
		if err := m.Put(a, StringValue(key), Int64Value(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("customer-%03d", i)
		v, ok := m.Get(StringValue(key))
		if !ok || v.I != int64(i) {
			t.Fatalf("Get(%q) = (%v,%v)", key, v, ok)
		}
	}
}

func TestMapHandleValues(t *testing.T) {
	_, a := newTestPage(t, 1<<18)
	m, err := MakeMap(a, KString, KHandle, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's customers-per-supplier shape: Map<String, Handle<Vector<int>>>.
	for i := 0; i < 20; i++ {
		v, err := MakeVector(a, KInt64, 0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			_ = v.PushBackI64(a, int64(j))
		}
		if err := m.Put(a, StringValue(fmt.Sprintf("s%d", i)), HandleValue(v.Ref)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		got, ok := m.Get(StringValue(fmt.Sprintf("s%d", i)))
		if !ok {
			t.Fatalf("missing key s%d", i)
		}
		v := AsVector(got.H)
		if v.Len() != i+1 {
			t.Fatalf("s%d vector len = %d, want %d", i, v.Len(), i+1)
		}
	}
}

func TestMapUpdateAggregation(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	m, _ := MakeMap(a, KInt64, KFloat64, 8)
	// Sum value per key — the aggregation primitive.
	for i := 0; i < 300; i++ {
		key := Int64Value(int64(i % 7))
		err := m.Update(a, key, func(cur Value, ok bool) Value {
			if !ok {
				return Float64Value(1)
			}
			return Float64Value(cur.F + 1)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 7 {
		t.Fatalf("Len = %d, want 7", m.Len())
	}
	total := 0.0
	m.Iterate(func(k, v Value) bool {
		total += v.F
		return true
	})
	if total != 300 {
		t.Errorf("total count = %g, want 300", total)
	}
}

func TestMapSurvivesShipping(t *testing.T) {
	p, a := newTestPage(t, 1<<18)
	m, _ := MakeMap(a, KString, KFloat64, 8)
	for i := 0; i < 50; i++ {
		_ = m.Put(a, StringValue(fmt.Sprintf("k%02d", i)), Float64Value(float64(i)))
	}
	p.SetRoot(m.Off)

	shipped := make([]byte, len(p.Bytes()))
	copy(shipped, p.Bytes())
	q, err := FromBytes(shipped, p.Reg)
	if err != nil {
		t.Fatal(err)
	}
	rm := AsMap(Ref{Page: q, Off: q.Root()})
	if rm.Len() != 50 {
		t.Fatalf("shipped map Len = %d, want 50", rm.Len())
	}
	for i := 0; i < 50; i++ {
		v, ok := rm.Get(StringValue(fmt.Sprintf("k%02d", i)))
		if !ok || v.F != float64(i) {
			t.Fatalf("shipped Get(k%02d) = (%v, %v)", i, v, ok)
		}
	}
}

func TestMapHandleKeysWithRegisteredHash(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("PairKey").
		AddField("row", KInt32).
		AddField("col", KInt32).
		MustBuild(reg)
	ti.Hash = func(r Ref) uint64 {
		return uint64(GetI32(r, ti.Field("row")))*1000003 + uint64(GetI32(r, ti.Field("col")))
	}
	ti.Equal = func(a, b Ref) bool {
		return GetI32(a, ti.Field("row")) == GetI32(b, ti.Field("row")) &&
			GetI32(a, ti.Field("col")) == GetI32(b, ti.Field("col"))
	}
	p := NewPage(1<<18, reg)
	a := NewAllocator(p)

	// The sparse matrix block shape: Map<pair<int,int>, double>.
	m, err := MakeMap(a, KHandle, KFloat64, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(r, c int32) Ref {
		o, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		SetI32(o, ti.Field("row"), r)
		SetI32(o, ti.Field("col"), c)
		return o
	}
	for i := int32(0); i < 30; i++ {
		if err := m.Put(a, HandleValue(mk(i, i*2)), Float64Value(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 30; i++ {
		probe := mk(i, i*2)
		v, ok := m.Get(HandleValue(probe))
		if !ok || v.F != float64(i) {
			t.Fatalf("Get(pair %d) = (%v,%v)", i, v, ok)
		}
	}
}

// Property: a PC map matches a Go map under random put/update workloads.
func TestQuickMapMatchesGoMap(t *testing.T) {
	f := func(keys []int16, vals []int32) bool {
		p := NewPage(1<<20, NewRegistry())
		a := NewAllocator(p)
		m, err := MakeMap(a, KInt64, KInt64, 8)
		if err != nil {
			return false
		}
		model := map[int64]int64{}
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			k, v := int64(keys[i]), int64(vals[i])
			model[k] = v
			if err := m.Put(a, Int64Value(k), Int64Value(v)); err != nil {
				return false
			}
		}
		if m.Len() != len(model) {
			return false
		}
		for k, want := range model {
			got, ok := m.Get(Int64Value(k))
			if !ok || got.I != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: ScalarSlots.Fold leaves the page bytes of Update with the same
// fold — through inserts, repeats, rehashes and the rehash that overflows
// the page — and probes with the boxed path's hash.
func TestScalarSlotsFoldMatchesUpdate(t *testing.T) {
	f := func(keys []int16, vals []int64, opByte uint8) bool {
		op := FoldSum + FoldOp(opByte%3)
		mk := func() (OMap, *Allocator) {
			a := NewAllocator(NewPage(1<<10, NewRegistry()))
			m, err := MakeMap(a, KInt64, KInt64, 8)
			if err != nil {
				t.Fatal(err)
			}
			return m, a
		}
		typed, ta := mk()
		boxed, ba := mk()
		slots, ok := typed.ScalarSlots(KInt64)
		if !ok {
			t.Fatal("an int64 -> int64 map has no scalar slots")
		}
		for i := 0; i < min(len(keys), len(vals)); i++ {
			k, v := int64(keys[i])<<40|int64(keys[i]), vals[i]
			if HashInt64(k) != HashValue(Int64Value(k)) {
				t.Fatalf("HashInt64(%d) differs from HashValue", k)
			}
			_, errT := slots.Fold(ta, HashInt64(k), k, uint64(v), op)
			errB := boxed.Update(ba, Int64Value(k), func(cur Value, ok bool) Value {
				if !ok {
					return Int64Value(v)
				}
				return Int64Value(op.I64(cur.I, v))
			})
			if (errT == nil) != (errB == nil) || string(typed.Page.Bytes()) != string(boxed.Page.Bytes()) {
				t.Errorf("update %d (%v of key %d): typed err %v, boxed err %v, same bytes %v",
					i, op, k, errT, errB, string(typed.Page.Bytes()) == string(boxed.Page.Bytes()))
				return false
			}
			if errT != nil {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScalarSlotsOnlyForTwentyByteSlots(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	for _, c := range []struct {
		key, val Kind
		want     bool
	}{
		{KInt64, KInt64, true}, {KInt64, KFloat64, true},
		{KInt64, KInt32, false}, {KInt64, KHandle, false}, {KInt64, KString, false},
		{KFloat64, KInt64, false}, {KString, KFloat64, false},
	} {
		m, err := MakeMap(a, c.key, c.val, 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.ScalarSlots(c.val); ok != c.want {
			t.Errorf("%v -> %v map: ScalarSlots ok = %v, want %v", c.key, c.val, ok, c.want)
		}
		if _, ok := m.ScalarSlots(KBool); ok {
			t.Errorf("%v -> %v map resolved as a map of bools", c.key, c.val)
		}
	}
}
