package object

import (
	"fmt"
	"testing"

	"repro/internal/race"
)

// Allocation guards: a string key or value stays on its page through every
// map operation and through a deep copy, so none of them may touch the Go
// heap. They count with testing.AllocsPerRun, which means nothing under the
// race detector's instrumentation.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// stringKeyedMap builds a KString -> KInt64 map of n keys on a's page and
// returns it with its keys in both forms: Go strings, and handle-backed
// views of string objects on a second page.
func stringKeyedMap(t *testing.T, a *Allocator, n int) (m OMap, goKeys, pageKeys []Value) {
	t.Helper()
	m, err := MakeMap(a, KString, KInt64, 8)
	if err != nil {
		t.Fatal(err)
	}
	m.Retain()
	other := NewAllocator(NewPage(1<<20, a.Page.Reg))
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("Customer#%06d", i)
		if err := m.Put(a, StringValue(key), Int64Value(int64(i))); err != nil {
			t.Fatal(err)
		}
		r, err := MakeString(other, key)
		if err != nil {
			t.Fatal(err)
		}
		goKeys, pageKeys = append(goKeys, StringValue(key)), append(pageKeys, StringRefValue(r))
	}
	return m, goKeys, pageKeys
}

func TestOMapStringProbeAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	_, a := newTestPage(t, 1<<20)
	m, goKeys, pageKeys := stringKeyedMap(t, a, 500)
	for _, keys := range [][]Value{goKeys, pageKeys} {
		allocs := testing.AllocsPerRun(1, func() {
			for i := 0; i < 10000; i++ {
				key := keys[i%len(keys)]
				v, ok := m.Get(key)
				if !ok || v.I != int64(i%len(keys)) {
					t.Fatalf("Get(%v) = (%v, %v)", key, v, ok)
				}
				if err := m.Put(a, key, v); err != nil { // the key exists: nothing is written but the value
					t.Fatal(err)
				}
			}
		})
		if allocs != 0 {
			t.Errorf("10000 Get + Put-existing on a string-keyed map allocated %v Go objects, want 0", allocs)
		}
	}
	if m.Len() != 500 {
		t.Errorf("Len = %d after Put-existing, want 500", m.Len())
	}
}

func TestOMapRehashAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	a := NewAllocator(NewPage(1<<22, NewRegistry()))
	m, goKeys, _ := stringKeyedMap(t, a, 500)
	allocs := testing.AllocsPerRun(5, func() {
		if err := m.rehash(a, m.slots()*2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("rehash of a 500-key string map allocated %v Go objects, want 0", allocs)
	}
	for i, key := range goKeys {
		if v, ok := m.Get(key); !ok || v.I != int64(i) {
			t.Fatalf("after rehash Get(%v) = (%v, %v)", key, v, ok)
		}
	}
}

func TestOMapIterateStringKeysAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	_, a := newTestPage(t, 1<<20)
	m, _, _ := stringKeyedMap(t, a, 500)
	var keyBytes int
	var sum int64
	allocs := testing.AllocsPerRun(5, func() {
		keyBytes, sum = 0, 0
		m.Iterate(func(k, v Value) bool {
			keyBytes += len(k.strBytes())
			sum += v.I
			return true
		})
	})
	if allocs != 0 {
		t.Errorf("Iterate over 500 string keys allocated %v Go objects, want 0", allocs)
	}
	if keyBytes != 500*len("Customer#000000") || sum != 499*500/2 {
		t.Errorf("Iterate saw %d key bytes and value sum %d", keyBytes, sum)
	}
}

// TestHandleOverwriteAllocatesNothing: overwriting a handle with a target on
// the same page writes the slot and raises the new target's mark, nothing
// else: the old target stays where it is in the region, and no Go-side
// record of it is kept.
func TestHandleOverwriteAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	reg := NewRegistry()
	holder := NewStruct("GuardHolder").AddField("h", KHandle).MustBuild(reg)
	a := NewAllocator(NewPage(1<<20, reg))
	h, err := a.MakeObject(holder)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]Ref, 64)
	for i := range targets {
		if targets[i], err = a.MakeRaw(uint32(8 + i%48)); err != nil {
			t.Fatal(err)
		}
	}
	f := holder.Field("h")
	used := a.Page.Used()
	allocs := testing.AllocsPerRun(100, func() {
		for _, r := range targets {
			if err := SetHandleField(a, h, f, r); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("overwriting a handle %d times allocated %v Go objects, want 0", len(targets), allocs)
	}
	if a.Page.Used() != used {
		t.Errorf("same-page overwrites moved the watermark from %d to %d", used, a.Page.Used())
	}
	if GetHandleField(h, f) != targets[len(targets)-1] || targets[0].RefCount() != 2 {
		t.Errorf("the slot holds %v, the first target's mark is %d; want the last target and 2", GetHandleField(h, f), targets[0].RefCount())
	}
}

// nestedCustomer builds a Customer -> orders -> lineitems -> supplier graph
// with string fields at every level and a string-keyed map beside it: the
// shape tpch deep-copies.
func nestedCustomer(t *testing.T, a *Allocator) Ref {
	t.Helper()
	reg := a.Page.Reg
	sup := NewStruct("GSupplier").AddField("name", KString).MustBuild(reg)
	item := NewStruct("GItem").AddField("part", KInt64).AddField("supplier", KHandle).MustBuild(reg)
	order := NewStruct("GOrder").AddField("key", KInt64).AddField("items", KHandle).MustBuild(reg)
	cust := NewStruct("GCustomer").AddField("name", KString).AddField("orders", KHandle).AddField("bySup", KHandle).MustBuild(reg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := a.MakeObject(cust)
	must(err)
	must(SetStrField(a, c, cust.Field("name"), "Customer#000042"))
	orders, err := MakeVector(a, KHandle, 3)
	must(err)
	bySup, err := MakeMap(a, KString, KHandle, 4)
	must(err)
	for o := 0; o < 3; o++ {
		ord, err := a.MakeObject(order)
		must(err)
		SetI64(ord, order.Field("key"), int64(o))
		items, err := MakeVector(a, KHandle, 4)
		must(err)
		for l := 0; l < 4; l++ {
			it, err := a.MakeObject(item)
			must(err)
			SetI64(it, item.Field("part"), int64(10*o+l))
			s, err := a.MakeObject(sup)
			must(err)
			name := fmt.Sprintf("Supplier#%04d", (o+l)%5)
			must(SetStrField(a, s, sup.Field("name"), name))
			must(SetHandleField(a, it, item.Field("supplier"), s))
			must(items.PushBackHandle(a, it))
			parts, err := MakeVector(a, KInt64, 1)
			must(err)
			must(parts.PushBackI64(a, int64(10*o+l)))
			must(bySup.Put(a, StringValue(name), HandleValue(parts.Ref)))
		}
		must(SetHandleField(a, ord, order.Field("items"), items.Ref))
		must(orders.PushBackHandle(a, ord))
	}
	must(SetHandleField(a, c, cust.Field("orders"), orders.Ref))
	must(SetHandleField(a, c, cust.Field("bySup"), bySup.Ref))
	return c
}

func TestDeepCopySteadyStateAllocations(t *testing.T) {
	skipUnderRace(t)
	reg := NewRegistry()
	src := nestedCustomer(t, NewAllocator(NewPage(1<<16, reg)))
	dst := NewAllocator(NewPage(1<<22, reg))
	first, err := DeepCopy(dst, src)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(src, first) {
		t.Fatal("deep copy differs from its source")
	}
	var last Ref
	allocs := testing.AllocsPerRun(20, func() {
		if last, err = DeepCopy(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("a deep copy of a graph without sharing allocated %v Go objects, want none (no memo)", allocs)
	}
	if !Equal(src, last) || last == first {
		t.Error("a later deep copy is not a fresh, equal copy")
	}
}
