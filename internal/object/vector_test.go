package object

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"
)

func TestVectorPushAndRead(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	v, err := MakeVector(a, KFloat64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := v.PushBackF64(a, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if v.Len() != 500 {
		t.Fatalf("Len = %d, want 500", v.Len())
	}
	for i := 0; i < 500; i++ {
		if v.F64At(i) != float64(i) {
			t.Fatalf("elem %d = %g", i, v.F64At(i))
		}
	}
}

func TestVectorKinds(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	cases := []struct {
		kind Kind
		vals []Value
	}{
		{KBool, []Value{BoolValue(true), BoolValue(false), BoolValue(true)}},
		{KInt32, []Value{Int32Value(-7), Int32Value(1 << 30)}},
		{KInt64, []Value{Int64Value(-1), Int64Value(1 << 60)}},
		{KFloat64, []Value{Float64Value(3.25), Float64Value(-0.5)}},
		{KString, []Value{StringValue("a"), StringValue("longer string value")}},
	}
	for _, tc := range cases {
		v, err := MakeVector(a, tc.kind, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, val := range tc.vals {
			if err := v.PushBack(a, val); err != nil {
				t.Fatal(err)
			}
		}
		for i, want := range tc.vals {
			if got := v.At(i); !got.Equal(want) {
				t.Errorf("%v vector elem %d = %v, want %v", tc.kind, i, got, want)
			}
		}
	}
}

func TestVectorHandleElements(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Pt").AddField("x", KFloat64).MustBuild(reg)
	p := NewPage(1<<16, reg)
	a := NewAllocator(p)

	v, err := MakeVector(a, KHandle, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		o, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		SetF64(o, ti.Field("x"), float64(i))
		if err := v.PushBackHandle(a, o); err != nil {
			t.Fatal(err)
		}
	}
	// Growth relocated the backing array several times; handles must
	// still resolve.
	for i := 0; i < 50; i++ {
		o := v.HandleAt(i)
		if o.IsNil() {
			t.Fatalf("elem %d is nil after growth", i)
		}
		if got := GetF64(o, ti.Field("x")); got != float64(i) {
			t.Fatalf("elem %d x = %g, want %d", i, got, i)
		}
	}
}

func TestVectorSetOutOfRange(t *testing.T) {
	_, a := newTestPage(t, 4096)
	v, _ := MakeVector(a, KFloat64, 0)
	if err := v.Set(a, 0, Float64Value(1)); err == nil {
		t.Error("Set past the end should fail")
	}
}

func TestVectorFloat64SliceAndAppend(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	v, _ := MakeVector(a, KFloat64, 0)
	in := []float64{1, 2, 3, 5, 8, 13}
	if err := v.AppendFloat64s(a, in); err != nil {
		t.Fatal(err)
	}
	out := v.Float64Slice()
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("elem %d = %g, want %g", i, out[i], in[i])
		}
	}

	// Span to vector, onto another page, twice (the second append grows),
	// and from an empty span.
	_, a2 := newTestPage(t, 1<<16)
	w, _ := MakeVector(a2, KFloat64, len(in))
	empty, _ := MakeVector(a, KFloat64, 0)
	for _, sp := range []F64Span{v.F64Span(), empty.F64Span(), v.F64Span()} {
		if err := w.AppendF64Span(a2, sp); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := w.Float64Slice(), append(append([]float64{}, in...), in...); !slices.Equal(got, want) {
		t.Errorf("AppendF64Span twice = %v, want %v", got, want)
	}
}

// Property: a PC vector behaves exactly like a Go float64 slice under a
// random push/set workload.
func TestQuickVectorMatchesSlice(t *testing.T) {
	f := func(xs []float64, setIdx []uint8) bool {
		p := NewPage(1<<20, NewRegistry())
		a := NewAllocator(p)
		v, err := MakeVector(a, KFloat64, 0)
		if err != nil {
			return false
		}
		model := make([]float64, 0, len(xs))
		for _, x := range xs {
			if err := v.PushBackF64(a, x); err != nil {
				return false
			}
			model = append(model, x)
		}
		for _, si := range setIdx {
			if len(model) == 0 {
				break
			}
			i := int(si) % len(model)
			model[i] = float64(si) * 0.5
			v.SetF64(i, float64(si)*0.5)
		}
		if v.Len() != len(model) {
			return false
		}
		for i, want := range model {
			if v.F64At(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestVectorPushBackFaultRollsBackLength drives cross-page handle pushes
// into a small page until the deep copy faults with ErrPageFull: the failed
// push must not leave a phantom nil element behind (the length is rolled
// back), because rotate-and-retry callers seal the faulted page and readers
// iterate its root vector assuming every element resolves.
func TestVectorPushBackFaultRollsBackLength(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Blob").
		AddField("a", KInt64).
		AddField("b", KInt64).
		AddField("c", KInt64).
		MustBuild(reg)

	src := NewPage(1<<16, reg)
	sa := NewAllocator(src)
	obj, err := sa.MakeObject(ti)
	if err != nil {
		t.Fatal(err)
	}
	SetI64(obj, ti.Field("a"), 7)

	dst := NewPage(1<<12, reg)
	da := NewAllocator(dst)
	v, err := MakeVector(da, KHandle, 0)
	if err != nil {
		t.Fatal(err)
	}
	pushed := 0
	for {
		err := v.PushBackHandle(da, obj) // deep-copies cross-page
		if err == nil {
			pushed++
			continue
		}
		if !errors.Is(err, ErrPageFull) {
			t.Fatalf("push %d: %v", pushed, err)
		}
		break
	}
	if pushed == 0 {
		t.Fatal("page full before any push; grow the destination page")
	}
	if v.Len() != pushed {
		t.Fatalf("Len = %d after %d successful pushes (failed push left a phantom element)", v.Len(), pushed)
	}
	for i := 0; i < v.Len(); i++ {
		o := v.HandleAt(i)
		if o.IsNil() {
			t.Fatalf("elem %d is nil", i)
		}
		if got := GetI64(o, ti.Field("a")); got != 7 {
			t.Fatalf("elem %d a = %d, want 7", i, got)
		}
	}
}
