package object

import (
	"bytes"
	"testing"
	"unsafe"
)

// TestValueSize keeps Value at 64 bytes: every boxed column carries one per
// row, so a field added for strings would grow every workload's heap.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Value{}) = %d, want 64", got)
	}
}

// stringFormContents is the corpus the two-form tests run over: the empty
// string, embedded 0x00 and 0xFF, prefixes of one another.
var stringFormContents = []string{"", "\x00", "a", "a\x00", "a\x00b", "ab", "a\xff", "\xff", "pliny"}

// stringForms returns s as a Go-backed value and as a handle-backed one (a
// view of a string object allocated with a).
func stringForms(t *testing.T, a *Allocator, s string) [2]Value {
	t.Helper()
	r, err := MakeString(a, s)
	if err != nil {
		t.Fatal(err)
	}
	return [2]Value{StringValue(s), StringRefValue(r)}
}

// TestStringFormsAgree checks that a KString value means its contents and
// nothing else: Equal, Less, HashValue, Str and StrBytes give the same
// answer for every (Go-backed, handle-backed) pairing.
func TestStringFormsAgree(t *testing.T) {
	_, a := newTestPage(t, 1<<16)
	for _, x := range stringFormContents {
		for _, y := range stringFormContents {
			for i, vx := range stringForms(t, a, x) {
				for j, vy := range stringForms(t, a, y) {
					if got := vx.Equal(vy); got != (x == y) {
						t.Errorf("forms %d/%d: %q.Equal(%q) = %v", i, j, x, y, got)
					}
					if got := vx.Less(vy); got != (x < y) {
						t.Errorf("forms %d/%d: %q.Less(%q) = %v", i, j, x, y, got)
					}
					if got := HashValue(vx) == HashValue(vy); x == y && !got {
						t.Errorf("forms %d/%d: equal strings %q hash differently", i, j, x)
					}
				}
				if vx.Str() != x || string(vx.strBytes()) != x {
					t.Errorf("form %d of %q reads back as %q / %q", i, x, vx.Str(), vx.strBytes())
				}
			}
		}
	}
	// A nil handle is the empty string, in every respect.
	null, empty := StringRefValue(NilRef), StringValue("")
	if !null.Equal(empty) || !empty.Equal(null) || null.Less(empty) || empty.Less(null) ||
		HashValue(null) != HashValue(empty) || null.Str() != "" || len(null.strBytes()) != 0 {
		t.Error("a nil string handle does not behave as the empty string")
	}
	if !null.Less(StringValue("a")) || StringValue("a").Less(null) {
		t.Error("a nil string handle does not order before a non-empty string")
	}
	// The accessors answer for KString only.
	if h := HandleValue(stringForms(t, a, "x")[1].H); h.Str() != "" || h.strBytes() != nil {
		t.Error("Str/StrBytes of a KHandle value must be empty")
	}
}

// TestStringFormsWriteTheSameBytes runs the same writes — map key and value,
// vector element, struct field — once from Go-backed values and once from
// views of another page; the two destination pages must be byte-identical.
func TestStringFormsWriteTheSameBytes(t *testing.T) {
	reg := NewRegistry()
	ti := NewStruct("Named").AddField("name", KString).MustBuild(reg)
	src := NewAllocator(NewPage(1<<16, reg))
	var pages [2]*Page
	for form := range pages {
		pages[form] = NewPage(1<<16, reg)
		a := NewAllocator(pages[form])
		m, err := MakeMap(a, KString, KString, 8)
		if err != nil {
			t.Fatal(err)
		}
		v, err := MakeVector(a, KString, 0)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 2; round++ { // the second round overwrites existing keys
			for i, s := range stringFormContents {
				key := stringForms(t, src, s)[form]
				val := stringForms(t, src, stringFormContents[(i+round+1)%len(stringFormContents)])[form]
				if err := m.Put(a, key, val); err != nil {
					t.Fatal(err)
				}
				if err := v.PushBack(a, key); err != nil {
					t.Fatal(err)
				}
				o, err := a.MakeObject(ti)
				if err != nil {
					t.Fatal(err)
				}
				if err := SetField(a, o, ti.Field("name"), val); err != nil {
					t.Fatal(err)
				}
			}
		}
		if m.Len() != len(stringFormContents) {
			t.Fatalf("form %d: map holds %d keys, want %d", form, m.Len(), len(stringFormContents))
		}
	}
	if !bytes.Equal(pages[0].Bytes(), pages[1].Bytes()) {
		t.Error("writing handle-backed strings produced different page bytes than writing Go strings")
	}
}
