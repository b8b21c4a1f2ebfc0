package procwork

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/wire"
)

// recRegistry registers a pad type and then Rec{grp, val int64; name
// string}, so Rec's code is not the first one a fresh registry hands out.
func recRegistry(t testing.TB) (*object.Registry, *object.TypeInfo) {
	t.Helper()
	reg := object.NewRegistry()
	object.NewStruct("Pad").AddField("x", object.KFloat64).MustBuild(reg)
	rec := object.NewStruct("Rec").
		AddField("grp", object.KInt64).
		AddField("val", object.KInt64).
		AddField("name", object.KString).
		MustBuild(reg)
	return reg, rec
}

// recPage builds one page of n Rec rows.
func recPage(t *testing.T, reg *object.Registry, rec *object.TypeInfo, n int) *object.Page {
	t.Helper()
	pages, err := object.BuildPages(reg, 1<<12, n, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, rec.Field("val"), int64(i))
		return r, nil
	})
	if err != nil || len(pages) != 1 {
		t.Fatalf("building one page of %d rows: %d pages, %v", n, len(pages), err)
	}
	return pages[0]
}

// TestMsgRoundTrip sends a fully populated control message through
// WriteMsg → ReadFrame → DecodeMsg and expects it back field for field.
func TestMsgRoundTrip(t *testing.T) {
	want := &Msg{
		Op: "consume", Prog: "in <= SCAN('db', 'rows')", Produces: "mat:agg", AggList: "agg",
		Worker: 1, Workers: 2, Threads: 3, PageSize: 4096,
		Types: []TypeSchema{{Name: "Rec", Code: 1001, Fields: []FieldSchema{{Name: "grp", Kind: int(object.KInt64)}}}},

		KillAfterPages: 2, Err: "none",
	}
	var buf bytes.Buffer
	if err := WriteMsg(&buf, want); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != wire.KindControl {
		t.Fatalf("frame kind = %d, want KindControl", f.Kind)
	}
	got, err := DecodeMsg(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip changed the message:\n got %+v\nwant %+v", got, want)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes left after one frame", buf.Len())
	}
}

// TestPageRoundTrip sends a page through WritePage → ReadFrame → DecodePage
// into a registry rebuilt from the shipped schemas: the bytes arrive
// verbatim (adoption then clears the page's managed flag in place), the tag
// survives, and the rows read back.
func TestPageRoundTrip(t *testing.T) {
	reg, rec := recRegistry(t)
	p := recPage(t, reg, rec, 10)
	var buf bytes.Buffer
	tag := wire.Tag{Producer: 1, Thread: 0, Seq: 9}
	if err := WritePage(&buf, tag, p, reg); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Tag != tag {
		t.Errorf("tag = %+v, want %+v", f.Tag, tag)
	}
	if !bytes.Equal(f.Payload, p.Bytes()) {
		t.Error("page bytes changed across the frame")
	}
	far := object.NewRegistry()
	if err := RegisterSchemas(far, SchemasOf(reg)); err != nil {
		t.Fatal(err)
	}
	q, err := DecodePage(f, far)
	if err != nil {
		t.Fatal(err)
	}
	root := object.AsVector(object.Ref{Page: q, Off: q.Root()})
	if root.Len() != 10 {
		t.Fatalf("decoded page holds %d rows, want 10", root.Len())
	}
	farRec := far.LookupName("Rec")
	if got := object.GetI64(root.HandleAt(9), farRec.Field("val")); got != 9 {
		t.Errorf("row 9 val = %d, want 9", got)
	}
}

// TestDecodeRejectsTheWrongFrame pins every refusal of the two decoders:
// the wrong frame kind either way, a page binding a type the receiver does
// not know, and a page whose code for a known name drifted.
func TestDecodeRejectsTheWrongFrame(t *testing.T) {
	reg, rec := recRegistry(t)
	var buf bytes.Buffer
	if err := WritePage(&buf, wire.Tag{}, recPage(t, reg, rec, 3), reg); err != nil {
		t.Fatal(err)
	}
	page, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteMsg(&buf, &Msg{Op: "eof"}); err != nil {
		t.Fatal(err)
	}
	control, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := DecodeMsg(page); err == nil || !strings.Contains(err.Error(), "expected a control frame") {
		t.Errorf("DecodeMsg(page frame) = %v, want a control-frame error", err)
	}
	if _, err := DecodePage(control, reg); err == nil || !strings.Contains(err.Error(), "expected a page frame") {
		t.Errorf("DecodePage(control frame) = %v, want a page-frame error", err)
	}
	if _, err := DecodePage(page, object.NewRegistry()); err == nil || !strings.Contains(err.Error(), "unregistered type") {
		t.Errorf("DecodePage into an empty registry = %v, want an unregistered-type error", err)
	}
	// Same names registered in another order: Rec's code differs.
	drifted := object.NewRegistry()
	for _, ts := range []string{"Rec", "Pad"} {
		b := object.NewStruct(ts)
		for _, f := range reg.LookupName(ts).Fields {
			b.AddField(f.Name, f.Kind)
		}
		b.MustBuild(drifted)
	}
	if _, err := DecodePage(page, drifted); err == nil || !strings.Contains(err.Error(), "type drift") {
		t.Errorf("DecodePage into a drifted registry = %v, want a type-drift error", err)
	}
	if _, err := DecodePage(page, reg); err != nil {
		t.Errorf("DecodePage into the sender's own registry: %v", err)
	}
}

// TestSchemasReproduceTheRegistry checks RegisterSchemas(SchemasOf(reg)):
// the rebuilt registry holds the same user types under the same names and
// codes, with the same fields in the same order and kinds.
func TestSchemasReproduceTheRegistry(t *testing.T) {
	reg, _ := recRegistry(t)
	far := object.NewRegistry()
	if err := RegisterSchemas(far, SchemasOf(reg)); err != nil {
		t.Fatal(err)
	}
	want, got := reg.UserTypes(), far.UserTypes()
	if len(got) != len(want) || len(want) != 2 {
		t.Fatalf("rebuilt registry holds %d user types, sender %d, want 2", len(got), len(want))
	}
	for _, w := range want {
		g := far.LookupName(w.Name)
		if g == nil {
			t.Errorf("type %q missing from the rebuilt registry", w.Name)
			continue
		}
		if g.Code != w.Code {
			t.Errorf("%s: code %d, want %d", w.Name, g.Code, w.Code)
		}
		if len(g.Fields) != len(w.Fields) {
			t.Errorf("%s: %d fields, want %d", w.Name, len(g.Fields), len(w.Fields))
			continue
		}
		for i, wf := range w.Fields {
			if gf := g.Fields[i]; gf.Name != wf.Name || gf.Kind != wf.Kind {
				t.Errorf("%s field %d = %s/%v, want %s/%v", w.Name, i, gf.Name, gf.Kind, wf.Name, wf.Kind)
			}
		}
	}
	if !reflect.DeepEqual(SchemasOf(far), SchemasOf(reg)) {
		t.Error("SchemasOf(rebuilt) differs from SchemasOf(sender)")
	}
}

// TestRegisterSchemasRejectsBadSchemas feeds RegisterSchemas shipped layouts
// a worker must refuse — kinds outside the storage kinds, codes in the
// reserved range, a name or a code shipped twice — and expects an error
// naming the type, never a panic or a silent registration.
func TestRegisterSchemasRejectsBadSchemas(t *testing.T) {
	one := func(name string, code uint32, kind int) TypeSchema {
		return TypeSchema{Name: name, Code: code, Fields: []FieldSchema{{Name: "x", Kind: kind}}}
	}
	first, i64 := object.FirstUserTypeCode, int(object.KInt64)
	good := one("Good", first, i64)
	for _, tc := range []struct {
		name    string
		schemas []TypeSchema
		want    string
	}{
		{"kind 0", []TypeSchema{one("Bad", first, 0)}, "invalid kind 0"},
		{"kind 7", []TypeSchema{good, one("Bad", first+1, 7)}, "invalid kind 7"},
		{"kind 259", []TypeSchema{one("Bad", first, 259)}, "invalid kind 259"},
		{"kind -1", []TypeSchema{one("Bad", first, -1)}, "invalid kind -1"},
		{"code 0", []TypeSchema{one("Bad", 0, i64)}, "code 0 is outside"},
		{"code 1", []TypeSchema{one("Bad", 1, i64)}, "code 1 is outside"},
		{"code 999", []TypeSchema{one("Bad", first-1, i64)}, "code 999 is outside"},
		{"simple-type code", []TypeSchema{one("Bad", object.SimpleCode(8), i64)}, "is outside"},
		{"duplicate name", []TypeSchema{good, one("Good", first+1, int(object.KFloat64))}, "shipped twice"},
		{"duplicate code", []TypeSchema{good, one("Bad", first, i64)}, "code 1000 shipped twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := RegisterSchemas(object.NewRegistry(), tc.schemas)
			bad := tc.schemas[len(tc.schemas)-1].Name
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), strconv.Quote(bad)) {
				t.Errorf("RegisterSchemas = %v, want an error naming %q with %q", err, bad, tc.want)
			}
		})
	}
}

// FuzzDecodeOpener feeds arbitrary bytes through the first two things a
// worker process does with a session opener: DecodeMsg, then
// RegisterSchemas into a fresh registry. Either may refuse the input;
// neither may panic, since a panic in a session goroutine takes the whole
// pcworker process down.
func FuzzDecodeOpener(f *testing.F) {
	reg, _ := recRegistry(f)
	var buf bytes.Buffer
	if err := WriteMsg(&buf, &Msg{Op: "consume", Prog: "x", Worker: 1, Workers: 2, Types: SchemasOf(reg)}); err != nil {
		f.Fatal(err)
	}
	opener, err := ReadFrame(&buf)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(opener.Payload)
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := DecodeMsg(&wire.Frame{Kind: wire.KindControl, Payload: payload})
		if err == nil {
			RegisterSchemas(object.NewRegistry(), m.Types)
		}
	})
}
