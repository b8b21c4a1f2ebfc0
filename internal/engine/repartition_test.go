package engine

import (
	"testing"

	"repro/internal/object"
)

func TestRepartitionSinkRoutesByHash(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("R").AddField("k", object.KInt64).MustBuild(reg)
	const parts = 3
	stats := &Stats{}
	sink, err := NewRepartitionSink(reg, 1<<14, parts, "h", "obj", nil, stats)
	if err != nil {
		t.Fatal(err)
	}

	// Build 200 source objects and route them.
	src := object.NewPage(1<<18, reg)
	a := object.NewAllocator(src)
	var refs RefCol
	var hashes U64Col
	for i := 0; i < 200; i++ {
		r, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		object.SetI64(r, ti.Field("k"), int64(i))
		refs = append(refs, r)
		hashes = append(hashes, object.HashValue(object.Int64Value(int64(i%13))))
	}
	vl := &VectorList{Names: []string{"obj", "h"}, Cols: []Column{refs, hashes}}
	if err := sink.Consume(nil, vl, nil); err != nil {
		t.Fatal(err)
	}

	// Every object must land in the partition its hash selects, and all
	// 200 must be present exactly once.
	total := 0
	for p := 0; p < parts; p++ {
		for _, pg := range sink.PartitionPages(p) {
			if pg.Root() == 0 {
				continue
			}
			root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
			for i := 0; i < root.Len(); i++ {
				r := root.HandleAt(i)
				k := object.GetI64(r, ti.Field("k"))
				h := object.HashValue(object.Int64Value(k % 13))
				if int(h%parts) != p {
					t.Fatalf("key %d in partition %d, want %d", k, p, h%parts)
				}
				total++
			}
		}
	}
	if total != 200 {
		t.Fatalf("routed objects = %d, want 200", total)
	}
	if len(sink.Pages()) < parts {
		t.Errorf("expected at least one page per partition")
	}
}

func TestRepartitionSinkCopiesAreSelfContained(t *testing.T) {
	// Routed objects are deep-copied onto partition pages; the pages must
	// survive shipping independently of the source page.
	reg := object.NewRegistry()
	ti := object.NewStruct("S").AddField("name", object.KString).MustBuild(reg)
	sink, err := NewRepartitionSink(reg, 1<<14, 2, "h", "obj", nil, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	src := object.NewPage(1<<16, reg)
	a := object.NewAllocator(src)
	r, _ := a.MakeObject(ti)
	_ = object.SetStrField(a, r, ti.Field("name"), "nested string payload")
	vl := &VectorList{Names: []string{"obj", "h"}, Cols: []Column{RefCol{r}, U64Col{0}}}
	if err := sink.Consume(nil, vl, nil); err != nil {
		t.Fatal(err)
	}
	pages := sink.PartitionPages(0)
	shipped := make([]byte, len(pages[0].Bytes()))
	copy(shipped, pages[0].Bytes())
	q, err := object.FromBytes(shipped, reg)
	if err != nil {
		t.Fatal(err)
	}
	root := object.AsVector(object.Ref{Page: q, Off: q.Root()})
	if root.Len() != 1 {
		t.Fatalf("shipped partition page holds %d objects", root.Len())
	}
	if got := object.GetStrField(root.HandleAt(0), ti.Field("name")); got != "nested string payload" {
		t.Errorf("nested string lost across partition+ship: %q", got)
	}
}
