package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/object"
	"repro/internal/tcap"
)

// The string-keyed aggregation pin: page bytes of every phase a string key
// passes through — AggSink pre-aggregation, the streaming merge (its
// sub-maps part-way through the stream and at its end), finalize — hashed
// per (spec, threads) and recorded at the commit before strings stopped
// materialising as Go strings. Keys and values reach the sink the way a member kernel delivers
// them, read off input pages with GetField, so whatever form a KString
// Value read from a page takes, these are the bytes it has to produce.
//
// The hashes were re-recorded once, when every allocation block became a
// region: the sink's pages stopped reusing the space of outgrown slot arrays
// (both specs) and of replaced string values (maxtag), so they fill sooner —
// 70 → 75 sink pages for sum, 84 → 91 for maxtag — and the merge, fed more
// pages, cuts and folds at other points. The input pages are unchanged.
//
// They were re-recorded a second time when maps that move kept their size.
// A rotated sink page makes each partition map at the slot count it reached
// on the page before, not at 8, so the pages stop carrying a doubling chain
// of outgrown slot arrays: 75 → 49 sink pages for sum, 91 → 81 for maxtag,
// and the sink's rehashes drop from 368 and 360 to 6 each. The merge grows
// its sub-map pages to the same sizes as before, 4 to 32 KiB, but a grown
// page's map starts at the slot count the faulted update needed, not at 64,
// so the copy onto it no longer rehashes.
//
// The Threads 2 hashes were re-recorded a third time when finalize began
// running one thread per BatchSize groups: each partition's hundred or so
// groups now finalize, both sub-maps in order, onto one page run instead of
// one per sub-map. The sink and merge pages are unchanged.
//
// On 2026-10-20 the page hashes were re-recorded when objects lost their
// destructors: the page header word [8:12], once a live-object count, is now
// zero on every page, and an object's count word became a referent mark that
// stops at 2 and that nothing lowers, so an outgrown array or an overwritten
// target keeps its mark. With those two words zeroed on both sides, every page matched the
// pages before byte for byte, and the row hashes, recorded the commit
// before, did not move.
//
// On 2026-10-21 the page hashes were re-recorded when pages lost their
// managed flag: header word [16:20], which every page built here carried as
// 1, is now written zero. With that word zeroed on both sides, every hashed
// page matched the pages before byte for byte; the row hashes did not move.

func pinKVType(reg *object.Registry) *object.TypeInfo {
	return object.NewStruct("PinKV").
		AddField("name", object.KString).
		AddField("tag", object.KString).
		AddField("v", object.KFloat64).
		MustBuild(reg)
}

// pinKVPages builds the fixed corpus: 3000 rows over about 300 distinct
// names drawn from an alphabet with 0x00 and 0xFF, the empty name included.
func pinKVPages(t *testing.T, reg *object.Registry, ti *object.TypeInfo) []*object.Page {
	t.Helper()
	rng := rand.New(rand.NewSource(0x19))
	alphabet := []byte{'a', 'b', 'c', 0x00, 0xFF, 'z'}
	word := func(maxLen int) string {
		b := make([]byte, rng.Intn(maxLen+1))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	names := make([]string, 300)
	for i := range names {
		names[i] = word(12)
	}
	names[7] = ""
	pages, err := object.BuildPages(reg, 1<<13, 3000, func(a *object.Allocator, i int) (object.Ref, error) {
		o, err := a.MakeObject(ti)
		if err != nil {
			return object.NilRef, err
		}
		object.SetF64(o, ti.Field("v"), float64(rng.Intn(1000))/8)
		if err := object.SetStrField(a, o, ti.Field("tag"), word(5)); err != nil {
			return object.NilRef, err
		}
		return o, object.SetStrField(a, o, ti.Field("name"), names[rng.Intn(len(names))])
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

func hashPages(h interface{ Write([]byte) (int, error) }, pages []*object.Page) {
	var frame [8]byte
	for _, p := range pages {
		binary.LittleEndian.PutUint64(frame[:], uint64(len(p.Bytes())))
		h.Write(frame[:])
		h.Write(p.Bytes())
	}
}

// pinStringAgg runs one spec end to end at one thread count and returns the
// hash of everything it wrote and the hash of its finalized rows: each
// row's name and value, length-framed, in partition, page and row order.
func pinStringAgg(t *testing.T, specName string, threads int) (pages, rows string) {
	t.Helper()
	reg := object.NewRegistry()
	ti := pinKVType(reg)
	in := pinKVPages(t, reg, ti)

	valField := ti.Field("v")
	spec := &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}
	if specName == "maxtag" {
		valField = ti.Field("tag")
		spec.ValKind = object.KString
		spec.Combine = func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists || cur.Less(next) {
				return next, nil
			}
			return cur, nil
		}
	}
	spec.Finalize = func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
		o, err := a.MakeObject(ti)
		if err != nil {
			return object.NilRef, err
		}
		if err := object.SetField(a, o, ti.Field("name"), key); err != nil {
			return object.NilRef, err
		}
		return o, object.SetField(a, o, valField, val)
	}

	h, rh := sha256.New(), sha256.New()
	const parts = 3
	stats := &Stats{}
	sink, err := NewAggSink(reg, 1<<12, parts, spec, "key", "val", nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Reg: reg, Out: sink.Out, Stats: stats}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}
	for _, pg := range in {
		root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
		keys := make([]object.Value, root.Len())
		vals := make([]object.Value, root.Len())
		for i := range keys {
			keys[i] = object.GetField(root.HandleAt(i), ti.Field("name"))
			vals[i] = object.GetField(root.HandleAt(i), valField)
		}
		vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{ColumnOf(keys), ColumnOf(vals)}}
		if err := sink.Consume(ctx, vl, stmt); err != nil {
			t.Fatal(err)
		}
	}
	shuffled := sink.Pages()
	if len(shuffled) < 6 {
		t.Fatalf("want a stream long enough to split, got %d pages", len(shuffled))
	}
	hashPages(h, shuffled)

	for part := 0; part < parts; part++ {
		merge := func(pages []*object.Page) ([]object.OMap, []*object.Page) {
			finals, subs, err := MergeAggMapsStream(reg, SliceSource(pages), part, parts, spec, 1<<11, nil, threads)
			if err != nil {
				t.Fatal(err)
			}
			return finals, subs
		}
		// The sub-maps part-way through the stream, then the whole
		// stream's. The part-way point — the largest even page count up to
		// half the stream plus one — is the one the hashes were recorded
		// at; the prefix's bytes are written without length frames.
		mid := len(shuffled)/2 + 1
		_, prefix := merge(shuffled[:mid-mid%2])
		for _, s := range prefix {
			h.Write(s.Bytes())
		}
		finals, subs := merge(shuffled)
		hashPages(h, subs)
		out, err := FinalizeAggParallel(reg, finals, spec, 1<<12, nil, stats)
		if err != nil {
			t.Fatal(err)
		}
		hashPages(h, out)
		hashRows(rh, out, ti.Field("name"), valField)
	}
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(rh.Sum(nil))
}

// hashRows writes each finalized row's name and value, whatever bytes the
// pages carrying them hold.
func hashRows(h interface{ Write([]byte) (int, error) }, pages []*object.Page, name, val *object.Field) {
	var frame [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(frame[:], v)
		h.Write(frame[:])
	}
	str := func(s string) {
		word(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, p := range pages {
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i, n := 0, root.Len(); i < n; i++ {
			r := root.HandleAt(i)
			str(object.GetStrField(r, name))
			if val.Kind == object.KString {
				str(object.GetStrField(r, val))
			} else {
				word(math.Float64bits(object.GetF64(r, val)))
			}
		}
	}
}

func TestStringAggPagesPinned(t *testing.T) {
	for _, specName := range []string{"sum", "maxtag"} {
		for _, threads := range []int{1, 2} {
			cell := fmt.Sprintf("%s/t=%d", specName, threads)
			pages, rows := pinStringAgg(t, specName, threads)
			if pages != pinnedStringAggHashes[cell] {
				t.Errorf("%s: pages hash %s, pinned %q", cell, pages, pinnedStringAggHashes[cell])
			}
			if rows != pinnedStringAggRowHashes[cell] {
				t.Errorf("%s: rows hash %s, pinned %q", cell, rows, pinnedStringAggRowHashes[cell])
			}
		}
	}
}

var pinnedStringAggHashes = map[string]string{
	"sum/t=1":    "0d93daa06ef4cf9cce3fe1f7719a18fbe2a68731d64a62e8f50f0e140531ae1e",
	"sum/t=2":    "1b7f4cfa50e9a9b9eb9e28aa2c4a692cf0efcadcd760687416b18198585c06d6",
	"maxtag/t=1": "45fd24108f7927f1ab71c1cc4f7b8d8d8b538930e793af76d1999f0ba8f301fb",
	"maxtag/t=2": "94c95fe2e2e0bedebc55a05c37de171294f84d20f446fcc664dee0c81ecc66da",
}

// pinnedStringAggRowHashes pins the finalized rows of the same cells: what a
// reader of the output sees, whatever pages carry it.
var pinnedStringAggRowHashes = map[string]string{
	"sum/t=1":    "16efdc0a2f8606cb69f91f058e679ca757cadf3631fbd2b421f742efd7d04563",
	"sum/t=2":    "f3b0f242d4db34f7f2ad765c509b940e1557b06dd312cd224d2ce35a4b8d9646",
	"maxtag/t=1": "ce769950913f2e73f0ec4607d55731af101f6fe44365550694fe2a6abf510420",
	"maxtag/t=2": "f341df518becc11bf42cc85a4cc9cc3b2bf668bcefc765d06fd2239227d905d7",
}
