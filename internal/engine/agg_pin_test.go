package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
// hash of everything it wrote.
func pinStringAgg(t *testing.T, specName string, threads int) string {
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

	h := sha256.New()
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
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStringAggPagesPinned(t *testing.T) {
	for _, specName := range []string{"sum", "maxtag"} {
		for _, threads := range []int{1, 2} {
			cell := fmt.Sprintf("%s/t=%d", specName, threads)
			if got := pinStringAgg(t, specName, threads); got != pinnedStringAggHashes[cell] {
				t.Errorf("%s: pages hash %s, pinned %q", cell, got, pinnedStringAggHashes[cell])
			}
		}
	}
}

var pinnedStringAggHashes = map[string]string{
	"sum/t=1":    "82d6ac5b6feac5117eaf35c837bd66cc8822354961749f0b3f9b5908e70a242a",
	"sum/t=2":    "e8a4b41b63bd23cd2d5e6905ee290a27b7ce6f544938c2ebb3cd102afe8b3275",
	"maxtag/t=1": "ecfef1fb653eb5814f7f857e44bb8f396daba200384e44913fd921ba7eb95493",
	"maxtag/t=2": "fc1570cbcf9a7c5eeafed979dc4b620adbad288c85980dd1b4df9c66d3f39369",
}
