package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// pinRow is the pinned sort corpus' row. grp == pinNull stands for a NULL
// key (the getGrp method maps it to the invalid Value).
type pinRow struct {
	grp   int64
	name  string
	score float64
}

const pinNull int64 = -1 << 40

// pinCorpus is seeded and fixed: few distinct groups (so most rows tie on
// the first key), one group in six NULL, names over an alphabet that
// includes 0x00 and 0xFF, scores over a handful of floats with both zeros
// and both infinities. NaN stays out: its order is not a total one to pin.
func pinCorpus() []pinRow {
	rng := newSplitMix(0x5027)
	alphabet := []byte{'a', 0x00, 'b', 0xFF}
	scores := []float64{math.Inf(-1), -2.5, math.Copysign(0, -1), 0, 0.125, 7, math.Inf(1)}
	rows := make([]pinRow, 600)
	for i := range rows {
		r := pinRow{grp: rng.n(9), score: scores[rng.n(int64(len(scores)))]}
		if rng.n(6) == 0 {
			r.grp = pinNull
		}
		name := make([]byte, rng.n(4))
		for j := range name {
			name[j] = alphabet[rng.n(int64(len(alphabet)))]
		}
		r.name = string(name)
		rows[i] = r
	}
	return rows
}

func pinType(reg *object.Registry) *object.TypeInfo {
	ti := object.NewStruct("PinRow").
		AddField("grp", object.KInt64).
		AddField("name", object.KString).
		AddField("score", object.KFloat64).
		AddField("id", object.KInt64).
		MustBuild(reg)
	ti.Methods["getGrp"] = object.Method{Name: "getGrp", Ret: object.KInt64,
		Fn: func(r object.Ref) object.Value {
			if g := object.GetI64(r, ti.Field("grp")); g != pinNull {
				return object.Int64Value(g)
			}
			return object.Value{}
		}}
	ti.Methods["getName"] = object.Method{Name: "getName", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, ti.Field("name")))
		}}
	ti.Methods["getScore"] = object.Method{Name: "getScore", Ret: object.KFloat64,
		Fn: func(r object.Ref) object.Value {
			return object.Float64Value(object.GetF64(r, ti.Field("score")))
		}}
	ti.Methods["getID"] = object.Method{Name: "getID", Ret: object.KInt64,
		Fn: func(r object.Ref) object.Value {
			return object.Int64Value(object.GetI64(r, ti.Field("id")))
		}}
	return ti
}

func pinMake(a *object.Allocator, ti *object.TypeInfo, r pinRow, id int64) (object.Ref, error) {
	o, err := a.MakeObject(ti)
	if err != nil {
		return object.NilRef, err
	}
	object.SetI64(o, ti.Field("grp"), r.grp)
	object.SetF64(o, ti.Field("score"), r.score)
	object.SetI64(o, ti.Field("id"), id)
	return o, object.SetStrField(a, o, ti.Field("name"), r.name)
}

// pinComputation builds one sort-family job over db.rows ordered by
// (grp asc NULLs first, name desc, score asc) — not a total order, so ties
// exercise the stable tie-break.
func pinComputation(variant string, ti *object.TypeInfo) core.Computation {
	method := func(name string, kind object.Kind, desc bool) core.SortKey {
		return core.SortKey{Kind: kind, Desc: desc,
			Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, name) }}
	}
	keys := []core.SortKey{
		method("getGrp", object.KInt64, false),
		method("getName", object.KString, true),
		method("getScore", object.KFloat64, false),
	}
	scan := core.NewScan("db", "rows", ti.Name)
	switch variant {
	case "orderby":
		return &core.OrderBy{In: scan, ArgType: ti.Name, Keys: keys}
	case "topk":
		return &core.OrderBy{In: scan, ArgType: ti.Name, Keys: keys, Limit: 40}
	case "window":
		return &core.Window{In: scan, ArgType: ti.Name, Keys: keys,
			Val:     func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, "getID") },
			ValKind: object.KInt64,
			Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
				if !exists {
					return next, nil
				}
				return object.Int64Value(cur.AsInt64() + next.AsInt64()), nil
			},
			Emit: func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error) {
				return pinMake(a, ti, pinRow{
					grp:   object.GetI64(obj, ti.Field("grp")),
					name:  object.GetStrField(obj, ti.Field("name")),
					score: object.GetF64(obj, ti.Field("score")),
				}, running.AsInt64())
			}}
	}
	panic("unknown variant " + variant)
}

// pinHash runs one variant on a fresh cluster and hashes the output set's
// page bytes (occupied prefix, length-framed) in worker, page order.
func pinHash(t *testing.T, variant string, workers, threads int) string {
	t.Helper()
	c, err := New(Config{Workers: workers, Threads: threads, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := c.Catalog.Registry()
	ti := pinType(reg)
	rows := pinCorpus()
	if err := c.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSet("db", "rows", ti.Name); err != nil {
		t.Fatal(err)
	}
	pages, err := object.BuildPages(reg, 1<<12, len(rows), func(a *object.Allocator, i int) (object.Ref, error) {
		return pinMake(a, ti, rows[i], int64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendData("db", "rows", pages); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSet("db", "out", ti.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(core.NewWrite("db", "out", pinComputation(variant, ti))); err != nil {
		t.Fatalf("%s w=%d t=%d: %v", variant, workers, threads, err)
	}
	h := sha256.New()
	var frame [8]byte
	for _, w := range c.Workers {
		out, err := w.Front.Store.Pages("db", "out")
		if err != nil {
			continue // every sorted page lands on worker 0
		}
		for _, p := range out {
			binary.LittleEndian.PutUint64(frame[:], uint64(len(p.Bytes())))
			h.Write(frame[:])
			h.Write(p.Bytes())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSortOutputPinned pins the bytes of the sorted output pages, not just
// the field values the other sort tests read: one SHA-256 per (variant,
// Workers, Threads), recorded at the commit before the sort path was
// rewritten. Worker counts differ legitimately — rows tying on every key
// keep SendData's placement order. Thread counts differ too, though the
// row order does not:
// the write stage after the merge copies the sorted pages out in per-thread
// chunks, and a chunk's last page ends without the orphaned half-copied
// object that a page sealed by a failed append carries. Top-k fits one page
// and is the same at every thread count.
func TestSortOutputPinned(t *testing.T) {
	for _, variant := range []string{"orderby", "topk", "window"} {
		for _, workers := range []int{1, 2, 4} {
			for _, threads := range []int{1, 2, 8} {
				cell := fmt.Sprintf("%s/w=%d/t=%d", variant, workers, threads)
				if got := pinHash(t, variant, workers, threads); got != pinnedSortHashes[cell] {
					t.Errorf("%s: output pages hash %s, pinned %q", cell, got, pinnedSortHashes[cell])
				}
			}
		}
	}
}

var pinnedSortHashes = map[string]string{
	"orderby/w=1/t=1": "b1bdcb83e32fee0b20d40010d66b537b73842bf5e4dc214d6fa928d1df1e3478",
	"orderby/w=1/t=2": "e730cfb57fe704832bf2cb12cd4b360a4e925e3b17b3dd9a76390991fc494c8b",
	"orderby/w=1/t=8": "f029ce1fb79da8d95c4c45602ad7d969ebf49befdb5feebe72bb0c6e95ac96fb",
	"orderby/w=2/t=1": "dbe23daf89f825543db086ab21a1affd1a1141465b901fe186fc81a70995183a",
	"orderby/w=2/t=2": "b0baadae9bf5b872488893f6979dae72b5c40f490400f77ebeaae9e68095a5b6",
	"orderby/w=2/t=8": "9b9b94aab6d6f4dca2337faebe45f6678a5785d0343404b66a42b018da8800d5",
	"orderby/w=4/t=1": "c6f23cfe6b8d7ba2c8ce6955176ec323631a41c8db29f154e51474ad5216b10a",
	"orderby/w=4/t=2": "69125f971b20d3836ea13bca6f440996d21a1bd7743d300c90edc6f95ce704a1",
	"orderby/w=4/t=8": "d93d14f01a05ce4931ba505b5d599d6f7cb3a77e105485e4be6698a8d31801db",
	"topk/w=1/t=1":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=1/t=2":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=1/t=8":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=2/t=1":    "28d344670ecea77a706dc8af6eb836fe063556a4dd765f3f46d4b2d15c1e5224",
	"topk/w=2/t=2":    "28d344670ecea77a706dc8af6eb836fe063556a4dd765f3f46d4b2d15c1e5224",
	"topk/w=2/t=8":    "28d344670ecea77a706dc8af6eb836fe063556a4dd765f3f46d4b2d15c1e5224",
	"topk/w=4/t=1":    "538847494f08d6eed45ee6b67e6e6015d205f1f01c8268b8e9650c9979ae7217",
	"topk/w=4/t=2":    "538847494f08d6eed45ee6b67e6e6015d205f1f01c8268b8e9650c9979ae7217",
	"topk/w=4/t=8":    "538847494f08d6eed45ee6b67e6e6015d205f1f01c8268b8e9650c9979ae7217",
	"window/w=1/t=1":  "eb6a74188d40f4fc6689b9208d6b9681fb352b66c0e333d4cbed32d918bf58d3",
	"window/w=1/t=2":  "e4f550d2ef65a3915cc1ce637097fe01798b774dd66c42d5655c572caba18922",
	"window/w=1/t=8":  "c4564d0bc247c6a52464c35d87ed9bdf4c5d64a28f30f1487be7a2f65dd1b9e2",
	"window/w=2/t=1":  "241b7d679dd2ef345c330ac1cbc66145dac858975787da5f25850031d328b797",
	"window/w=2/t=2":  "7a11eacc8922d4829fc70d28cce3d322e7e11fc3c6fd647e9ffbc37490d1c15e",
	"window/w=2/t=8":  "d1da908e2e68bf9d1d3fadbb9a53bd381cb91b512991fd904348d302ea4ea1f2",
	"window/w=4/t=1":  "ebc5000d10389751d1f4b89a34922974d15e8b59c06a1b3782e53444bf766f0e",
	"window/w=4/t=2":  "f9f03ff40e51066c60dce103988dcc1d9b76049a5e681c58a7fd8a0cbd35dbc0",
	"window/w=4/t=8":  "777714d00aaa8333d7a1f2b65d6f6e3646b5b509b0bcc41ed4856d313eaf4eee",
}
