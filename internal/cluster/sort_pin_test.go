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

// pinHash runs one variant on a fresh cluster and hashes the output set
// twice, in worker, page order: its page bytes (occupied prefix,
// length-framed), and its decoded rows — every field of every row, in row
// order.
func pinHash(t *testing.T, variant string, workers, threads int) (pageHash, rowHash string) {
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
	h, rh := sha256.New(), sha256.New()
	var frame [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(frame[:], v)
		rh.Write(frame[:])
	}
	for _, w := range c.Workers {
		out, err := w.Front.Store.Pages("db", "out")
		if err != nil {
			continue // every sorted page lands on worker 0
		}
		for _, p := range out {
			binary.LittleEndian.PutUint64(frame[:], uint64(len(p.Bytes())))
			h.Write(frame[:])
			h.Write(p.Bytes())
			if p.Root() == 0 {
				continue
			}
			root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
			for i := 0; i < root.Len(); i++ {
				r := root.HandleAt(i)
				name := object.GetStrField(r, ti.Field("name"))
				word(uint64(object.GetI64(r, ti.Field("grp"))))
				word(uint64(len(name)))
				rh.Write([]byte(name))
				word(math.Float64bits(object.GetF64(r, ti.Field("score"))))
				word(uint64(object.GetI64(r, ti.Field("id"))))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)), hex.EncodeToString(rh.Sum(nil))
}

// TestSortOutputPinned pins the bytes of the sorted output pages, not just
// the field values the other sort tests read: one SHA-256 per (variant,
// Workers, Threads), re-recorded when the sort merge began finalizing
// straight into the output set (no write stage copies its pages out any
// more), beside a hash of the decoded rows that move with no page layout.
// Worker counts differ legitimately — rows tying on every key keep
// SendData's placement order. Thread counts do not: the merge on worker 0
// writes the one output page sequence whatever the producers' thread
// count, so each (variant, Workers) has one page hash across Threads.
func TestSortOutputPinned(t *testing.T) {
	for _, variant := range []string{"orderby", "topk", "window"} {
		for _, workers := range []int{1, 2, 4} {
			first := ""
			for _, threads := range []int{1, 2, 8} {
				cell := fmt.Sprintf("%s/w=%d/t=%d", variant, workers, threads)
				pages, rows := pinHash(t, variant, workers, threads)
				if pages != pinnedSortHashes[cell] {
					t.Errorf("%s: output pages hash %s, pinned %q", cell, pages, pinnedSortHashes[cell])
				}
				if rows != pinnedSortRowHashes[cell] {
					t.Errorf("%s: output rows hash %s, pinned %q", cell, rows, pinnedSortRowHashes[cell])
				}
				if first == "" {
					first = pages
				} else if pages != first {
					t.Errorf("%s: output pages hash %s differs from Threads 1's %s", cell, pages, first)
				}
			}
		}
	}
}

var pinnedSortHashes = map[string]string{
	"orderby/w=1/t=1": "b1bdcb83e32fee0b20d40010d66b537b73842bf5e4dc214d6fa928d1df1e3478",
	"orderby/w=1/t=2": "b1bdcb83e32fee0b20d40010d66b537b73842bf5e4dc214d6fa928d1df1e3478",
	"orderby/w=1/t=8": "b1bdcb83e32fee0b20d40010d66b537b73842bf5e4dc214d6fa928d1df1e3478",
	"orderby/w=2/t=1": "0a2f82137b0ac6fcba48b794bc5e4a0e731ccca7e35d7558a292e2f89082d4d2",
	"orderby/w=2/t=2": "0a2f82137b0ac6fcba48b794bc5e4a0e731ccca7e35d7558a292e2f89082d4d2",
	"orderby/w=2/t=8": "0a2f82137b0ac6fcba48b794bc5e4a0e731ccca7e35d7558a292e2f89082d4d2",
	"orderby/w=4/t=1": "e8f40d1252665aeea2bd569797d0d64727008ff16ff557d0be7a5e88b53dcb6f",
	"orderby/w=4/t=2": "e8f40d1252665aeea2bd569797d0d64727008ff16ff557d0be7a5e88b53dcb6f",
	"orderby/w=4/t=8": "e8f40d1252665aeea2bd569797d0d64727008ff16ff557d0be7a5e88b53dcb6f",
	"topk/w=1/t=1":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=1/t=2":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=1/t=8":    "e60098ea6818b8c4a2012d2f6d3b1f55bb00b54d193517bcf747401644dde62b",
	"topk/w=2/t=1":    "8dd868f43ba95537ecabbdd46ad4eef1174a31614c969386db57c509c622d2ad",
	"topk/w=2/t=2":    "8dd868f43ba95537ecabbdd46ad4eef1174a31614c969386db57c509c622d2ad",
	"topk/w=2/t=8":    "8dd868f43ba95537ecabbdd46ad4eef1174a31614c969386db57c509c622d2ad",
	"topk/w=4/t=1":    "76a8da7a6f8d27b1b44e7211da075e91d5c4f67285b13cd5855199b0febb6fb9",
	"topk/w=4/t=2":    "76a8da7a6f8d27b1b44e7211da075e91d5c4f67285b13cd5855199b0febb6fb9",
	"topk/w=4/t=8":    "76a8da7a6f8d27b1b44e7211da075e91d5c4f67285b13cd5855199b0febb6fb9",
	"window/w=1/t=1":  "08838e2adce3a35b2ef595a84715b093486df6e3c3707f838f01c353f739c129",
	"window/w=1/t=2":  "08838e2adce3a35b2ef595a84715b093486df6e3c3707f838f01c353f739c129",
	"window/w=1/t=8":  "08838e2adce3a35b2ef595a84715b093486df6e3c3707f838f01c353f739c129",
	"window/w=2/t=1":  "18159d29eb91a51a6510ea5f3c08d33de10c0e84e38751ef29c652ca6fedd0fd",
	"window/w=2/t=2":  "18159d29eb91a51a6510ea5f3c08d33de10c0e84e38751ef29c652ca6fedd0fd",
	"window/w=2/t=8":  "18159d29eb91a51a6510ea5f3c08d33de10c0e84e38751ef29c652ca6fedd0fd",
	"window/w=4/t=1":  "5950c174b2d755006f1b0655014decc870376030fa386cb25d77a599f7bae309",
	"window/w=4/t=2":  "5950c174b2d755006f1b0655014decc870376030fa386cb25d77a599f7bae309",
	"window/w=4/t=8":  "5950c174b2d755006f1b0655014decc870376030fa386cb25d77a599f7bae309",
}

// pinnedSortRowHashes pins the decoded rows of the same cells: what a
// reader of the output set sees, whatever pages carry it.
var pinnedSortRowHashes = map[string]string{
	"orderby/w=1/t=2": "6b18736485c45273898bee7a0d8208e3c28a0b6446ea011e41b772db49965216",
	"orderby/w=1/t=8": "6b18736485c45273898bee7a0d8208e3c28a0b6446ea011e41b772db49965216",
	"orderby/w=2/t=1": "f54c80dcd11dc9aa71b49cb9f5f67bcd085bb879cb902261a83229224b7229cb",
	"orderby/w=2/t=2": "f54c80dcd11dc9aa71b49cb9f5f67bcd085bb879cb902261a83229224b7229cb",
	"orderby/w=2/t=8": "f54c80dcd11dc9aa71b49cb9f5f67bcd085bb879cb902261a83229224b7229cb",
	"orderby/w=4/t=1": "6ea17f34e55230a016bce376c2066c5217f82a2b8cd9eaeae90b3cc1d70678c8",
	"orderby/w=4/t=2": "6ea17f34e55230a016bce376c2066c5217f82a2b8cd9eaeae90b3cc1d70678c8",
	"orderby/w=4/t=8": "6ea17f34e55230a016bce376c2066c5217f82a2b8cd9eaeae90b3cc1d70678c8",
	"topk/w=1/t=1":    "ef0003bb3f3762d496020e28b5118fe76ed5b36ce83727e2f3f060374066edb0",
	"topk/w=1/t=2":    "ef0003bb3f3762d496020e28b5118fe76ed5b36ce83727e2f3f060374066edb0",
	"topk/w=1/t=8":    "ef0003bb3f3762d496020e28b5118fe76ed5b36ce83727e2f3f060374066edb0",
	"topk/w=2/t=1":    "b9c903500d3564206042ab6cc2865152213c7caf9ac4d5e62630ee1388257bf6",
	"topk/w=2/t=2":    "b9c903500d3564206042ab6cc2865152213c7caf9ac4d5e62630ee1388257bf6",
	"topk/w=2/t=8":    "b9c903500d3564206042ab6cc2865152213c7caf9ac4d5e62630ee1388257bf6",
	"topk/w=4/t=1":    "e98179124ca73a1ae6d62a230bdd13f1d815eebc6fda266e14a30c1d48ced10a",
	"topk/w=4/t=2":    "e98179124ca73a1ae6d62a230bdd13f1d815eebc6fda266e14a30c1d48ced10a",
	"topk/w=4/t=8":    "e98179124ca73a1ae6d62a230bdd13f1d815eebc6fda266e14a30c1d48ced10a",
	"window/w=1/t=1":  "44dba5c170a1fb93a7d1f732a9e81ac5673a32a1d09525ca6bd0da7ea75f8fe9",
	"window/w=1/t=2":  "44dba5c170a1fb93a7d1f732a9e81ac5673a32a1d09525ca6bd0da7ea75f8fe9",
	"window/w=1/t=8":  "44dba5c170a1fb93a7d1f732a9e81ac5673a32a1d09525ca6bd0da7ea75f8fe9",
	"window/w=2/t=1":  "f9cd21e66106d316761aedfef1562b03d34d5194d1d84c79eea717d4a20bd2f4",
	"window/w=2/t=2":  "f9cd21e66106d316761aedfef1562b03d34d5194d1d84c79eea717d4a20bd2f4",
	"window/w=2/t=8":  "f9cd21e66106d316761aedfef1562b03d34d5194d1d84c79eea717d4a20bd2f4",
	"window/w=4/t=1":  "75bd7e337eb2039c87bb47d57fd421fc83a8efa0ec249d9b10c3081b04eb0596",
	"window/w=4/t=2":  "75bd7e337eb2039c87bb47d57fd421fc83a8efa0ec249d9b10c3081b04eb0596",
	"window/w=4/t=8":  "75bd7e337eb2039c87bb47d57fd421fc83a8efa0ec249d9b10c3081b04eb0596",
	"orderby/w=1/t=1": "6b18736485c45273898bee7a0d8208e3c28a0b6446ea011e41b772db49965216",
}
