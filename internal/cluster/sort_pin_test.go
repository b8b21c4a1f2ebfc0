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
//
// On 2026-10-20 the page hashes were re-recorded when objects lost their
// destructors: the page header word [8:12], once a live-object count, is now
// zero on every page, and an object's count word became a referent mark that
// stops at 2 and that nothing lowers, so an outgrown array or an overwritten
// target keeps its mark. With those two words zeroed on both sides, every page matched the
// pages before byte for byte, and the row hashes did not move.
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
	"orderby/w=1/t=1": "f1bfb1986ae0583302297556e2568a58a38f2427c375af94894f97710e82ccdd",
	"orderby/w=1/t=2": "f1bfb1986ae0583302297556e2568a58a38f2427c375af94894f97710e82ccdd",
	"orderby/w=1/t=8": "f1bfb1986ae0583302297556e2568a58a38f2427c375af94894f97710e82ccdd",
	"orderby/w=2/t=1": "992c21b6f9e2649f82436bc01ff10c1f8075a01ac27cd0d4e059de503e905668",
	"orderby/w=2/t=2": "992c21b6f9e2649f82436bc01ff10c1f8075a01ac27cd0d4e059de503e905668",
	"orderby/w=2/t=8": "992c21b6f9e2649f82436bc01ff10c1f8075a01ac27cd0d4e059de503e905668",
	"orderby/w=4/t=1": "3feb02a4413f4407be64d567c279ad7980b630bab4b5354921f29872112fa385",
	"orderby/w=4/t=2": "3feb02a4413f4407be64d567c279ad7980b630bab4b5354921f29872112fa385",
	"orderby/w=4/t=8": "3feb02a4413f4407be64d567c279ad7980b630bab4b5354921f29872112fa385",
	"topk/w=1/t=1":    "27c7d5cd681802df673749c0e348505f94151a21adc1912ae8551032451d7d95",
	"topk/w=1/t=2":    "27c7d5cd681802df673749c0e348505f94151a21adc1912ae8551032451d7d95",
	"topk/w=1/t=8":    "27c7d5cd681802df673749c0e348505f94151a21adc1912ae8551032451d7d95",
	"topk/w=2/t=1":    "3a41366605b37f21d19825b9151bfc5b4a1b106772229896753a58491aa21400",
	"topk/w=2/t=2":    "3a41366605b37f21d19825b9151bfc5b4a1b106772229896753a58491aa21400",
	"topk/w=2/t=8":    "3a41366605b37f21d19825b9151bfc5b4a1b106772229896753a58491aa21400",
	"topk/w=4/t=1":    "102a563f5d6e88d1ce06136721e32c0f44f6b1a062704e049237187bb58f46a7",
	"topk/w=4/t=2":    "102a563f5d6e88d1ce06136721e32c0f44f6b1a062704e049237187bb58f46a7",
	"topk/w=4/t=8":    "102a563f5d6e88d1ce06136721e32c0f44f6b1a062704e049237187bb58f46a7",
	"window/w=1/t=1":  "b79f12f479c22deb3fe67e46aaadafa2c9c9c8489b4c0a073bdc1037c88f4d6e",
	"window/w=1/t=2":  "b79f12f479c22deb3fe67e46aaadafa2c9c9c8489b4c0a073bdc1037c88f4d6e",
	"window/w=1/t=8":  "b79f12f479c22deb3fe67e46aaadafa2c9c9c8489b4c0a073bdc1037c88f4d6e",
	"window/w=2/t=1":  "8e7cd09048a2901d6f0c15f55e4fa805321842061cd821272b8cb105e37bdc7a",
	"window/w=2/t=2":  "8e7cd09048a2901d6f0c15f55e4fa805321842061cd821272b8cb105e37bdc7a",
	"window/w=2/t=8":  "8e7cd09048a2901d6f0c15f55e4fa805321842061cd821272b8cb105e37bdc7a",
	"window/w=4/t=1":  "d3a08b29de1c3c0c1af4d46d26bc2c8d5a323bdc4b1865c427a487f37a5ba6c6",
	"window/w=4/t=2":  "d3a08b29de1c3c0c1af4d46d26bc2c8d5a323bdc4b1865c427a487f37a5ba6c6",
	"window/w=4/t=8":  "d3a08b29de1c3c0c1af4d46d26bc2c8d5a323bdc4b1865c427a487f37a5ba6c6",
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
