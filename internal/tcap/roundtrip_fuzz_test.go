package tcap_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/tcap"
)

// FuzzTCAPRoundTrip compiles fuzz-shaped relational computations — ORDER
// BY / top-k over arbitrary key arities, kinds, and directions, DISTINCT,
// WINDOW, and semi/anti JOIN — and asserts the printed TCAP round-trips
// through Parse unchanged, before and after optimization: the same text,
// and statements equal field for field to the originals. The printed text
// is the only cross-process program representation (proc-mode workers
// re-parse it), so Print→Parse identity is a wire-format contract, not a
// cosmetic one; a Stmt field the text does not carry never reaches a
// worker.
func FuzzTCAPRoundTrip(f *testing.F) {
	f.Add([]byte{0, 2, 1, 7, 3})
	f.Add([]byte{1, 1, 0, 0, 0})
	f.Add([]byte{2, 3, 5, 0, 9})
	f.Add([]byte{3, 1, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		op := data[0] % 4
		nKeys := 1 + int(data[1])%3
		descMask := data[2]
		limit := int(data[3]) % 50
		kindSel := data[4]

		kinds := []object.Kind{object.KInt64, object.KFloat64, object.KString, object.KBool}
		methods := []string{"k0", "k1", "k2"}
		keys := make([]core.SortKey, nKeys)
		for i := range keys {
			m := methods[i]
			keys[i] = core.SortKey{
				Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, m) },
				Kind: kinds[(int(kindSel)+i)%len(kinds)],
				Desc: descMask&(1<<i) != 0,
			}
		}
		scan := core.NewScan("db", "rows", "T")
		var comp core.Computation
		switch op {
		case 0:
			comp = &core.OrderBy{In: scan, ArgType: "T", Keys: keys, Limit: limit}
		case 1:
			comp = &core.Distinct{In: scan, ArgType: "T",
				Key:     func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, "k0") },
				KeyKind: kinds[int(kindSel)%len(kinds)],
				Make: func(a *object.Allocator, key object.Value) (object.Ref, error) {
					return object.NilRef, nil
				}}
		case 2:
			comp = &core.Window{In: scan, ArgType: "T", Keys: keys,
				Val:     func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, "v") },
				ValKind: object.KInt64,
				Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
					return next, nil
				},
				Emit: func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error) {
					return obj, nil
				}}
		case 3:
			kind := core.JoinSemi
			if descMask&1 == 1 {
				kind = core.JoinAnti
			}
			comp = &core.Join{
				In:       []core.Computation{scan, core.NewScan("db", "rows2", "T")},
				ArgTypes: []string{"T", "T"},
				Kind:     kind,
				Predicate: func(args []*lambda.Arg) lambda.Term {
					return lambda.Eq(lambda.FromMethod(args[0], "k0"), lambda.FromMethod(args[1], "k0"))
				}}
		}
		res, err := core.Compile(core.NewWrite("db", "out", comp))
		if err != nil {
			// Some fuzz shapes are legitimately rejected (e.g. kinds the
			// sort key encoder refuses); rejection is not a round-trip bug.
			t.Skip()
		}
		check := func(stage string, prog *tcap.Program) {
			text := prog.Print()
			reparsed, err := tcap.Parse(text)
			if err != nil {
				t.Fatalf("%s: printed program does not re-parse: %v\n%s", stage, err, text)
			}
			if reparsed.Print() != text {
				t.Fatalf("%s: round-trip changed the program:\n%s\nvs\n%s", stage, text, reparsed.Print())
			}
			// Clone on both sides: it turns an empty column list into nil,
			// as the text does (both print "()").
			for i, s := range prog.Stmts {
				if !reflect.DeepEqual(reparsed.Stmts[i].Clone(), s.Clone()) {
					t.Fatalf("%s: statement %d differs after the round trip:\n%#v\nvs\n%#v", stage, i, s, reparsed.Stmts[i])
				}
			}
		}
		check("compiled", res.Prog)
		opt, _, err := optimizer.Optimize(res.Prog)
		if err != nil {
			t.Fatalf("optimize: %v\n%s", err, res.Prog.Print())
		}
		check("optimized", opt)
	})
}
