package agglib

import (
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/procwork"
)

// TestFamiliesRebuildFromPrintedTCAP is the shipping contract of every
// family this package registers: a computation naming the family compiles
// and optimizes on the master, crosses to the worker as printed TCAP plus
// type schemas, and core.Rebuild resolves the same aggregation there — the
// same kinds and the same typed fold (so a worker process runs the typed
// loop, not only the master), in a program the physical planner accepts and
// that computes the family's result over rows stored on that side. A family
// without a case here fails the test, so a new one cannot ship untested.
func TestFamiliesRebuildFromPrintedTCAP(t *testing.T) {
	// The stored rows, as Rec{grp, val int64; fval float64}: fval = val/2.
	rows := [][2]int64{{9, 3}, {4, 10}, {9, -4}, {9, 8}, {4, 6}}
	type want struct {
		field string            // the field folded and written
		fold  object.FoldOp     // the fold both sides must carry
		out   map[int64]float64 // per grp, the finalized field
	}
	cases := map[string]want{
		"sumI64":   {"val", object.FoldSum, map[int64]float64{9: 7, 4: 16}},
		"minI64":   {"val", object.FoldMin, map[int64]float64{9: -4, 4: 6}},
		"maxI64":   {"val", object.FoldMax, map[int64]float64{9: 8, 4: 10}},
		"sumF64":   {"fval", object.FoldSum, map[int64]float64{9: 3.5, 4: 8}},
		"minF64":   {"fval", object.FoldMin, map[int64]float64{9: -2, 4: 3}},
		"maxF64":   {"fval", object.FoldMax, map[int64]float64{9: 4, 4: 5}},
		"countI64": {"val", object.FoldSum, map[int64]float64{9: 3, 4: 2}},
	}
	for name := range families {
		c, ok := cases[name]
		if !ok {
			t.Errorf("family %q has no rebuild case in this test", name)
			continue
		}
		reg := object.NewRegistry()
		object.NewStruct("Rec").AddField("grp", object.KInt64).AddField("val", object.KInt64).
			AddField("fval", object.KFloat64).MustBuild(reg)
		agg, err := New(reg, name, "db", "rows", "Rec", "grp", c.field)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := core.Compile(core.NewWrite("db", "out", agg))
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		opt, _, err := optimizer.Optimize(res.Prog)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}

		// The worker's side: a fresh registry holding only what was shipped.
		far := object.NewRegistry()
		if err := procwork.RegisterSchemas(far, procwork.SchemasOf(reg)); err != nil {
			t.Fatal(err)
		}
		got, err := core.Rebuild(opt.Print(), far)
		if err != nil {
			t.Fatalf("%s: rebuild from printed TCAP: %v", name, err)
		}
		plan, err := physical.Build(got.Prog)
		if err != nil {
			t.Fatalf("%s: planning the rebuilt program: %v", name, err)
		}
		if len(res.AggSpecs) != 1 {
			t.Fatalf("%s: compiled %d aggregation specs, want 1", name, len(res.AggSpecs))
		}
		for list, compiled := range res.AggSpecs {
			spec := got.AggSpecs[list]
			if spec == nil {
				t.Fatalf("%s: rebuilt program has no spec for %q", name, list)
			}
			if spec.KeyKind != compiled.KeyKind || spec.ValKind != compiled.ValKind {
				t.Errorf("%s: rebuilt kinds %v/%v, want %v/%v", name, spec.KeyKind, spec.ValKind, compiled.KeyKind, compiled.ValKind)
			}
			if spec.Fold != c.fold || compiled.Fold != c.fold || spec.Combine != nil || compiled.Combine != nil {
				t.Errorf("%s: folds compiled %v / rebuilt %v (Combine set: %v / %v), want the %v fold and no closure on both sides",
					name, compiled.Fold, spec.Fold, compiled.Combine != nil, spec.Combine != nil, c.fold)
			}
		}

		// Run the rebuilt program over rows stored with the far registry.
		rec := far.LookupName("Rec")
		page := object.NewPage(1<<14, far)
		a := object.NewAllocator(page)
		root, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Retain()
		page.SetRoot(root.Off)
		for _, r := range rows {
			obj, err := a.MakeObject(rec)
			if err != nil {
				t.Fatal(err)
			}
			object.SetI64(obj, rec.Field("grp"), r[0])
			object.SetI64(obj, rec.Field("val"), r[1])
			object.SetF64(obj, rec.Field("fval"), float64(r[1])/2)
			if err := root.PushBackHandle(a, obj); err != nil {
				t.Fatal(err)
			}
		}
		store := core.NewMemStore()
		store.Sets["db.rows"] = []*object.Page{page}
		if err := core.NewExecutor(store, far, 1<<14, 2).Run(got, plan); err != nil {
			t.Fatalf("%s: running the rebuilt program: %v", name, err)
		}
		out := map[int64]float64{}
		for _, pg := range store.Sets["db.out"] {
			vec := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
			for i := 0; i < vec.Len(); i++ {
				obj := vec.HandleAt(i)
				v := object.GetField(obj, rec.Field(c.field))
				out[object.GetI64(obj, rec.Field("grp"))] = v.AsFloat64()
			}
		}
		if len(out) != len(c.out) {
			t.Errorf("%s: %d groups %v, want %v", name, len(out), out, c.out)
		}
		for grp, v := range c.out {
			if out[grp] != v {
				t.Errorf("%s: group %d finalized %s = %v, want %v", name, grp, c.field, out[grp], v)
			}
		}
	}
}

// TestFamilyRejectsMistypedFields: a family folds the field kind it names;
// pointing it at a field of another kind is refused when the computation is
// built, on either side of the boundary.
func TestFamilyRejectsMistypedFields(t *testing.T) {
	reg := object.NewRegistry()
	object.NewStruct("Rec").AddField("grp", object.KInt64).AddField("val", object.KInt64).
		AddField("fval", object.KFloat64).MustBuild(reg)
	if _, err := New(reg, "sumF64", "db", "rows", "Rec", "grp", "val"); err == nil {
		t.Error("sumF64 over an int64 field was accepted")
	}
	if _, err := New(reg, "minI64", "db", "rows", "Rec", "fval", "val"); err == nil {
		t.Error("a float64 group key was accepted")
	}
	if _, err := New(reg, "avgI64", "db", "rows", "Rec", "grp", "val"); err == nil {
		t.Error("an unregistered family was accepted")
	}
}
