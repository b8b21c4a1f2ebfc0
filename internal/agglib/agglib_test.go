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
// same kinds, a Combine and Finalize that compute the same result, and a
// program the physical planner still accepts. A family without a case here
// fails the test, so a new one cannot ship untested.
func TestFamiliesRebuildFromPrintedTCAP(t *testing.T) {
	type shipped struct {
		// build is a computation naming the family, over Rec{grp, val int64}.
		build func(reg *object.Registry) (*core.Aggregate, error)
		// check folds 3 then 4 into key 9 through the rebuilt spec and
		// inspects the finalized object.
		check func(t *testing.T, out object.Ref, rec *object.TypeInfo)
	}
	cases := map[string]shipped{
		"sumI64": {
			build: func(reg *object.Registry) (*core.Aggregate, error) {
				return SumI64(reg, "db", "rows", "Rec", "grp", "val")
			},
			check: func(t *testing.T, out object.Ref, rec *object.TypeInfo) {
				if g, v := object.GetI64(out, rec.Field("grp")), object.GetI64(out, rec.Field("val")); g != 9 || v != 7 {
					t.Errorf("finalized (grp, val) = (%d, %d), want (9, 7)", g, v)
				}
			},
		},
	}
	for prefix := range families {
		c, ok := cases[prefix]
		if !ok {
			t.Errorf("family %q has no rebuild case in this test", prefix)
			continue
		}
		reg := object.NewRegistry()
		object.NewStruct("Rec").AddField("grp", object.KInt64).AddField("val", object.KInt64).MustBuild(reg)
		agg, err := c.build(reg)
		if err != nil {
			t.Fatalf("%s: %v", prefix, err)
		}
		res, err := core.Compile(core.NewWrite("db", "out", agg))
		if err != nil {
			t.Fatalf("%s: compile: %v", prefix, err)
		}
		opt, _, err := optimizer.Optimize(res.Prog)
		if err != nil {
			t.Fatalf("%s: optimize: %v", prefix, err)
		}

		// The worker's side: a fresh registry holding only what was shipped.
		far := object.NewRegistry()
		if err := procwork.RegisterSchemas(far, procwork.SchemasOf(reg)); err != nil {
			t.Fatal(err)
		}
		got, err := core.Rebuild(opt.Print(), far)
		if err != nil {
			t.Fatalf("%s: rebuild from printed TCAP: %v", prefix, err)
		}
		if _, err := physical.Build(got.Prog); err != nil {
			t.Errorf("%s: planning the rebuilt program: %v", prefix, err)
		}
		if len(res.AggSpecs) != 1 {
			t.Fatalf("%s: compiled %d aggregation specs, want 1", prefix, len(res.AggSpecs))
		}
		for list, want := range res.AggSpecs {
			spec := got.AggSpecs[list]
			if spec == nil {
				t.Fatalf("%s: rebuilt program has no spec for %q", prefix, list)
			}
			if spec.KeyKind != want.KeyKind || spec.ValKind != want.ValKind {
				t.Errorf("%s: rebuilt kinds %v/%v, want %v/%v", prefix, spec.KeyKind, spec.ValKind, want.KeyKind, want.ValKind)
			}
			a := object.NewAllocator(object.NewPage(1<<12, far), object.PolicyLightweightReuse)
			acc, err := spec.Combine(a, object.Value{}, false, object.Int64Value(3))
			if err == nil {
				acc, err = spec.Combine(a, acc, true, object.Int64Value(4))
			}
			if err != nil {
				t.Fatalf("%s: rebuilt Combine: %v", prefix, err)
			}
			out, err := spec.Finalize(a, object.Int64Value(9), acc)
			if err != nil {
				t.Fatalf("%s: rebuilt Finalize: %v", prefix, err)
			}
			c.check(t, out, far.LookupName("Rec"))
		}
	}
}
