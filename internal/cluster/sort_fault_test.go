package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lambda"
	"repro/internal/object"
)

// intSortKeys orders (grp asc, val asc) over intRecType rows — a total
// order, so recovered output is exact-sequence comparable.
func intSortKeys() []core.SortKey {
	return []core.SortKey{
		{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "grp") }, Kind: object.KInt64},
		{Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "val") }, Kind: object.KInt64},
	}
}

// runIntSortVariant executes one sort-family job ("orderby", "topk", or
// "window") over db.rows and returns the output rows "g|v" in storage scan
// order (worker, page, root order — the sorted sequence).
func runIntSortVariant(t *testing.T, c *Cluster, rec *object.TypeInfo, variant, out string) []string {
	t.Helper()
	rows, err := intSortRows(c, rec, variant, out)
	if err != nil {
		t.Fatalf("%s: %v", variant, err)
	}
	return rows
}

// intSortComp builds the sort-family computation variant names, over db.rows.
func intSortComp(rec *object.TypeInfo, variant string) (core.Computation, error) {
	switch variant {
	case "orderby":
		return &core.OrderBy{In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, Keys: intSortKeys()}, nil
	case "topk":
		return &core.OrderBy{In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name,
			Keys: intSortKeys(), Limit: 25}, nil
	case "window":
		return &core.Window{
			In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, Keys: intSortKeys(),
			Val:     func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "val") },
			ValKind: object.KInt64,
			Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
				if !exists {
					return next, nil
				}
				return object.Int64Value(cur.AsInt64() + next.AsInt64()), nil
			},
			Emit: func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error) {
				r, err := a.MakeObject(rec)
				if err != nil {
					return object.NilRef, err
				}
				object.SetI64(r, rec.Field("grp"), object.GetI64(obj, rec.Field("grp")))
				object.SetI64(r, rec.Field("val"), running.AsInt64())
				return r, nil
			},
		}, nil
	}
	return nil, fmt.Errorf("unknown sort variant %q", variant)
}

// intSortRows is runIntSortVariant returning the job's error instead of
// failing the test.
func intSortRows(c *Cluster, rec *object.TypeInfo, variant, out string) ([]string, error) {
	comp, err := intSortComp(rec, variant)
	if err != nil {
		return nil, err
	}
	if err := c.CreateSet("db", out, rec.Name); err != nil {
		return nil, err
	}
	if _, err := c.Execute(core.NewWrite("db", out, comp)); err != nil {
		return nil, err
	}
	var rows []string
	err = c.ScanSet("db", out, func(r object.Ref) bool {
		rows = append(rows, fmt.Sprintf("%d|%d",
			object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
		return true
	})
	return rows, err
}

// TestSortCrashRecovery crashes backends at every sort-relevant fault site
// and asserts every sort-family job recovers with output bit-for-bit
// identical to the crash-free run, leaking no spill slots.
func TestSortCrashRecovery(t *testing.T) {
	const n, groups = 700, 13
	build := func(plan *fault.Plan) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		loadIntRows(t, c, rec, "db", "rows", n, groups)
		return c, rec
	}
	for _, variant := range []string{"orderby", "topk", "window"} {
		refC, refRec := build(nil)
		want := runIntSortVariant(t, refC, refRec, variant, "out")
		if len(want) == 0 {
			t.Fatalf("%s: crash-free run emitted nothing", variant)
		}
		for _, site := range []fault.Site{fault.PageSeal, fault.Delivery, fault.Finalize} {
			ks := []int{0, 2}
			if site == fault.Finalize || variant == "topk" {
				// The single sort consumer finalizes once, and top-k
				// truncates every per-thread run to the limit: each worker
				// seals only a page or two, so only the first ordinal of
				// each site is reachable.
				ks = []int{0}
			}
			for _, k := range ks {
				plan := fault.NewPlan(fault.Injection{Site: site, Worker: 0, K: k})
				c, rec := build(plan)
				got := runIntSortVariant(t, c, rec, variant, "out")
				label := fmt.Sprintf("%s %s k=%d", variant, site, k)
				if plan.Fired() != 1 {
					t.Fatalf("%s: the crash never fired", label)
				}
				if !equalRows(got, want) {
					t.Errorf("%s: recovered sort differs from crash-free run (%d vs %d rows)",
						label, len(got), len(want))
				}
				assertNoJoinLeaks(t, c, label)
			}
		}
	}
}

// TestSortCheckpointsOffTakesNoCut pins ORDER BY with the deprecated
// CheckpointInterval set negative — an ignored setting: the merge consumer
// takes no cut — the cluster counts no checkpoint — the sorted output
// equals the default run's, and a consumer crash at Delivery or Finalize
// replays the retained runs from page 0 to the same output, leaking
// nothing.
func TestSortCheckpointsOffTakesNoCut(t *testing.T) {
	run := func(interval int, plan *fault.Plan) ([]string, *Cluster) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			CheckpointInterval: interval, Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 700, 13)
		if err := c.CreateSet("db", "out", rec.Name); err != nil {
			t.Fatal(err)
		}
		_, err = c.Execute(core.NewWrite("db", "out", &core.OrderBy{
			In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, Keys: intSortKeys()}))
		if err != nil {
			t.Fatalf("interval %d: %v", interval, err)
		}
		var rows []string
		if err := c.ScanSet("db", "out", func(r object.Ref) bool {
			rows = append(rows, fmt.Sprintf("%d|%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows, c
	}
	want, _ := run(0, nil)
	for _, in := range []fault.Injection{
		{Site: fault.Delivery, Worker: 0, K: 2},
		{Site: fault.Finalize, Worker: 0, K: 0},
	} {
		plan := fault.NewPlan(in)
		got, c := run(-1, plan)
		if plan.Fired() != 1 {
			t.Errorf("%s fired %d times, want 1", in.Site, plan.Fired())
		}
		if n := c.Transport.Stats().Checkpoints; n != 0 {
			t.Errorf("%s: the cluster counted %d checkpoints", in.Site, n)
		}
		if !equalRows(got, want) {
			t.Errorf("%s: sorted output differs from the default run (%d vs %d rows)", in.Site, len(got), len(want))
		}
		assertNoJoinLeaks(t, c, "no cuts, "+in.Site.String())
	}
}
