package optimizer

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

func sortWrite(limit int) *core.Write {
	ob := &core.OrderBy{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Keys: []core.SortKey{{
			Term: func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, "getSalary") },
			Kind: object.KFloat64,
			Desc: true,
		}},
		Limit: limit,
	}
	return core.NewWrite("db", "out", ob)
}

// TestSortCopiedSurvivesDeadColumnElimination is the regression pin for the
// dead-column rule: SORT and WINDOW consume their Copied object column
// directly (it never appears in Out), so liveness propagation alone would
// drop it and leave the sink with no object to carry.
func TestSortCopiedSurvivesDeadColumnElimination(t *testing.T) {
	res, err := core.Compile(sortWrite(0))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range opt.Stmts {
		if s.Op == tcap.OpSort || s.Op == tcap.OpWindow {
			if len(s.Copied.Cols) == 0 {
				t.Fatalf("dead-column elimination stripped the sink's Copied object column\n%s", opt.Print())
			}
		}
	}
}

// TestFusionStopsAtSortBoundary pins that the engine never fuses a
// SORT/DISTINCT/WINDOW statement of an optimized program into a run: each
// ends its stage as the sink, outside the statement list the engine fuses,
// since each sink consumes whole lists in its own loop and a fused
// run spanning one would be a pass shape the engine cannot execute.
func TestFusionStopsAtSortBoundary(t *testing.T) {
	for name, w := range map[string]*core.Write{
		"sort": sortWrite(0),
		"topk": sortWrite(5),
		"distinct": core.NewWrite("db", "out", &core.Distinct{
			In:      core.NewScan("db", "emps", "Emp"),
			ArgType: "Emp",
			Key:     func(e *lambda.Arg) lambda.Term { return lambda.FromMethod(e, "getSupervisor") },
			KeyKind: object.KString,
			Make: func(a *object.Allocator, key object.Value) (object.Ref, error) {
				return object.NilRef, nil
			},
		}),
	} {
		res, err := core.Compile(w)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		opt, _, err := Optimize(res.Prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, err := physical.Build(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sinks := 0
		for i, st := range plan.Stages {
			if s := st.SinkStmt; s != nil && (s.Op == tcap.OpSort || s.Op == tcap.OpDistinct || s.Op == tcap.OpWindow) {
				sinks++
			}
			for _, s := range st.Stmts {
				switch s.Op {
				case tcap.OpSort, tcap.OpDistinct, tcap.OpWindow:
					t.Errorf("%s: stage %d has its %s statement among the statements it fuses\n%s", name, i, s.Op, opt.Print())
				}
			}
		}
		if sinks == 0 {
			t.Errorf("%s: no stage ends in a SORT/DISTINCT/WINDOW sink\n%s", name, opt.Print())
		}
	}
}

// TestSortProgramRoundTripsOptimized pins that an optimized sort program —
// including the desc/limit Info keys execution depends on — survives
// Print→Parse unchanged.
func TestSortProgramRoundTripsOptimized(t *testing.T) {
	res, err := core.Compile(sortWrite(7))
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := tcap.Parse(opt.Print())
	if err != nil {
		t.Fatalf("optimized sort program does not re-parse: %v\n%s", err, opt.Print())
	}
	if reparsed.Print() != opt.Print() {
		t.Fatalf("round-trip changed the program:\n%s\nvs\n%s", opt.Print(), reparsed.Print())
	}
	found := false
	for _, s := range reparsed.Stmts {
		if s.Op == tcap.OpSort {
			found = true
			if s.Info["limit"] != "7" || s.Info["desc"] == "" {
				t.Errorf("SORT Info lost in round-trip: %v", s.Info)
			}
		}
	}
	if !found {
		t.Fatal("reparsed program has no SORT statement")
	}
}

// TestOptimizedSortExecutes runs the optimized program end-to-end on the
// single-process executor: the optimizer may only rearrange, never change,
// the sorted result.
func TestOptimizedSortExecutes(t *testing.T) {
	fx := newFixture(t, 20, 7)
	res, err := core.Compile(sortWrite(0))
	if err != nil {
		t.Fatal(err)
	}
	raw := fx.run(t, res, res.Prog, "out")
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	optd := fx.run(t, res, opt, "out")
	if len(raw) != 20 || len(optd) != 20 {
		t.Fatalf("sorted rows raw=%d opt=%d, want 20", len(raw), len(optd))
	}
	for i := range raw {
		if raw[i] != optd[i] {
			t.Fatalf("row %d: optimized %q != raw %q", i, optd[i], raw[i])
		}
	}
}
