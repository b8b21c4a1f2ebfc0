package optimizer

// Tests for rule 4 (kernel fusion): annotation correctness, and end-to-end
// semantic preservation through the core executor against the same program
// with the annotation stripped.

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// fusedRuns collects the FuseGroup runs of a program: group id → length.
func fusedRuns(prog *tcap.Program) map[int]int {
	runs := map[int]int{}
	for _, s := range prog.Stmts {
		if s.FuseGroup != 0 {
			runs[s.FuseGroup]++
		}
	}
	return runs
}

func TestFusionAnnotatesAdjacentRuns(t *testing.T) {
	res, err := core.Compile(section7Selection())
	if err != nil {
		t.Fatal(err)
	}
	opt, st, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if st.KernelsFused == 0 {
		t.Fatalf("selection pipeline fused no kernels\n%s", opt.Print())
	}
	runs := fusedRuns(opt)
	if len(runs) == 0 {
		t.Fatalf("KernelsFused = %d but no statements annotated", st.KernelsFused)
	}
	fusedStmts, sum := 0, 0
	for _, n := range runs {
		if n < 2 {
			t.Errorf("fused run of length %d; only runs of >= 2 may be annotated", n)
		}
		fusedStmts += n
		sum += n - 1
	}
	if sum != st.KernelsFused {
		t.Errorf("KernelsFused = %d, annotation implies %d (a run of L contributes L-1)", st.KernelsFused, sum)
	}
	// Annotated runs must be consecutive statements whose lists chain —
	// the same contract the engine re-validates.
	for i := 1; i < len(opt.Stmts); i++ {
		cur, prev := opt.Stmts[i], opt.Stmts[i-1]
		if cur.FuseGroup != 0 && cur.FuseGroup == prev.FuseGroup {
			if cur.Applied.Name != prev.Out.Name || cur.Copied.Name != prev.Out.Name {
				t.Errorf("fused neighbors do not chain: %s after %s", cur.Out.Name, prev.Out.Name)
			}
		}
	}
	if err := opt.Validate(); err != nil {
		t.Errorf("invalid after fusion annotation: %v", err)
	}
}

func TestFusionAnnotationIsStable(t *testing.T) {
	fx := newFixture(t, 10, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt1, st1, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	opt2, st2, err := Optimize(opt1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.KernelsFused != st2.KernelsFused {
		t.Errorf("fusion not stable: first pass %d, second pass %d", st1.KernelsFused, st2.KernelsFused)
	}
	r1, r2 := fusedRuns(opt1), fusedRuns(opt2)
	if len(r1) != len(r2) {
		t.Errorf("fused run count changed across passes: %v vs %v", r1, r2)
	}
}

// TestFusionPreservesSemantics runs the §7 selection and join programs with
// the optimizer's FuseGroup annotation and with it stripped (the engine then
// executes statement by statement) at several thread counts: results must be
// identical.
func TestFusionPreservesSemantics(t *testing.T) {
	fx := newFixture(t, 150, 7)
	for _, prog := range []struct {
		name string
		w    *core.Write
		out  string
	}{
		{"selection", section7Selection(), "out"},
		{"join", section7Join(fx.emp), "joined"},
	} {
		prog := prog
		t.Run(prog.name, func(t *testing.T) {
			res, err := core.Compile(prog.w)
			if err != nil {
				t.Fatal(err)
			}
			fused, _, err := Optimize(res.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if len(fusedRuns(fused)) == 0 {
				t.Fatal("nothing fused — the comparison would be vacuous")
			}
			unfused := fused.Clone()
			for _, s := range unfused.Stmts {
				s.FuseGroup = 0
			}
			exec := func(p *tcap.Program, threads int) string {
				plan, err := physical.Build(p)
				if err != nil {
					t.Fatalf("plan: %v\n%s", err, p.Print())
				}
				store := core.NewMemStore()
				for k, v := range fx.store.Sets {
					store.Sets[k] = v
				}
				ex := core.NewExecutor(store, fx.reg, 1<<18, 4)
				ex.Threads = threads
				resCopy := *res
				resCopy.Prog = p
				if err := ex.Run(&resCopy, plan); err != nil {
					t.Fatalf("run: %v\n%s", err, p.Print())
				}
				pages, err := store.Pages("db", prog.out)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, pg := range pages {
					if pg.Root() == 0 {
						continue
					}
					root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
					for i := 0; i < root.Len(); i++ {
						r := root.HandleAt(i)
						ti := fx.reg.Lookup(r.TypeCode())
						names = append(names, object.GetStrField(r, ti.Field("name")))
					}
				}
				// No sorting: OUTPUT materialization order is part of the
				// bit-for-bit contract across every configuration.
				return strings.Join(names, ",")
			}
			want := exec(unfused, 1)
			if want == "" {
				t.Fatal("empty baseline result — fixture too small")
			}
			for _, threads := range []int{1, 2, 8} {
				for name, p := range map[string]*tcap.Program{"fused": fused, "unfused": unfused} {
					if got := exec(p, threads); got != want {
						t.Errorf("%s threads=%d diverged:\ngot  %s\nwant %s", name, threads, got, want)
					}
				}
			}
		})
	}
}
