package optimizer

// Kernel fusion is the engine's decision (internal/engine/fuse.go): these
// tests check the runs the engine fuses in the stages of optimized programs
// (engine.FusedRuns), and that a program re-parsed from its printed TCAP
// text, as a pcworker receives it, fuses the same runs and runs exactly as
// the optimized original. The fused versus unfused comparison itself is the
// engine's fusion harness (internal/engine/fuse_test.go:
// TestFusedCorpusEquivalence, TestFusionEquivalenceRandomized,
// FuzzFusionEquivalence).

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// stageRuns returns, for every stage of prog's physical plan in order, the
// stage's statements and the engine's fused runs over them.
func stageRuns(t *testing.T, prog *tcap.Program) (stmts [][]*tcap.Stmt, runs [][]int) {
	t.Helper()
	plan, err := physical.Build(prog)
	if err != nil {
		t.Fatalf("plan: %v\n%s", err, prog.Print())
	}
	for _, st := range plan.Stages {
		stmts = append(stmts, st.Stmts)
		runs = append(runs, engine.FusedRuns(st.Stmts))
	}
	return stmts, runs
}

// longestRun is the length of the longest fused run over all stages.
func longestRun(runs [][]int) int {
	longest := 0
	for _, r := range runs {
		for _, n := range r {
			longest = max(longest, n)
		}
	}
	return longest
}

// TestFusionAnnotatesAdjacentRuns pins that the optimized §7 selection
// leaves its stages' statement lists chained, so the engine fuses a run of
// adjacent statements, and that every fused run chains: each statement
// reads exactly its predecessor's output.
func TestFusionAnnotatesAdjacentRuns(t *testing.T) {
	res, err := core.Compile(section7Selection())
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Validate(); err != nil {
		t.Fatalf("invalid after optimization: %v", err)
	}
	stmts, runs := stageRuns(t, opt)
	if longestRun(runs) < 2 {
		t.Fatalf("selection stages fuse no run: %v\n%s", runs, opt.Print())
	}
	for i, r := range runs {
		base := 0
		for _, n := range r {
			for k := base + 1; k < base+n; k++ {
				cur, prev := stmts[i][k], stmts[i][k-1]
				if cur.Applied.Name != prev.Out.Name || cur.Copied.Name != prev.Out.Name {
					t.Errorf("stage %d: fused neighbors do not chain: %s after %s", i, cur.Out.Name, prev.Out.Name)
				}
			}
			base += n
		}
	}
}

// TestFusionAnnotationIsStable pins that the §7 join's stages fuse the same
// runs after a second optimizer pass and after the Print→Parse round trip a
// pcworker's program takes.
func TestFusionAnnotationIsStable(t *testing.T) {
	fx := newFixture(t, 10, 7)
	res, err := core.Compile(section7Join(fx.emp))
	if err != nil {
		t.Fatal(err)
	}
	opt1, _, err := Optimize(res.Prog)
	if err != nil {
		t.Fatal(err)
	}
	opt2, _, err := Optimize(opt1)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := tcap.Parse(opt1.Print())
	if err != nil {
		t.Fatal(err)
	}
	_, r1 := stageRuns(t, opt1)
	if longestRun(r1) < 2 {
		t.Fatalf("join stages fuse no run: %v\n%s", r1, opt1.Print())
	}
	for name, p := range map[string]*tcap.Program{"second pass": opt2, "reparsed": reparsed} {
		if _, r := stageRuns(t, p); !slices.EqualFunc(r, r1, slices.Equal[[]int]) {
			t.Errorf("%s fuses runs %v, first pass %v", name, r, r1)
		}
	}
}

// TestFusionPreservesSemantics runs the optimized §7 selection and join
// programs, and the same programs re-parsed from their printed text, at
// several thread counts: every run must give the rows, in order, of the
// optimized program at one thread.
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
			opt, _, err := Optimize(res.Prog)
			if err != nil {
				t.Fatal(err)
			}
			reparsed, err := tcap.Parse(opt.Print())
			if err != nil {
				t.Fatal(err)
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
			want := exec(opt, 1)
			if want == "" {
				t.Fatal("empty baseline result — fixture too small")
			}
			for _, threads := range []int{1, 2, 8} {
				for name, p := range map[string]*tcap.Program{"optimized": opt, "reparsed": reparsed} {
					if got := exec(p, threads); got != want {
						t.Errorf("%s threads=%d diverged:\ngot  %s\nwant %s", name, threads, got, want)
					}
				}
			}
		})
	}
}
