package engine

// The fusion-equivalence harness: randomized (seeded) chains of
// filter/map/hash statements execute fused as the engine cuts them,
// unfused, and cut at random (a cut plan handed to each thread's Pipeline)
// at Threads 1, 2, and 8 — and every configuration must produce bit-for-bit
// identical output rows in identical order. A table-driven corpus pins the
// interesting shapes (adjacent filters, compaction before kernels, runs
// ending in filters, hash columns feeding later kernels, empty results,
// empty input) and a fuzz target explores chains the corpus missed.
// TestBuildFusePlan pins the engine's rule for where a run ends.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/tcap"
)

// fuseFixture is the shared scaffolding of the equivalence runs: source
// pages of int64-payload objects plus a registry of deterministic kernels
// the chains draw from.
type fuseFixture struct {
	reg   *object.Registry
	sreg  *StageRegistry
	ti    *object.TypeInfo
	pages []*object.Page
}

// toI64 normalizes the numeric chain columns (I64 from kernels, U64 from
// HASH statements) so every kernel composes with every predecessor.
func toI64(c Column) (I64Col, error) {
	switch v := c.(type) {
	case I64Col:
		return v, nil
	case U64Col:
		out := make(I64Col, len(v))
		for i, x := range v {
			out[i] = int64(x)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("fuse_test: unexpected column type %T", c)
	}
}

// fuseX and fuseY are object i's two members: mixed-sign, non-monotonic
// payloads so filters split batches unevenly.
func fuseX(i int) int64 { return int64((i*2654435761)%1009) - 500 }
func fuseY(i int) int64 { return int64((i*40503)%997) - 300 }

func newFuseFixture(t testing.TB, n int) *fuseFixture {
	t.Helper()
	fx := &fuseFixture{reg: object.NewRegistry(), sreg: NewStageRegistry()}
	fx.ti = object.NewStruct("FuseRec").AddField("x", object.KInt64).AddField("y", object.KInt64).MustBuild(fx.reg)

	const perPage = 64
	for start := 0; start < n; start += perPage {
		p := object.NewPage(1<<16, fx.reg)
		a := object.NewAllocator(p)
		root, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Retain()
		p.SetRoot(root.Off)
		end := start + perPage
		if end > n {
			end = n
		}
		for i := start; i < end; i++ {
			r, err := a.MakeObject(fx.ti)
			if err != nil {
				t.Fatal(err)
			}
			object.SetI64(r, fx.ti.Field("x"), fuseX(i))
			object.SetI64(r, fx.ti.Field("y"), fuseY(i))
			if err := root.PushBackHandle(a, r); err != nil {
				t.Fatal(err)
			}
		}
		fx.pages = append(fx.pages, p)
	}

	// The kernels take their output columns from the Ctx, as compiled
	// kernels do, so every chain also runs the per-thread scratch.
	for stage, name := range map[string]string{"load": "x", "loadY": "y"} {
		field := fx.ti.Field(name)
		fx.sreg.Register("F", stage, func(ctx *Ctx, in []Column) (Column, error) {
			rc := in[0].(RefCol)
			out, col := ColBuf[I64Col](ctx, len(rc))
			for i, r := range rc {
				out[i] = object.GetI64(r, field)
			}
			return col, nil
		})
	}
	maps := map[string]func(int64) int64{
		"affine": func(x int64) int64 { return x*3 + 7 },
		"xor":    func(x int64) int64 { return x ^ (x >> 3) },
		"mod":    func(x int64) int64 { return x % 101 },
	}
	for name, fn := range maps {
		fn := fn
		fx.sreg.Register("F", name, func(ctx *Ctx, in []Column) (Column, error) {
			xs, err := toI64(in[0])
			if err != nil {
				return nil, err
			}
			out, col := ColBuf[I64Col](ctx, len(xs))
			for i, x := range xs {
				out[i] = fn(x)
			}
			return col, nil
		})
	}
	preds := map[string]func(int64) bool{
		"even": func(x int64) bool { return x&1 == 0 },
		"pos":  func(x int64) bool { return x > 0 },
		"mod3": func(x int64) bool { return x%3 != 0 },
		"none": func(x int64) bool { return false },
	}
	for name, fn := range preds {
		fn := fn
		fx.sreg.Register("F", name, func(ctx *Ctx, in []Column) (Column, error) {
			xs, err := toI64(in[0])
			if err != nil {
				return nil, err
			}
			out, col := ColBuf[BoolCol](ctx, len(xs))
			for i, x := range xs {
				out[i] = fn(x)
			}
			return col, nil
		})
	}
	return fx
}

// chainBuilder grows a linear statement chain: every step reads the chain's
// current value column and the list names thread s1 → s2 → ... so the
// statements satisfy the fusion adjacency contract.
type chainBuilder struct {
	stmts []*tcap.Stmt
	list  string   // current list name
	cols  []string // current list columns
	cur   string   // current value column (kernel/hash input)
	step  int
}

func newChainBuilder() *chainBuilder {
	b := &chainBuilder{list: "s0", cols: []string{"obj"}, cur: "obj"}
	b.apply("load", "v0", nil)
	b.cur = "v0"
	return b
}

func (b *chainBuilder) next() string {
	b.step++
	return fmt.Sprintf("s%d", b.step)
}

// apply appends an APPLY of the named kernel producing out, copying the
// current columns minus drop.
func (b *chainBuilder) apply(kernel, out string, drop map[string]bool) {
	// The object column is always dropped (the chains' outputs are value
	// columns); later applies copy whatever survives the random drops.
	copied := make([]string, 0, len(b.cols))
	for _, c := range b.cols {
		if c != "obj" && !drop[c] {
			copied = append(copied, c)
		}
	}
	nextList := b.next()
	b.stmts = append(b.stmts, &tcap.Stmt{
		Op:      tcap.OpApply,
		Comp:    "F",
		Stage:   kernel,
		Applied: tcap.ColumnsRef{Name: b.list, Cols: []string{b.cur}},
		Copied:  tcap.ColumnsRef{Name: b.list, Cols: copied},
		Out:     tcap.ColumnsRef{Name: nextList, Cols: append(append([]string{}, copied...), out)},
	})
	b.list = nextList
	b.cols = append(copied, out)
}

// mapStep applies a map kernel and makes its output the current column.
func (b *chainBuilder) mapStep(kernel string, drop map[string]bool) {
	out := fmt.Sprintf("v%d", b.step+1)
	b.apply(kernel, out, drop)
	b.cur = out
}

// filterStep applies a predicate kernel then filters on it, dropping the
// boolean column from the filtered output.
func (b *chainBuilder) filterStep(pred string) {
	bcol := fmt.Sprintf("b%d", b.step+1)
	b.apply(pred, bcol, nil)
	b.filterOn(bcol)
}

// filterOn appends a FILTER consuming an existing boolean column.
func (b *chainBuilder) filterOn(bcol string) {
	copied := make([]string, 0, len(b.cols))
	for _, c := range b.cols {
		if c != bcol {
			copied = append(copied, c)
		}
	}
	nextList := b.next()
	b.stmts = append(b.stmts, &tcap.Stmt{
		Op:      tcap.OpFilter,
		Applied: tcap.ColumnsRef{Name: b.list, Cols: []string{bcol}},
		Copied:  tcap.ColumnsRef{Name: b.list, Cols: copied},
		Out:     tcap.ColumnsRef{Name: nextList, Cols: copied},
	})
	b.list = nextList
	b.cols = copied
}

// hashStep appends a HASH of the current column and makes the hash column
// current.
func (b *chainBuilder) hashStep() {
	hcol := fmt.Sprintf("h%d", b.step+1)
	nextList := b.next()
	b.stmts = append(b.stmts, &tcap.Stmt{
		Op:      tcap.OpHash,
		Applied: tcap.ColumnsRef{Name: b.list, Cols: []string{b.cur}},
		Copied:  tcap.ColumnsRef{Name: b.list, Cols: append([]string{}, b.cols...)},
		Out:     tcap.ColumnsRef{Name: nextList, Cols: append(append([]string{}, b.cols...), hcol)},
	})
	b.list = nextList
	b.cols = append(b.cols, hcol)
	b.cur = hcol
}

// unfusedRuns cuts n statements into runs of one: the statement-by-statement
// reference every fused plan must match.
func unfusedRuns(n int) []int {
	runs := make([]int, n)
	for i := range runs {
		runs[i] = 1
	}
	return runs
}

// randomRuns cuts n statements into random runs (some of length 1).
func randomRuns(n int, rng *rand.Rand) []int {
	var runs []int
	for k := 0; k < n; k++ {
		if rng.Intn(3) == 0 || len(runs) == 0 {
			runs = append(runs, 0)
		}
		runs[len(runs)-1]++
	}
	return runs
}

// collectSink formats every consumed row — all columns, with their static
// types — into strings, in consume order. Comparing the concatenated rows
// across configurations is the bit-for-bit equivalence check.
type collectSink struct {
	rows []string
}

// Consume implements Sink.
func (s *collectSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	for i := 0; i < vl.Rows(); i++ {
		var b strings.Builder
		for j, name := range vl.Names {
			fmt.Fprintf(&b, "%s=%T:%v;", name, vl.Cols[j], vl.Cols[j].Value(i))
		}
		s.rows = append(s.rows, b.String())
	}
	return nil
}

// Pages implements Sink.
func (s *collectSink) Pages() []*object.Page { return nil }

// runChain executes a statement chain over the fixture's pages and returns
// the ordered output rows. runs, when set, is the cut plan handed to every
// thread's pipeline (cutPlan); nil leaves the cut to the engine
// (buildFusePlan), which fuses a whole chain.
func runChain(t testing.TB, fx *fuseFixture, stmts []*tcap.Stmt, runs []int, threads int) []string {
	return runChainBatch(t, fx, stmts, runs, threads, BatchSize)
}

// runChainBatch is runChain with batches of at most batch rows.
func runChainBatch(t testing.TB, fx *fuseFixture, stmts []*tcap.Stmt, runs []int, threads, batch int) []string {
	t.Helper()
	chunks := SplitRanges(BatchRanges(fx.pages, batch), threads)
	if len(chunks) == 0 {
		chunks = [][]PageRange{nil}
	}
	sinks := make([]collectSink, len(chunks))
	err := ParallelThreads(len(chunks), func(th int, _ <-chan struct{}) error {
		ctx, err := NewSinkCtx(&sinks[th], fx.reg, nil, 1<<16, nil, &Stats{})
		if err != nil {
			return err
		}
		pipe := &Pipeline{Stmts: stmts, Reg: fx.sreg, Sink: &sinks[th], SinkStmt: &tcap.Stmt{Op: tcap.OpOutput}}
		if runs != nil {
			pipe.fusePlan = cutPlan(stmts, runs)
		}
		return ScanRanges(chunks[th], "obj", func(vl *VectorList) error { return pipe.RunBatch(ctx, vl) })
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, s := range sinks {
		rows = append(rows, s.rows...)
	}
	return rows
}

// checkEquivalence runs the chain unfused sequentially as the reference,
// then unfused, as the engine cuts it, and as each extra cut across thread
// counts, and requires identical rows everywhere.
func checkEquivalence(t testing.TB, fx *fuseFixture, chain []*tcap.Stmt, cuts ...[]int) {
	t.Helper()
	ref := runChain(t, fx, chain, unfusedRuns(len(chain)), 1)
	for _, threads := range []int{1, 2, 8} {
		variants := append([][]int{unfusedRuns(len(chain)), nil}, cuts...)
		for vi, runs := range variants {
			got := runChain(t, fx, chain, runs, threads)
			if len(got) != len(ref) {
				t.Fatalf("variant %d threads=%d: %d rows, want %d", vi, threads, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("variant %d threads=%d: row %d = %q, want %q", vi, threads, i, got[i], ref[i])
				}
			}
		}
	}
}

// fuseCorpus is the corpus of interesting chain shapes.
var fuseCorpus = []struct {
	name  string
	build func(b *chainBuilder)
	n     int
}{
	{"apply-run", func(b *chainBuilder) {
		b.mapStep("affine", nil)
		b.mapStep("xor", nil)
		b.mapStep("mod", nil)
	}, 700},
	{"filter-then-map", func(b *chainBuilder) {
		b.filterStep("even")
		b.mapStep("affine", nil)
	}, 700},
	{"adjacent-filters", func(b *chainBuilder) {
		// Compute both predicates first so the two FILTER statements
		// are adjacent and exercise in-place selection refinement.
		b.apply("even", "bA", nil)
		b.apply("pos", "bB", nil)
		b.filterOn("bA")
		b.filterOn("bB")
		b.mapStep("mod", nil)
	}, 700},
	{"ends-in-filter", func(b *chainBuilder) {
		b.mapStep("xor", nil)
		b.filterStep("mod3")
	}, 700},
	{"hash-feeds-map", func(b *chainBuilder) {
		b.hashStep()
		b.mapStep("mod", nil)
		b.filterStep("even")
		b.hashStep()
	}, 500},
	{"filter-everything", func(b *chainBuilder) {
		b.mapStep("affine", nil)
		b.filterStep("none")
		b.mapStep("xor", nil)
	}, 300},
	{"empty-input", func(b *chainBuilder) {
		b.filterStep("even")
		b.mapStep("affine", nil)
	}, 0},
	{"drops-old-columns", func(b *chainBuilder) {
		b.mapStep("affine", nil)
		b.mapStep("xor", map[string]bool{"v0": true})
		b.filterStep("pos")
	}, 700},
}

// TestFusedCorpusEquivalence pins the corpus of interesting chain shapes.
func TestFusedCorpusEquivalence(t *testing.T) {
	for _, tc := range fuseCorpus {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			fx := newFuseFixture(t, tc.n)
			b := newChainBuilder()
			tc.build(b)
			rng := rand.New(rand.NewSource(7))
			checkEquivalence(t, fx, b.stmts, randomRuns(len(b.stmts), rng))
		})
	}
}

// TestFusedBatchSizeInvariance: the kernels' output columns and the passes'
// headers are per-thread scratch reused from batch to batch, so a chain's
// rows must not depend on how the source is cut into batches — batches of
// 1, 7 (lengths change within a page) and 256 rows give the same rows,
// fused and unfused. Two member reads of the same kind, one after the
// other, must each keep their own column: a shared one would hand the
// second's values to the first.
func TestFusedBatchSizeInvariance(t *testing.T) {
	batches := []int{1, 7, 256}
	same := func(t *testing.T, what string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: row %d = %q, want %q", what, i, got[i], want[i])
			}
		}
	}
	for _, tc := range fuseCorpus {
		fx := newFuseFixture(t, tc.n)
		b := newChainBuilder()
		tc.build(b)
		unfused := unfusedRuns(len(b.stmts))
		ref := runChain(t, fx, b.stmts, unfused, 1)
		for _, batch := range batches {
			for _, threads := range []int{1, 2} {
				same(t, fmt.Sprintf("%s unfused, batch %d, threads %d", tc.name, batch, threads),
					runChainBatch(t, fx, b.stmts, unfused, threads, batch), ref)
				same(t, fmt.Sprintf("%s fused, batch %d, threads %d", tc.name, batch, threads),
					runChainBatch(t, fx, b.stmts, nil, threads, batch), ref)
			}
		}
	}

	const n = 300
	fx := newFuseFixture(t, n)
	members := []*tcap.Stmt{
		{Op: tcap.OpApply, Comp: "F", Stage: "load",
			Applied: tcap.ColumnsRef{Name: "s0", Cols: []string{"obj"}},
			Copied:  tcap.ColumnsRef{Name: "s0", Cols: []string{"obj"}},
			Out:     tcap.ColumnsRef{Name: "s1", Cols: []string{"obj", "x"}}},
		{Op: tcap.OpApply, Comp: "F", Stage: "loadY",
			Applied: tcap.ColumnsRef{Name: "s1", Cols: []string{"obj"}},
			Copied:  tcap.ColumnsRef{Name: "s1", Cols: []string{"x"}},
			Out:     tcap.ColumnsRef{Name: "s2", Cols: []string{"x", "y"}}},
	}
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("x=engine.I64Col:%d;y=engine.I64Col:%d;", fuseX(i), fuseY(i))
	}
	for _, batch := range batches {
		same(t, fmt.Sprintf("two members unfused, batch %d", batch),
			runChainBatch(t, fx, members, unfusedRuns(len(members)), 1, batch), want)
		same(t, fmt.Sprintf("two members fused, batch %d", batch),
			runChainBatch(t, fx, members, nil, 1, batch), want)
	}
}

// TestBuildFusePlan pins the engine's fusion rule on statement lists as a
// stage executes them: a chained APPLY/FILTER/HASH run fuses, and a
// FLATTEN, a JOIN probe or a statement reading another list ends the run.
func TestBuildFusePlan(t *testing.T) {
	// stmt makes a statement of op reading list in (Applied and Copied)
	// and writing list out.
	stmt := func(op tcap.OpKind, in, out string) *tcap.Stmt {
		return &tcap.Stmt{Op: op, Applied: tcap.ColumnsRef{Name: in}, Copied: tcap.ColumnsRef{Name: in},
			Out: tcap.ColumnsRef{Name: out}}
	}
	for _, tc := range []struct {
		name  string
		stmts []*tcap.Stmt
		runs  []int
	}{
		{"chained run fuses", []*tcap.Stmt{
			stmt(tcap.OpApply, "s0", "s1"), stmt(tcap.OpApply, "s1", "s2"), stmt(tcap.OpFilter, "s2", "s3"),
			stmt(tcap.OpApply, "s3", "s4"), stmt(tcap.OpHash, "s4", "s5")}, []int{5}},
		{"flatten ends the run", []*tcap.Stmt{
			stmt(tcap.OpApply, "s0", "s1"), stmt(tcap.OpFilter, "s1", "s2"), stmt(tcap.OpFlatten, "s2", "s3"),
			stmt(tcap.OpApply, "s3", "s4"), stmt(tcap.OpApply, "s4", "s5")}, []int{2, 1, 2}},
		{"join probe ends the run", []*tcap.Stmt{
			stmt(tcap.OpApply, "s0", "s1"), stmt(tcap.OpHash, "s1", "s2"), stmt(tcap.OpJoin, "s2", "s3"),
			stmt(tcap.OpApply, "s3", "s4"), stmt(tcap.OpFilter, "s4", "s5")}, []int{2, 1, 2}},
		{"another list ends the run", []*tcap.Stmt{
			stmt(tcap.OpApply, "s0", "s1"), stmt(tcap.OpApply, "s1", "s2"), stmt(tcap.OpApply, "x", "s3"),
			stmt(tcap.OpFilter, "s3", "s4")}, []int{2, 2}},
		{"another copied list ends the run", []*tcap.Stmt{
			stmt(tcap.OpApply, "s0", "s1"),
			{Op: tcap.OpApply, Applied: tcap.ColumnsRef{Name: "s1"}, Copied: tcap.ColumnsRef{Name: "x"},
				Out: tcap.ColumnsRef{Name: "s2"}}}, []int{1, 1}},
		{"lone statement stays alone", []*tcap.Stmt{stmt(tcap.OpApply, "s0", "s1")}, []int{1}},
		{"no statements", nil, nil},
	} {
		var runs []int
		for _, seg := range buildFusePlan(tc.stmts) {
			runs = append(runs, len(seg.stmts))
		}
		if !slices.Equal(runs, tc.runs) {
			t.Errorf("%s: runs %v, want %v", tc.name, runs, tc.runs)
		}
	}
}

// buildRandomChain derives a chain from the seed: 2–7 random steps drawn
// from maps, filters, and hashes, with random column drops.
func buildRandomChain(rng *rand.Rand) []*tcap.Stmt {
	b := newChainBuilder()
	mapNames := []string{"affine", "xor", "mod"}
	predNames := []string{"even", "pos", "mod3", "none"}
	steps := 2 + rng.Intn(6)
	for i := 0; i < steps; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			drop := map[string]bool{}
			for _, c := range b.cols {
				if c != b.cur && rng.Intn(4) == 0 {
					drop[c] = true
				}
			}
			b.mapStep(mapNames[rng.Intn(len(mapNames))], drop)
		case 2:
			// "none" is rare so most random chains keep rows flowing.
			name := predNames[rng.Intn(3)]
			if rng.Intn(10) == 0 {
				name = "none"
			}
			b.filterStep(name)
		case 3:
			b.hashStep()
		}
	}
	return b.stmts
}

// TestFusionEquivalenceRandomized sweeps seeded random chains through the
// full configuration grid.
func TestFusionEquivalenceRandomized(t *testing.T) {
	fx := newFuseFixture(t, 600)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chain := buildRandomChain(rng)
		checkEquivalence(t, fx, chain, randomRuns(len(chain), rng))
	}
}

// FuzzFusionEquivalence drives the randomized harness from fuzzed seeds:
// any seed where the fused rows diverge from the unfused reference is a
// fusion bug.
func FuzzFusionEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	fx := newFuseFixture(f, 300)
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		chain := buildRandomChain(rng)
		ref := runChain(t, fx, chain, unfusedRuns(len(chain)), 1)
		for _, threads := range []int{1, 2, 8} {
			got := runChain(t, fx, chain, nil, threads)
			if len(got) != len(ref) {
				t.Fatalf("threads=%d: %d rows, want %d", threads, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("threads=%d: row %d = %q, want %q", threads, i, got[i], ref[i])
				}
			}
		}
	})
}
