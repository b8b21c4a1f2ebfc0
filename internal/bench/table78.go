package bench

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/matrix"
)

// Table 7: source-lines-of-code for each tool implementation (the paper's
// programmability argument: PC is no harder a development target than
// Spark). Here we count this repository's PC-side and baseline-side
// implementations of each workload.

// SLOCTargets maps workload names to the files implementing them on each
// engine (relative to the repo root).
var SLOCTargets = []struct {
	Name             string
	PCFiles, BLFiles []string
}{
	{"lilLinAlg", []string{"linalg/block.go", "linalg/ops.go", "linalg/algos.go", "linalg/dsl.go", "linalg/eval.go"},
		[]string{"internal/bench/table2.go"}},
	{"TPC-H queries", []string{"internal/tpch/queries_pc.go"}, []string{"internal/tpch/queries_baseline.go"}},
	{"LDA", []string{"internal/ml/lda.go"}, nil}, // single file holds both; split by marker below
	{"GMM", []string{"internal/ml/gmm.go"}, nil},
	{"k-means", []string{"internal/ml/kmeans.go"}, nil},
}

// CountSLOC counts non-blank, non-comment-only lines in a file.
func CountSLOC(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		s := strings.TrimSpace(line)
		if s == "" || strings.HasPrefix(s, "//") {
			continue
		}
		n++
	}
	return n, nil
}

// RunTable7 counts SLOC per workload (repoRoot locates the sources).
func RunTable7(repoRoot string) (*Table, error) {
	t := &Table{
		Title:   "Table 7: source lines of code per workload",
		Columns: []string{"SLOC"},
		Notes: []string{
			"paper: PC and Spark implementations are within ~2-3x of each other in SLOC",
			"ML files count both engine variants (they share one file per algorithm)",
		},
	}
	for _, target := range SLOCTargets {
		total := 0
		for _, f := range append(append([]string{}, target.PCFiles...), target.BLFiles...) {
			n, err := CountSLOC(filepath.Join(repoRoot, f))
			if err != nil {
				return nil, err
			}
			total += n
		}
		t.Rows = append(t.Rows, Row{Name: target.Name, Cells: []string{fmt.Sprintf("%d", total)}})
	}
	return t, nil
}

// Table 8: single-thread matrix multiplication kernels — the naive triple
// loop (GSL analogue) vs the blocked/transposed kernel (Eigen/breeze
// analogue). The paper's point: library kernel quality can hand the JVM
// side an advantage; PC's win is architectural, not "C++ is fast".

// Table8Config sizes the kernels.
type Table8Config struct {
	Sizes []int // paper: 1000, 10000
}

// DefaultTable8 is the laptop-scale default.
func DefaultTable8() Table8Config { return Table8Config{Sizes: []int{128, 256}} }

// RunTable8 times both kernels.
func RunTable8(cfg Table8Config) (*Table, error) {
	t := &Table{
		Title:   "Table 8: single-thread matmul kernels (naive vs blocked)",
		Columns: []string{"naive (GSL-like)", "blocked (Eigen-like)", "speedup"},
		Notes:   []string{"paper: Eigen/breeze ~7-8x faster than GSL at 1000x1000"},
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range cfg.Sizes {
		a := matrix.New(n, n)
		b := matrix.New(n, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		naive, err := Timed(func() error { _, err := matrix.MulNaive(a, b); return err })
		if err != nil {
			return nil, err
		}
		blocked, err := Timed(func() error { _, err := matrix.Mul(a, b); return err })
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{
			Name:  fmt.Sprintf("%dx%d", n, n),
			Cells: []string{ms(naive), ms(blocked), ratio(naive, blocked)},
		})
	}
	return t, nil
}
