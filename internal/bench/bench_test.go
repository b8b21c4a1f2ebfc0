package bench

import (
	"strings"
	"testing"
)

// Smoke tests: every experiment runner produces a well-formed table at a
// tiny scale (the real runs live in cmd/pcbench).

func checkTable(t *testing.T, tab *Table, err error, wantRows int) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d\n%s", len(tab.Rows), wantRows, tab.Format())
	}
	out := tab.Format()
	if !strings.Contains(out, tab.Title) {
		t.Error("Format must include the title")
	}
	for _, r := range tab.Rows {
		if len(r.Cells) != len(tab.Columns) {
			t.Errorf("row %q has %d cells for %d columns", r.Name, len(r.Cells), len(tab.Columns))
		}
	}
}

func TestRunTable2Smoke(t *testing.T) {
	tab, err := RunTable2(Table2Config{N: 200, Dims: []int{4}, Seed: 1})
	checkTable(t, tab, err, 3)
}

func TestRunTable3Smoke(t *testing.T) {
	tab, err := RunTable3(Table3Config{CustomerCounts: []int{50}, K: 3})
	checkTable(t, tab, err, 2)
}

func TestRunTable4Smoke(t *testing.T) {
	tab, err := RunTable4(Table4Config{Docs: 30, Vocab: 40, Topics: 3, WordsPerDoc: 15, Iters: 1})
	checkTable(t, tab, err, 5) // PC + 4 baseline variants
}

func TestRunTable5Smoke(t *testing.T) {
	tab, err := RunTable5(Table5Config{Shapes: [][2]int{{120, 4}}, K: 3, Iters: 1})
	checkTable(t, tab, err, 1)
}

func TestRunTable6Smoke(t *testing.T) {
	tab, err := RunTable6(Table6Config{Shapes: [][2]int{{200, 4}}, K: 3, Iters: 1})
	checkTable(t, tab, err, 1)
}

func TestRunTable7Smoke(t *testing.T) {
	tab, err := RunTable7("../..")
	checkTable(t, tab, err, len(SLOCTargets))
	// Every workload should have nonzero SLOC.
	for _, r := range tab.Rows {
		if r.Cells[0] == "0" {
			t.Errorf("workload %s counted zero lines", r.Name)
		}
	}
}

func TestRunTable8Smoke(t *testing.T) {
	tab, err := RunTable8(Table8Config{Sizes: []int{32}})
	checkTable(t, tab, err, 1)
}

func TestCountSLOC(t *testing.T) {
	n, err := CountSLOC("harness.go")
	if err != nil {
		t.Fatal(err)
	}
	if n < 20 {
		t.Errorf("harness.go SLOC = %d, implausibly low", n)
	}
	if _, err := CountSLOC("no-such-file.go"); err == nil {
		t.Error("missing file should error")
	}
}
