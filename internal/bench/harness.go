// Package bench is the experiment harness behind every table in the paper's
// evaluation (§8). Each RunTableN function runs the corresponding workload
// on PC and on the baseline engine at laptop scale and returns the measured
// rows; cmd/pcbench prints them next to the paper's reported numbers. The
// repo's benchmark — fixed workloads, repetitions, regression bounds — is
// benchmark/ (pcsuite), not this package.
//
// Absolute times are not comparable to the paper's 11-node EC2 cluster —
// the claim under reproduction is the *shape*: who wins, by roughly what
// factor, and how tuning steps close the gap.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Timed runs fn once and returns the wall time.
func Timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// Row is one printable result row.
type Row struct {
	Name  string
	Cells []string
}

// Table is a printable result table.
type Table struct {
	Title   string
	Columns []string
	Rows    []Row
	Notes   []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("workload")
	for _, r := range t.Rows {
		if len(r.Name) > widths[0] {
			widths[0] = len(r.Name)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "workload")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s", widths[i+1]+2, c)
	}
	b.WriteString("\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Name)
		for i := range t.Columns {
			cell := ""
			if i < len(r.Cells) {
				cell = r.Cells[i]
			}
			fmt.Fprintf(&b, "%*s", widths[i+1]+2, cell)
		}
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}

// ratio formats a speedup factor.
func ratio(baseline, pc time.Duration) string {
	if pc <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(baseline)/float64(pc))
}
