package suite

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// Doc is the JSON document pcsuite -all writes: a header identifying the
// machine and commit, and one or more complete sets of runs. Every
// measurement in it is a number with its unit beside it.
type Doc struct {
	Header Header `json:"header"`
	Sets   []Set  `json:"sets"`
}

// Header says where and on what the numbers were taken.
type Header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Workers    int    `json:"workers"`
	Threads    int    `json:"threads"`
	PageSize   int    `json:"page_size"`
}

// Set is one pass over all workloads: the end-to-end run of each and, with
// -trace 1, the traced run.
type Set struct {
	EndToEnd []*Result `json:"end_to_end"`
	PerLayer []*Result `json:"per_layer,omitempty"`
}

// ReadDoc loads a document written by pcsuite -all.
func ReadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// WriteDoc writes d as indented JSON.
func WriteDoc(path string, d *Doc) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// samples collects one end-to-end metric of one workload across the sets.
func (d *Doc) samples(workload, metric string) []float64 {
	var out []float64
	for _, s := range d.Sets {
		for _, r := range s.EndToEnd {
			if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// spread is the run-to-run spread of xs as a share of their median: the
// distance between the quartiles, or the whole range below four samples.
// One sample has no spread to show.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	if len(xs) < 4 {
		return (slices.Max(xs) - slices.Min(xs)) / Median(xs)
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / Median(xs)
}

// Compare prints, per workload and end-to-end metric, both medians, their
// ratio (base: old), the metric's bound and a verdict. It returns the
// number of metrics that got worse.
//
// A metric is unresolved when either side's run-to-run spread is wider than
// the bound: the two medians then cannot be told apart at that bound, and
// the answer is more runs, not a verdict.
func Compare(out io.Writer, older, newer *Doc) int {
	worse := 0
	fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s %6s  %s\n", "workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, spec := range Specs {
		for _, m := range EndToEnd {
			a, b := older.samples(spec.Name, m.Name), newer.samples(spec.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(out, "%-14s %-20s %14s %14s %9s %6s  missing on one side\n", spec.Name, m.Name, "-", "-", "-", "-")
				continue
			}
			va, vb := Median(a), Median(b)
			// change > 0 means the metric got worse, as a share of old.
			change := (vb - va) / va
			if m.Better == "higher" {
				change = -change
			}
			verdict := "unchanged"
			sa, sb := spread(a), spread(b)
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread old %.1f%% new %.1f%%)", 100*sa, 100*sb)
			case change > m.Bound:
				verdict = "worse"
				worse++
			case change < -m.Bound:
				verdict = "better"
			}
			if math.IsNaN(sa) || math.IsNaN(sb) {
				verdict += " (single run: spread unknown)"
			}
			fmt.Fprintf(out, "%-14s %-20s %14.6g %14.6g %9.3f %5.0f%%  %s\n", spec.Name, m.Name+" ["+m.Unit+"]", va, vb, vb/va, 100*m.Bound, verdict)
		}
	}
	return worse
}
