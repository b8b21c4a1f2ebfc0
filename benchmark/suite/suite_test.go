package suite

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload at 1/100 size, one job, and checks that the
// job verifies against the Go loop and every end-to-end metric comes out
// present, finite, non-zero and with its unit.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, spec := range Specs {
		res, err := Run(spec, Options{Seed: 1, Seconds: 1, Scale: 100, Warm: 0, Timed: 1, WorkDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if res.Attempted != 1 || res.Failed != 0 {
			t.Errorf("%s: %d of %d jobs failed", spec.Name, res.Failed, res.Attempted)
		}
		for _, m := range EndToEnd {
			v, ok := res.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive finite value in %s", spec.Name, m.Name, v, ok, m.Unit)
			}
		}
	}
}

// TestSmokeTraced checks the half of the per-layer tier that needs no
// internal package: spans, references, and a reason for everything else.
func TestSmokeTraced(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"agg_wide", "kmeans", "ingest_scan"} {
		spec, _ := Lookup(name)
		res, err := Run(spec, Options{Seed: 2, Seconds: 1, Scale: 100, Warm: 0, Timed: 4, Trace: true, WorkDir: dir})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range PerLayer {
			_, measured := res.Metrics[m.Name]
			if reason := res.Missing[m.Name]; !measured && reason == "" {
				t.Errorf("%s: %s is neither measured nor explained", name, m.Name)
			}
		}
		for _, want := range []string{"pc.job_s_p75", "pc.trace_overhead_frac", "goloop.job_s_p50", "pc.load_rows_per_s"} {
			if _, ok := res.Metrics[want]; !ok {
				t.Errorf("%s: %s missing: %s", name, want, res.Missing[want])
			}
		}
		if _, err := os.Stat(res.SpanFile); err != nil {
			t.Errorf("%s: span file: %v", name, err)
		}
	}
}

// TestSeedChangesData: another seed, another input, hence another answer.
func TestSeedChangesData(t *testing.T) {
	spec, _ := Lookup("join_part")
	sums := map[string]bool{}
	for seed := int64(1); seed <= 2; seed++ {
		res, err := Run(spec, Options{Seed: seed, Seconds: 1, Scale: 100, Warm: 0, Timed: 1, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		sums[res.Checksum] = true
	}
	if len(sums) != 2 {
		t.Errorf("two seeds gave %d distinct result checksums", len(sums))
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json equal to the tables in this
// package: workloads, end-to-end metrics with bounds, per-layer metrics.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, the contract fixes 6", len(raw))
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(Specs) {
		t.Fatalf("%d workloads, the suite has %d", len(b.Workloads), len(Specs))
	}
	for i, w := range b.Workloads {
		if w.Name != Specs[i].Name || w.Why != Specs[i].Why {
			t.Errorf("workload %d is %q (%q), the suite has %q (%q)", i, w.Name, w.Why, Specs[i].Name, Specs[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(tier string, got []metric, want []MetricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, the suite has %d", tier, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s[%d] = %+v, the suite has %+v", tier, i, m, w)
			}
			if bounded != (m.Bound != nil) || (bounded && *m.Bound != w.Bound) {
				t.Errorf("%s: bound of %s does not match the suite's %g", tier, m.Name, w.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd, true)
	check("per_layer", b.PerLayer, PerLayer, false)
}

// TestSuiteImports pins the split that keeps the gate unbreakable: the
// end-to-end tier may import the public API, the object accessors every
// example uses, and the repo's own libraries — never engine, cluster,
// exchange or the other layers the probes reach into.
func TestSuiteImports(t *testing.T) {
	allowed := map[string]bool{
		"repro/pc": true, "repro/internal/object": true, "repro/internal/agglib": true,
		"repro/internal/tpch": true, "repro/internal/ml": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "repro/") && !allowed[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(values ...float64) *Doc {
		d := &Doc{}
		for _, v := range values {
			d.Sets = append(d.Sets, Set{EndToEnd: []*Result{{Workload: "kmeans",
				Metrics: map[string]Value{"job_s_min": {v, "s"}, "rows_per_s": {1 / v, "rows/s"}}}}})
		}
		return d
	}
	for _, tc := range []struct {
		older, newer *Doc
		want         string
		worse        int
	}{
		{doc(1, 1.01, 0.99, 1), doc(1.5, 1.51, 1.49, 1.5), "worse", 2},
		{doc(1, 1.01, 0.99, 1), doc(0.5, 0.51, 0.49, 0.5), "better", 0},
		{doc(1, 1.01, 0.99, 1), doc(1.02, 1.03, 1.01, 1.02), "unchanged", 0},
		{doc(1, 1.8, 0.5, 1.2), doc(1.5, 1.5, 1.5, 1.5), "unresolved", 0},
		{doc(1), doc(1.5), "single run", 2},
	} {
		var out bytes.Buffer
		worse := Compare(&out, tc.older, tc.newer)
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "kmeans") && strings.Contains(l, "job_s_min") {
				line = l
			}
		}
		if !strings.Contains(line, tc.want) || worse != tc.worse {
			t.Errorf("want verdict %q with %d worse, got %d worse and line %q", tc.want, tc.worse, worse, line)
		}
	}
}
