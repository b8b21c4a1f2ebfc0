// pcsuite is the repo's one benchmark: eight fixed workloads measured end to
// end and, with -trace 1, layer by layer.
//
//	go run ./benchmark/cmd/pcsuite -all -seed 1            # every workload, untraced
//	go run ./benchmark/cmd/pcsuite -all -seed 1 -trace 1   # ... plus the per-layer tier
//	go run ./benchmark/cmd/pcsuite -workload kmeans -seed 3 -seconds 10 -trace 0
//	go run ./benchmark/cmd/pcsuite -compare old.json new.json
//
// One workload runs in this process; -all starts one child process per
// workload so peak memory and page pools do not leak from one into the next.
// The last line of a single-workload run is the JSON result object described
// in BENCHMARK.json's contract; the exit code is non-zero if any job failed
// or returned an answer that differs from the Go-loop reference.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"repro/benchmark/suite"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process")
		all      = flag.Bool("all", false, "run every workload, each in its own child process")
		seed     = flag.Int64("seed", 1, "input seed: changes the data and nothing else")
		seconds  = flag.Int("seconds", suite.RunSeconds, "run length; scales the fixed timed-job counts, which are sized for 8")
		trace    = flag.Int("trace", 0, "1 adds the per-layer tier (spans, counters, probes)")
		sets     = flag.Int("sets", 1, "with -all: how many complete sets of runs to record")
		out      = flag.String("out", "", "with -all: where the JSON document goes (default <workdir>/pcsuite.json)")
		result   = flag.String("result", "", "with -workload: also write the full result record here")
		workDir  = flag.String("workdir", ".bench_build", "scratch directory; keep it relative (unix socket paths must stay short)")
		compare  = flag.Bool("compare", false, "compare two documents: pcsuite -compare old.json new.json")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *all:
		err = runAll(*seed, *seconds, *trace != 0, *sets, *out, *workDir)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace != 0, *result, *workDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcsuite:", err)
		os.Exit(1)
	}
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two documents: old.json new.json")
	}
	older, err := suite.ReadDoc(args[0])
	if err != nil {
		return err
	}
	newer, err := suite.ReadDoc(args[1])
	if err != nil {
		return err
	}
	if worse := suite.Compare(os.Stdout, older, newer); worse > 0 {
		return fmt.Errorf("%d metrics got worse by more than their bound", worse)
	}
	return nil
}

// checkMachine refuses to measure a cluster shape the machine cannot run in
// parallel: with fewer cores than executor threads the numbers measure the
// scheduler.
func checkMachine() error {
	if need := suite.Workers * suite.Threads; need > runtime.NumCPU() {
		return fmt.Errorf("the suite runs %d workers x %d threads and this machine has %d CPUs", suite.Workers, suite.Threads, runtime.NumCPU())
	}
	return nil
}

// contractResult is the last line of a single-workload run.
type contractResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]suite.Value `json:"metrics"`
}

func runOne(name string, seed int64, seconds int, trace bool, resultPath, workDir string) error {
	if err := checkMachine(); err != nil {
		return err
	}
	spec, ok := suite.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace && suite.Probes == nil {
		// The layer probes reach into internal packages, so they are
		// compiled only for the traced run. If a refactor broke them the
		// end-to-end tier still builds; say so loudly and go on with spans.
		if bin, err := buildProbes(workDir); err != nil {
			fmt.Fprintf(os.Stderr, "pcsuite: PER-LAYER PROBES MISSING: %v\n", err)
		} else {
			return syscall.Exec(bin, append([]string{bin}, os.Args[1:]...), os.Environ())
		}
	}
	res, err := suite.Run(spec, suite.Options{Seed: seed, Seconds: seconds, Scale: 1, Warm: -1, Timed: -1,
		Trace: trace, WorkDir: workDir, Log: os.Stdout})
	if err != nil {
		return err
	}
	printResult(os.Stdout, res)
	if resultPath != "" {
		data, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(resultPath, data, 0o644); err != nil {
			return err
		}
	}
	// The contract's line: every declared metric of the tier that ran. A
	// per-layer metric the workload cannot produce reads 0 here; the reason
	// is in the record above and in the document -all writes.
	cr := contractResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	if trace {
		for _, m := range suite.PerLayer {
			if _, ok := cr.Metrics[m.Name]; !ok {
				cr.Metrics[m.Name] = suite.Value{Unit: m.Unit}
			}
		}
	}
	line, err := json.Marshal(cr)
	if err != nil {
		return err
	}
	if _, err := fmt.Printf("%s\n", line); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: fail_frac %d/%d is not zero", name, res.Failed, res.Attempted)
	}
	return nil
}

// buildProbes compiles this command with the layer probes linked in.
func buildProbes(workDir string) (string, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(workDir, "pcsuite-probes")
	cmd := exec.Command("go", "build", "-tags", "layerprobes", "-o", bin, "repro/benchmark/cmd/pcsuite")
	if outp, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build -tags layerprobes: %v\n%s", err, outp)
	}
	return bin, nil
}

func printResult(w io.Writer, r *suite.Result) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.Workload, r.Size)
	fmt.Fprintf(w, "  rows=%d warm_jobs=%d timed_jobs=%d jobs_attempted=%d jobs_failed=%d fail_frac=%g result_checksum=%s\n",
		r.Rows, r.Warm, r.Timed, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Checksum)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	names = names[:0]
	for n := range r.Missing {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-36s missing: %s\n", n, r.Missing[n])
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.SpanFile)
	}
}

func runAll(seed int64, seconds int, trace bool, sets int, out, workDir string) error {
	if err := checkMachine(); err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	if out == "" {
		out = filepath.Join(workDir, "pcsuite.json")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := &suite.Doc{Header: suite.Header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: seed, Seconds: seconds,
		Workers: suite.Workers, Threads: suite.Threads, PageSize: suite.PageSize,
	}}
	fmt.Printf("pcsuite: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%d cluster=%dx%d page=%d\n",
		doc.Header.NProc, doc.Header.GOMAXPROCS, doc.Header.GoVersion, doc.Header.Commit, seed, seconds,
		suite.Workers, suite.Threads, suite.PageSize)
	failed := 0
	for i := 0; i < sets; i++ {
		var set suite.Set
		for _, spec := range suite.Specs {
			for _, traced := range []bool{false, true}[:1+btoi(trace)] {
				res, err := runChild(self, spec.Name, seed, seconds, traced, workDir)
				if err != nil {
					return err
				}
				failed += res.Failed
				if traced {
					set.PerLayer = append(set.PerLayer, res)
				} else {
					set.EndToEnd = append(set.EndToEnd, res)
				}
			}
		}
		doc.Sets = append(doc.Sets, set)
	}
	if err := suite.WriteDoc(out, doc); err != nil {
		return err
	}
	fmt.Printf("pcsuite: document written to %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d jobs failed or returned a wrong answer", failed)
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runChild runs one workload in its own process and reads back its record.
func runChild(self, name string, seed int64, seconds int, traced bool, workDir string) (*suite.Result, error) {
	resultPath := filepath.Join(workDir, "result-"+name+".json")
	defer os.Remove(resultPath)
	cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(btoi(traced)), "-workdir", workDir, "-result", resultPath)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	// Everything but the contract's JSON line is for the reader.
	text := strings.TrimRight(stdout.String(), "\n")
	if i := strings.LastIndexByte(text, '\n'); i >= 0 && strings.HasPrefix(text[i+1:], "{") {
		text = text[:i]
	}
	fmt.Println(text)
	data, err := os.ReadFile(resultPath)
	if err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, err
	}
	var res suite.Result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &res, nil
}

// commit names the checkout, when it is one.
func commit() string {
	outp, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(outp))
}
