// Package suite is the end-to-end tier of the pcsuite benchmark: eight fixed
// workloads, each a closed loop with one client that submits a batch job,
// reads the complete result and verifies it against a plain Go loop over the
// same rows.
//
// The package deliberately imports only what a tool author would — pc, the
// object accessors, and the repo's own libraries (agglib, tpch, ml) — and
// sets only Workers, Threads, PageSize, DataDir and ProcBin, so a refactor
// of the engine or the removal of an ablation knob cannot break the gate.
// Everything that reaches into an internal package lives in
// benchmark/layers behind the layerprobes build tag.
package suite

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/pc"
)

// The common cluster shape: 2 workers x 1 thread, the two cores the
// benchmark machine has.
const (
	Workers  = 2
	Threads  = 1
	PageSize = 1 << 18

	// RunSeconds is the run length the workloads' job counts are sized
	// for: run_seconds in BENCHMARK.json.
	RunSeconds = 8
	// MinTimed is the floor on timed jobs per run: a median needs samples.
	MinTimed = 12
	// A run sets the workload up at least minSetupReps times.
	minSetupReps, maxSetupReps = 5, 25
	// minGoloop is how long the Go-loop reference runs before each job.
	minGoloop = 50 * time.Millisecond
)

// Spec is one workload of the suite. Names are fixed: later issues refer
// to them.
type Spec struct {
	Name string
	Why  string
	// Size describes the seeded input at full scale.
	Size string
	// Jobs is the number of timed jobs in a run of RunSeconds, chosen so
	// that the run measures for about that long at the baseline commit.
	// Counts are fixed, not time-boxed, so they repeat exactly from run to
	// run and from commit to commit; another --seconds scales them.
	Jobs int
	Warm int
	new  func(scale int) workload
}

// Timed is the number of timed jobs a run of the given length makes.
func (s Spec) Timed(seconds int) int {
	return max(MinTimed, int(math.Round(float64(s.Jobs*seconds)/RunSeconds)))
}

// Lookup finds a workload by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range Specs {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// workload is one benchmark program: seeded input as Go structs, the same
// query as a plain Go loop (the reference and the "speed of light"), and the
// job on the system under test.
type workload interface {
	// generate builds the input from the seed.
	generate(rng *rand.Rand)
	// rows is the input row count a job processes.
	rows() int
	// goloop runs the query as a plain Go loop over the generated structs,
	// sharded over two goroutines, and keeps the answer as the reference
	// the next job is verified against. Calling it twice changes nothing.
	goloop()
	// open connects a cluster and loads the input: the system's set-up.
	open(e *env) error
	// job submits one job, reads the whole result and verifies it.
	job(e *env) error
	// checksum identifies the last verified result.
	checksum() uint64
	// client is the currently open cluster.
	client() *pc.Client
	close() error
	// probeInput hands the traced tier the workload's pages and graph.
	probeInput() ProbeInput
}

// Options selects one run of one workload.
type Options struct {
	Seed    int64
	Seconds int
	// Scale divides every input size; 1 is the benchmark, tests use 100.
	// 0 means no rows at all (the empty-job probe).
	Scale int
	// Warm and Timed override the spec's counts when >= 0 (tests, probes).
	Warm, Timed int
	Trace       bool
	// WorkDir is where DataDir trees, the pcworker binary and span files
	// go. Keep it relative: unix socket paths under it must stay short.
	WorkDir string
	Log     io.Writer
}

// Result is one run's outcome.
type Result struct {
	Workload  string            `json:"workload"`
	Size      string            `json:"size"`
	Rows      int               `json:"rows"`
	Warm      int               `json:"warm_jobs"`
	Timed     int               `json:"timed_jobs"`
	Attempted int               `json:"jobs_attempted"`
	Failed    int               `json:"jobs_failed"`
	Checksum  string            `json:"result_checksum"`
	Metrics   map[string]Value  `json:"metrics"`
	Missing   map[string]string `json:"missing,omitempty"`
	SpanFile  string            `json:"span_file,omitempty"`
}

// env is what a workload sees of the run.
type env struct {
	dir string
	tr  *tracer
	// cal times the calibration kernel beside the set-ups and every job.
	cal *calibrator
	// mutate adjusts the cluster config for a layer differential (the
	// checkpoint and process-boundary costs). The end-to-end tier leaves
	// it nil.
	mutate func(*pc.Config)
	// stages and execs accumulate over ExecStats the driver receives.
	stages, execs int
	// loadedRows counts rows under "load" spans.
	loadedRows int
	counters   counterLog
}

// baseConfig is the common shape of every workload.
func baseConfig() pc.Config {
	return pc.Config{Workers: Workers, Threads: Threads, PageSize: PageSize}
}

func (e *env) connect(c pc.Config) (*pc.Client, error) {
	if e.mutate != nil {
		e.mutate(&c)
	}
	defer e.tr.span("connect")()
	return pc.Connect(c)
}

// noteStages records the stage count of one Execute the driver issued.
func (e *env) noteStages(n int) {
	e.stages += n
	e.execs++
}

// newEnv makes the scratch directory <workDir>/<kind>-<pid>.
func newEnv(workDir, kind string) (*env, error) {
	if workDir == "" {
		workDir = ".bench_build"
	}
	dir := filepath.Join(workDir, kind+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{dir: dir}, nil
}

// Run measures one workload. With Trace off it reports the end-to-end
// metrics; with Trace on it reports the per-layer tier (spans around the
// driver's calls, plus whatever Probes contributes).
func Run(spec Spec, o Options) (*Result, error) {
	if o.Log == nil {
		o.Log = io.Discard
	}
	e, err := newEnv(o.WorkDir, "run")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.dir)
	e.cal = newCalibrator()
	if o.Trace {
		e.tr = newTracer()
	}
	warm, timed := spec.Warm, spec.Timed(o.Seconds)
	if o.Trace {
		// The traced run also pays for the probes: half the jobs, every
		// other one with spans on.
		timed = max(6, timed/2)
	}
	if o.Warm >= 0 {
		warm = o.Warm
	}
	if o.Timed >= 0 {
		timed = o.Timed
	}

	w := spec.new(o.Scale)
	setups, err := setUp(spec, o, e, w)
	if err != nil {
		return nil, err
	}
	defer w.close()

	res := &Result{Workload: spec.Name, Size: spec.Size, Rows: w.rows(), Warm: warm, Timed: timed,
		Metrics: map[string]Value{}}
	m, err := runJobs(spec, o, e, w, res)
	if err != nil || len(m.jobS) == 0 {
		return res, err
	}
	if o.Trace {
		return res, perLayer(spec, o, e, w, res, m)
	}
	// Times are the fastest of their repetitions, at the reference
	// machine's speed (calibrate.go): contention only ever adds time, and
	// some workloads alternate between a fast and a 20 % slower mode from
	// job to job, so the minimum repeats where the median does not.
	speed := e.cal.speed()
	fmt.Fprintf(o.Log, "%s: machine speed %.3f of the reference (calibration kernel p50 %.4f s over %d samples); unscaled: job_s min %.4f p50 %.4f, setup_s min %.4f p50 %.4f over %d set-ups\n",
		spec.Name, speed, Median(e.cal.samples), len(e.cal.samples), slices.Min(m.jobS), Median(m.jobS), slices.Min(setups), Median(setups), len(setups))
	perRow := float64(max(w.rows(), 1) * len(m.jobS))
	jobS := slices.Min(m.jobS) * speed
	res.Set("job_s_min", jobS)
	res.Set("rows_per_s", float64(max(w.rows(), 1))/jobS)
	res.Set("goloop_frac", slices.Min(m.goloopS)/slices.Min(m.jobS))
	res.Set("alloc_bytes_per_row", float64(m.allocB)/perRow)
	res.Set("allocs_per_row", float64(m.allocN)/perRow)
	res.Set("peak_rss_mb", peakRSSMiB())
	res.Set("setup_s", slices.Min(setups)*speed)
	return res, nil
}

// setUp generates the input from the seed and loads it, several times over,
// and returns how long each took; setup_s is the fastest. Cheap set-ups
// repeat until they have been given a second in all, so that a 20 ms set-up
// is not judged on five samples.
func setUp(spec Spec, o Options, e *env, w workload) ([]float64, error) {
	var setups []float64
	e.cal.sample()
	for total := 0.0; len(setups) < minSetupReps || (total < 1 && len(setups) < maxSetupReps); {
		if len(setups) > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", spec.Name, err)
			}
			runtime.GC() // the previous load is garbage before the next one starts
		}
		t0 := time.Now()
		done := e.tr.span("setup")
		w.generate(rand.New(rand.NewSource(o.Seed)))
		err := w.open(e)
		done()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", spec.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
		if o.Trace {
			break // the traced run reports no setup_s; its spans need one load
		}
	}
	return setups, nil
}

// measured is what the job loop of one run collected.
type measured struct {
	jobS, tracedS, goloopS []float64 // seconds per untraced job, traced job, Go-loop reference
	allocB, allocN         uint64    // heap bytes and objects allocated inside untraced jobs
	tracedJobs             map[int]bool
}

// runJobs is the closed loop: reference, untimed GC, job, verify, next.
func runJobs(spec Spec, o Options, e *env, w workload, res *Result) (*measured, error) {
	m := &measured{tracedJobs: map[int]bool{}}
	tr := e.tr
	var before, after runtime.MemStats
	for i := 0; i < res.Warm+res.Timed; i++ {
		// The reference first: it is what the job is verified against. A
		// short one is repeated, so that a 1 ms loop is not timed once.
		t0, reps := time.Now(), 0
		for reps == 0 || time.Since(t0) < minGoloop {
			w.goloop()
			reps++
		}
		gl := time.Since(t0).Seconds() / float64(reps)
		e.cal.sample()

		// One job's garbage is not billed to the next; GC inside a job is.
		runtime.GC()
		// In a traced run every other job runs with spans on, so the two
		// medians that give the tracing overhead share one process.
		traced := o.Trace && i%2 == 1
		e.tr = nil
		if traced {
			e.tr = tr
			tr.job = i
		}
		runtime.ReadMemStats(&before)
		t0 = time.Now()
		done := e.tr.span("job")
		err := w.job(e)
		done()
		d := time.Since(t0).Seconds()
		runtime.ReadMemStats(&after)
		if o.Trace {
			e.counters.harvest(w.client())
		}
		if i < res.Warm {
			if err != nil {
				return nil, fmt.Errorf("%s: warm-up job %d: %w", spec.Name, i, err)
			}
			e.counters.reset()
			continue
		}
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(o.Log, "%s: job %d FAILED: %v\n", spec.Name, i, err)
			continue
		}
		m.goloopS = append(m.goloopS, gl)
		if traced {
			m.tracedS = append(m.tracedS, d)
			m.tracedJobs[i] = true
		} else {
			m.jobS = append(m.jobS, d)
			m.allocB += after.TotalAlloc - before.TotalAlloc
			m.allocN += after.Mallocs - before.Mallocs
		}
	}
	e.tr = tr
	if tr != nil {
		tr.job = -1
	}
	res.Checksum = fmt.Sprintf("%016x", w.checksum())
	fmt.Fprintf(o.Log, "%s: job_s over %d untraced jobs:%s\n", spec.Name, len(m.jobS), fmtTimes(m.jobS))
	if o.Trace {
		fmt.Fprintf(o.Log, "%s: job_s over %d traced jobs:%s\n", spec.Name, len(m.tracedS), fmtTimes(m.tracedS))
	}
	fmt.Fprintf(o.Log, "%s: goloop job_s beside them:%s\n", spec.Name, fmtTimes(m.goloopS))
	return m, nil
}

// perLayer fills in the traced tier: spans, counters, references, probes,
// and a reason for every metric that stays unmeasured.
func perLayer(spec Spec, o Options, e *env, w workload, res *Result, m *measured) error {
	tr, jobS := e.tr, Median(m.jobS)
	res.Missing = map[string]string{}
	var self []float64
	for id, sp := range tr.spans {
		if sp.Name == "job" && m.tracedJobs[sp.Job] {
			self = append(self, tr.selfTime(id))
		}
	}
	fmt.Fprintf(o.Log, "%s: driver self time per traced job (job span minus its children: graph building, verification) p50 %.6f s\n", spec.Name, Median(self))
	spanMetrics(res, tr, m.tracedJobs, w.rows())
	if load := sum(tr.durations("load")); load > 0 {
		res.Set("pc.load_rows_per_s", float64(e.loadedRows)/load)
	}
	res.Set("pc.job_s_p50", jobS)
	res.Set("pc.job_s_p75", quantile(append(append([]float64(nil), m.jobS...), m.tracedS...), 0.75))
	res.Set("pc.rows_per_s_wall", float64(max(w.rows(), 1)*len(m.jobS))/sum(m.jobS))
	res.Set("pc.machine_speed_frac", e.cal.speed())
	if len(m.tracedS) > 0 {
		res.Set("pc.trace_overhead_frac", (Median(m.tracedS)-jobS)/jobS)
	}
	res.Set("goloop.job_s_p50", Median(m.goloopS))
	e.counters.record(res, len(m.jobS)+len(m.tracedS), w.rows())
	if e.execs > 0 {
		res.Set("cluster.stages_per_job", float64(e.stages)/float64(e.execs))
	} else {
		res.Missing["cluster.stages_per_job"] = "the library call keeps ExecStats to itself"
	}
	if err := baselineMetrics(res, w, jobS); err != nil {
		return err
	}
	unprobed := "not applicable to " + spec.Name
	if Probes != nil {
		in := w.probeInput()
		in.Workload, in.Rows, in.Dir, in.Log, in.JobS = spec.Name, w.rows(), e.dir, o.Log, jobS
		in.Rerun = func(empty bool, mutate func(*pc.Config), warm, timed int) (float64, error) {
			scale := o.Scale
			if empty {
				scale = 0
			}
			return rerun(spec, o, scale, mutate, warm, timed)
		}
		Probes(in, res)
	} else {
		unprobed = "built without -tags layerprobes: only spans and references were measured"
	}
	for _, d := range PerLayer {
		_, measured := res.Metrics[d.Name]
		if _, explained := res.Missing[d.Name]; !measured && !explained {
			res.Missing[d.Name] = unprobed
		}
	}
	res.SpanFile = filepath.Join(filepath.Dir(e.dir), "spans-"+spec.Name+".json")
	return tr.write(res.SpanFile)
}

func fmtTimes(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, " %.4f", x)
	}
	return b.String()
}

// rerun measures the median job time of a fresh instance of the same
// workload, same seed, under a mutated cluster config or on empty input
// (scale 0): the control side of a layer differential.
func rerun(spec Spec, o Options, scale int, mutate func(*pc.Config), warm, timed int) (float64, error) {
	e, err := newEnv(o.WorkDir, "rerun")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(e.dir)
	e.mutate = mutate
	w := spec.new(scale)
	w.generate(rand.New(rand.NewSource(o.Seed)))
	if err := w.open(e); err != nil {
		return 0, err
	}
	defer w.close()
	var times []float64
	for i := 0; i < warm+timed; i++ {
		w.goloop()
		runtime.GC()
		t0 := time.Now()
		if err := w.job(e); err != nil {
			return 0, err
		}
		if i >= warm {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	return Median(times), nil
}

// Set records a measured metric; the name must be in the tables.
func (r *Result) Set(name string, v float64) {
	for _, tab := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, m := range tab {
			if m.Name == name {
				r.Metrics[name] = Value{Value: v, Unit: m.Unit}
				return
			}
		}
	}
	panic("suite: metric " + name + " is not in the tables")
}

// spanMetrics turns the driver's spans into the pc.* metrics.
func spanMetrics(res *Result, tr *tracer, jobs map[int]bool, rows int) {
	for _, name := range []string{"execute", "result_read", "dropset", "buildpages", "senddata", "reopen"} {
		ds := tr.perJob(name, jobs)
		if len(ds) == 0 {
			ds = tr.durations(name) // set-up spans: the load happens once, before the jobs
		}
		if len(ds) > 0 {
			res.Set("pc."+name+"_s_p50", Median(ds))
		}
	}
	if ds := tr.perJob("scanset", jobs); len(ds) > 0 {
		res.Set("pc.scanset_rows_per_s", float64(rows)/Median(ds))
	}
}

// peakRSSMiB is the high-water resident set of this process plus that of
// its live pcworker children (proc mode), read from /proc.
func peakRSSMiB() float64 {
	kb := vmHWM("/proc/self/status")
	self := strconv.Itoa(os.Getpid())
	procs, _ := filepath.Glob("/proc/[0-9]*/status")
	for _, p := range procs {
		data, err := os.ReadFile(p)
		if err != nil {
			continue // the process ended while we were looking
		}
		s := string(data)
		if field(s, "PPid:") == self && field(s, "Name:") == "pcworker" {
			kb += vmHWM(p)
		}
	}
	return kb / 1024
}

func vmHWM(statusPath string) float64 {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(field(string(data), "VmHWM:"), " kB"), 64)
	return kb
}

// field returns the value of one "Key:\tvalue" line of a /proc status file.
func field(status, key string) string {
	for _, line := range strings.Split(status, "\n") {
		if strings.HasPrefix(line, key) {
			return strings.TrimSpace(strings.TrimPrefix(line, key))
		}
	}
	return ""
}
