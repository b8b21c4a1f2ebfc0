package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/storage"
)

// resumeFiles globs the durable cut-metadata files under a DataDir.
func resumeFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "worker-*", "resume-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// killedChildArg, as the test binary's first argument, makes the binary the
// process a kill → restart test kills: TestMain runs killedAggChild on the
// directory named by the second argument instead of the tests.
const killedChildArg = "killed-agg-child"

// TestMain lets the test binary double as the process a resume test kills.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == killedChildArg {
		killedAggChild(os.Args[2])
	}
	os.Exit(m.Run())
}

// The cluster and input the killed child and the restarted parent share.
const resumeRows, resumeGroups = 4000, 16

func resumeCfg(dir string) Config {
	return Config{Workers: 2, Threads: 2, PageSize: 1 << 12, CheckpointInterval: 2, DataDir: dir}
}

// killedAggChild is the child process: it loads db.rows into an in-process
// cluster on dir and runs the grp→sum(val) aggregation into db.sums with a
// Finalize that kills the process. Finalize runs after the merge's
// end-of-stream cut is durable, so the process dies with that cut on disk —
// a sibling worker still merging leaves an earlier one — and nothing
// cleaned up.
func killedAggChild(dir string) {
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	c, err := New(resumeCfg(dir))
	if err != nil {
		fail(err)
	}
	rec := intRecType(c)
	if err := createIntRows(c, rec, "db", "rows", resumeRows, resumeGroups); err != nil {
		fail(err)
	}
	if err := c.CreateSet("db", "sums", rec.Name); err != nil {
		fail(err)
	}
	_, err = c.Execute(core.NewWrite("db", "sums", intSumAgg(rec,
		func(*object.Allocator, object.Value, object.Value) (object.Ref, error) {
			os.Exit(137)
			return object.NilRef, nil
		})))
	fail(fmt.Errorf("the job outlived its Finalize: %v", err))
}

// killAggChild runs killedAggChild in a child process on a fresh directory
// and returns the directory once the child died in Finalize.
func killAggChild(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	out, err := exec.Command(os.Args[0], killedChildArg, dir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 137 {
		t.Fatalf("the child did not die in Finalize (%v):\n%s", err, out)
	}
	if len(resumeFiles(t, dir)) == 0 {
		t.Fatal("the killed process left no durable cut")
	}
	return dir
}

// assertNoRecoveryState asserts no _ckpt set and no resume file is left.
func assertNoRecoveryState(t *testing.T, c *Cluster, dir string) {
	t.Helper()
	if got := c.CheckpointSets(); got != 0 {
		t.Errorf("%d checkpoint sets left behind", got)
	}
	if files := resumeFiles(t, dir); len(files) != 0 {
		t.Errorf("resume files left behind: %v", files)
	}
}

// TestClusterRestartResumesMidStreamJob is the in-process kill → restart →
// resume test: a child process running the aggregation on a DataDir is
// killed inside the job, with its durable cuts on disk. A new cluster on
// the same DataDir re-executes the same job and must resume its consumers
// from those cuts, produce result rows bit-for-bit identical (order
// included) to a crash-free run, and leave no recovery state behind.
func TestClusterRestartResumesMidStreamJob(t *testing.T) {
	ref, err := New(resumeCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", resumeRows, resumeGroups)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)
	if len(wantRows) != resumeGroups {
		t.Fatalf("reference produced %d groups, want %d", len(wantRows), resumeGroups)
	}

	dir := killAggChild(t)
	c, err := New(resumeCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	stats, err := c.Execute(core.NewWrite("db", "sums", intSumAgg(rec, nil)))
	if err != nil {
		t.Fatalf("re-executed job after restart: %v", err)
	}
	if stats.ConsumerResumes == 0 {
		t.Error("no consumer resumed from the killed process's durable cuts")
	}
	gotRows, err := sumRows(c, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("resumed run differs from crash-free run (%d vs %d rows)", len(gotRows), len(wantRows))
	}
	assertNoRecoveryState(t, c, dir)
}

// TestResumeIgnoresForeignJob checks the fingerprint guard: the durable
// cuts a killed job left must not hijack the same job on a different
// cluster shape, nor the same job over a reloaded input. Each starts over,
// commits the right answer, and clears the stale state.
func TestResumeIgnoresForeignJob(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
		life func(t *testing.T, dir string) *Cluster
	}{
		{"more threads", resumeRows, func(t *testing.T, dir string) *Cluster {
			cfg := resumeCfg(dir)
			cfg.Threads = 4
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"reloaded input", 2 * resumeRows, func(t *testing.T, dir string) *Cluster {
			c, err := New(resumeCfg(dir))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.DropSet("db", "rows"); err != nil {
				t.Fatal(err)
			}
			loadIntRows(t, c, intRecType(c), "db", "rows", 2*resumeRows, resumeGroups)
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := killAggChild(t)
			c := tc.life(t, dir)
			rec := intRecType(c)
			stats, err := c.Execute(core.NewWrite("db", "sums", intSumAgg(rec, nil)))
			if err != nil {
				t.Fatalf("foreign job after restart: %v", err)
			}
			if stats.ConsumerResumes != 0 {
				t.Errorf("a consumer resumed from a foreign job's recovery state (%d resumes)", stats.ConsumerResumes)
			}
			rows, err := sumRows(c, rec)
			if err != nil {
				t.Fatal(err)
			}
			checkIntSums(t, rows, tc.rows, resumeGroups)
			assertNoRecoveryState(t, c, dir)
		})
	}
}

// TestTornCutRestoresPreviousCut persists a durable cut, then fails the
// next cut's resume write — a directory sits at its temp path — after that
// cut's snapshots are written. A fresh record over a freshly opened store
// (the next process) must restore the first cut's bytes exactly, or
// nothing: never the second cut's snapshots under the first cut's number.
// Dropping the record's state then removes every _ckpt set of the artifact.
func TestTornCutRestoresPreviousCut(t *testing.T) {
	dir := t.TempDir()
	reg := object.NewRegistry()
	rt := object.NewStruct("RecovRec").AddField("grp", object.KInt64).AddField("val", object.KInt64).MustBuild(reg)
	open := func() *workerEnv {
		store, err := storage.NewServer(dir, reg)
		if err != nil {
			t.Fatal(err)
		}
		return &workerEnv{workers: 1, threads: 2, pageSize: 1 << 12, reg: reg, store: store,
			pool: object.NewPagePool(1 << 12), jobFP: "job"}
	}
	// cut builds a two-sub-map checkpoint whose pages hold val.
	cut := func(n int, val int64) *engine.MergeCheckpoint {
		ck := &engine.MergeCheckpoint{Cut: n}
		for s := 0; s < 2; s++ {
			pages, err := object.BuildPages(reg, 1<<12, 3, func(a *object.Allocator, i int) (object.Ref, error) {
				r, err := a.MakeObject(rt)
				if err == nil {
					object.SetI64(r, rt.Field("val"), val+int64(s))
				}
				return r, err
			})
			if err != nil {
				t.Fatal(err)
			}
			ck.Subs = append(ck.Subs, engine.SubMapSnapshot{PageSize: 1 << 12, Data: pages[0].Bytes()})
		}
		return ck
	}
	restore := func(env *workerEnv) *engine.MergeCheckpoint {
		rec := &aggRecovery{produces: "mat:agg"}
		if !env.loadAggResume(rec) {
			return nil
		}
		ck, err := env.loadAggCheckpoint(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ck
	}

	env := open()
	rec := &aggRecovery{produces: "mat:agg"}
	if err := env.persistAggCheckpoint(rec, cut(2, 100), nil); err != nil {
		t.Fatal(err)
	}
	want := restore(open())
	if want == nil || want.Cut != 2 {
		t.Fatalf("the first durable cut does not restore (got %+v)", want)
	}
	if err := os.Mkdir(env.resumePath(rec.produces)+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := env.persistAggCheckpoint(rec, cut(4, 200), nil); err == nil {
		t.Fatal("the second cut's resume write succeeded over a directory")
	}

	next := open()
	if got := restore(next); got != nil {
		if got.Cut != 2 || len(got.Subs) != len(want.Subs) {
			t.Fatalf("restored cut %d with %d sub-maps, want cut 2 with %d", got.Cut, len(got.Subs), len(want.Subs))
		}
		for i, sub := range got.Subs {
			if !bytes.Equal(sub.Data, want.Subs[i].Data) {
				t.Errorf("sub-map %d restored other bytes than the first cut's", i)
			}
		}
	}
	next.dropAggCheckpoint(&aggRecovery{produces: "mat:agg"}, nil)
	for _, key := range next.store.Sets() {
		if strings.HasPrefix(key, checkpointDb+".") {
			t.Errorf("%s survived the drop", key)
		}
	}
	if _, err := os.Stat(next.resumePath("mat:agg")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the resume file survived the drop (%v)", err)
	}
}
