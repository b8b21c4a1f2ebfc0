package cluster

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
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

// TestClusterRestartResumesMidStreamJob is the cross-process resume
// acceptance test: a disk-backed ResumeOnRestart cluster dies mid-merge
// with retries disabled (the whole-cluster-crash stand-in — the job
// fails, the process state is gone, only DataDir survives). A new
// cluster on the same DataDir re-executes the same job and must resume
// each consumer from its persisted cut — and produce result rows
// bit-for-bit identical (order included) to a crash-free run.
func TestClusterRestartResumesMidStreamJob(t *testing.T) {
	const n, groups, interval = 4000, 16, 2
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, MaxRetries: -1, ResumeOnRestart: true}

	// Crash-free reference on its own DataDir.
	refCfg := cfg
	refCfg.DataDir = t.TempDir()
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)
	if len(wantRows) != groups {
		t.Fatalf("reference produced %d groups, want %d", len(wantRows), groups)
	}

	// First life: load, checkpoint, die mid-merge. With MaxRetries < 0 the
	// crash is not retried in-process, so the job fails exactly as if the
	// cluster process had been killed — and the durable recovery state
	// must survive the failure path.
	dir := t.TempDir()
	cfg.DataDir = dir
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := intRecType(c1)
	loadIntRows(t, c1, rec1, "db", "rows", n, groups)
	if err := c1.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: interval + 1})
	if _, err := c1.Execute(core.NewWrite("db", "sums", intSumAgg(rec1, nil))); err == nil {
		t.Fatal("crashing job with retries disabled succeeded")
	}
	if c1.Cfg.Fault.Fired() != 1 {
		t.Fatal("the mid-merge crash never fired")
	}
	if c1.CheckpointSets() == 0 {
		t.Fatal("no durable checkpoint set survived the crash-type failure")
	}
	if len(resumeFiles(t, dir)) == 0 {
		t.Fatal("no resume metadata survived the crash-type failure")
	}

	// Second life: a fresh cluster on the same DataDir re-registers the
	// type and re-executes the same job. The consumers must resume from
	// their persisted cuts instead of starting over.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	stats, err := c2.Execute(core.NewWrite("db", "sums", intSumAgg(rec2, nil)))
	if err != nil {
		t.Fatalf("re-executed job after restart: %v", err)
	}
	if stats.ConsumerResumes == 0 {
		t.Error("no consumer resumed from the persisted cut metadata")
	}
	var gotRows []string
	if err := c2.ScanSet("db", "sums", func(r object.Ref) bool {
		gotRows = append(gotRows, fmt.Sprintf("%d=%d",
			object.GetI64(r, rec2.Field("grp")), object.GetI64(r, rec2.Field("val"))))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("resumed run differs from crash-free run (%d vs %d rows)", len(gotRows), len(wantRows))
	}
	// Success cleans up all durable recovery state.
	if got := c2.CheckpointSets(); got != 0 {
		t.Errorf("%d checkpoint sets leaked past the resumed commit", got)
	}
	if files := resumeFiles(t, dir); len(files) != 0 {
		t.Errorf("resume metadata leaked past the resumed commit: %v", files)
	}
}

// TestJoinRestartResumesProbeCut: a ResumeOnRestart join that dies
// mid-probe persists its probe cursor and emitted-match counter; a new
// cluster on the same DataDir re-running the same join rebuilds the table
// (the build replays deterministically from storage) and resumes the
// probe from the durable cut. With the crash landing on a window boundary
// the two lives' emissions concatenate to exactly the crash-free match
// sequence — one worker keeps the sequencing deterministic.
func TestJoinRestartResumesProbeCut(t *testing.T) {
	const left, right, groups, interval = 600, 90, 18, 1
	cfg := Config{Workers: 1, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, MaxRetries: -1, ResumeOnRestart: true}

	refCfg := cfg
	refCfg.DataDir = t.TempDir()
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "left", left, groups)
	loadIntRows(t, ref, refRec, "db", "right", right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)
	if len(wantRows) == 0 {
		t.Fatal("reference join emitted nothing")
	}

	dir := t.TempDir()
	cfg.DataDir = dir
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := intRecType(c1)
	loadIntRows(t, c1, rec1, "db", "left", left, groups)
	loadIntRows(t, c1, rec1, "db", "right", right, groups)
	// ProbePage fires on the first page of the second probe window, so the
	// crash lands exactly on the first durable cut: everything emitted so
	// far is covered by it.
	c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProbePage, Worker: 0, K: interval})
	var firstLife []string
	_, err = c1.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right",
		joinKeyOn(rec1), joinKeyOn(rec1), joinEqOn(rec1),
		func(workerID int, l, r object.Ref) error {
			firstLife = append(firstLife, joinPairString(rec1, l, r))
			return nil
		})
	if err == nil {
		t.Fatal("crashing join with retries disabled succeeded")
	}
	if c1.Cfg.Fault.Fired() != 1 {
		t.Fatal("the probe crash never fired")
	}
	files, err := filepath.Glob(filepath.Join(dir, "worker-*", "resume-join-*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no join resume metadata survived the crash (%v, %v)", files, err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	var secondLife []string
	_, err = c2.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right",
		joinKeyOn(rec2), joinKeyOn(rec2), joinEqOn(rec2),
		func(workerID int, l, r object.Ref) error {
			secondLife = append(secondLife, joinPairString(rec2, l, r))
			return nil
		})
	if err != nil {
		t.Fatalf("join after restart: %v", err)
	}
	got := append(append([]string(nil), firstLife...), secondLife...)
	if !equalRows(got, wantRows) {
		t.Errorf("restarted join emissions differ from crash-free join (%d+%d vs %d pairs)",
			len(firstLife), len(secondLife), len(wantRows))
	}
	if len(firstLife) == 0 || len(secondLife) == 0 {
		t.Errorf("expected both lives to emit (first %d, second %d)", len(firstLife), len(secondLife))
	}
	files, _ = filepath.Glob(filepath.Join(dir, "worker-*", "resume-join-*.json"))
	if len(files) != 0 {
		t.Errorf("join resume metadata leaked past the resumed commit: %v", files)
	}
}

// joinKeyOn/joinEqOn/joinPairString are the join-test lambdas over the
// (grp, val) record.
func joinKeyOn(rec *object.TypeInfo) func(object.Ref) uint64 {
	grp := rec.Field("grp")
	return func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grp)))
	}
}

func joinEqOn(rec *object.TypeInfo) func(l, r object.Ref) bool {
	grp := rec.Field("grp")
	return func(l, r object.Ref) bool {
		return object.GetI64(l, grp) == object.GetI64(r, grp)
	}
}

func joinPairString(rec *object.TypeInfo, l, r object.Ref) string {
	val := rec.Field("val")
	return fmt.Sprintf("%d|%d", object.GetI64(l, val), object.GetI64(r, val))
}

// TestResumeIgnoresForeignJob checks the fingerprint guard: durable
// recovery state left by one job must not hijack a different job (or a
// different cluster shape) on the same DataDir — the second job starts
// over and still commits the right answer.
func TestResumeIgnoresForeignJob(t *testing.T) {
	const n, groups, interval = 3000, 12, 2
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, MaxRetries: -1, ResumeOnRestart: true}
	dir := t.TempDir()
	cfg.DataDir = dir
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := intRecType(c1)
	loadIntRows(t, c1, rec1, "db", "rows", n, groups)
	if err := c1.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: interval + 1})
	if _, err := c1.Execute(core.NewWrite("db", "sums", intSumAgg(rec1, nil))); err == nil {
		t.Fatal("crashing job succeeded")
	}
	if len(resumeFiles(t, dir)) == 0 {
		t.Fatal("no resume metadata survived")
	}

	// Second life runs a *different* shape (more threads): the fingerprint
	// must not match, so no consumer resumes and the job still succeeds.
	cfg2 := cfg
	cfg2.Threads = 4
	c2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	stats, err := c2.Execute(core.NewWrite("db", "sums", intSumAgg(rec2, nil)))
	if err != nil {
		t.Fatalf("different-shape job after restart: %v", err)
	}
	if stats.ConsumerResumes != 0 {
		t.Errorf("a consumer resumed from a foreign job's recovery state (%d resumes)", stats.ConsumerResumes)
	}
	count, err := c2.CountSet("db", "sums")
	if err != nil {
		t.Fatal(err)
	}
	if count != groups {
		t.Errorf("foreign-state run produced %d groups, want %d", count, groups)
	}
}
