package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/agglib"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
)

var (
	pcworkerOnce sync.Once
	pcworkerBin  string
	pcworkerErr  error
)

// buildPCWorker compiles cmd/pcworker once per test binary: proc-mode
// tests exercise the real process boundary, so they need the real worker
// executable.
func buildPCWorker(t *testing.T) string {
	t.Helper()
	pcworkerOnce.Do(func() {
		dir, err := os.MkdirTemp("", "pcworker")
		if err != nil {
			pcworkerErr = err
			return
		}
		bin := filepath.Join(dir, "pcworker")
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/pcworker").CombinedOutput()
		if err != nil {
			pcworkerErr = fmt.Errorf("go build cmd/pcworker: %v\n%s", err, out)
			return
		}
		pcworkerBin = bin
	})
	if pcworkerErr != nil {
		t.Fatal(pcworkerErr)
	}
	return pcworkerBin
}

// procSumAgg is the shippable grp→sum(val) aggregation: a registered
// named family (agglib.sumI64), so worker processes can rebuild its
// kernels from the TCAP text alone.
func procSumAgg(t *testing.T, c *Cluster) *core.Aggregate {
	t.Helper()
	agg, err := agglib.SumI64(c.Catalog.Registry(), "db", "rows", "RecovRec", "grp", "val")
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// runProcIntAgg executes the shippable aggregation and returns result
// rows in storage scan order — the bit-for-bit identity unit.
func runProcIntAgg(t *testing.T, c *Cluster, rec *object.TypeInfo) ([]string, *ExecStats, error) {
	t.Helper()
	stats, err := c.Execute(core.NewWrite("db", "sums", procSumAgg(t, c)))
	if err != nil {
		return nil, nil, err
	}
	rows, err := sumRows(c, rec)
	if err != nil {
		t.Fatal(err)
	}
	return rows, stats, nil
}

// checkIntSums verifies the rows hold exactly the directly-computed
// grp→sum(val) result for n rows over groups groups.
func checkIntSums(t *testing.T, rows []string, n, groups int) {
	t.Helper()
	want := make(map[int64]int64, groups)
	for i := 0; i < n; i++ {
		want[int64(i%groups)] += int64(i)
	}
	if len(rows) != groups {
		t.Fatalf("got %d result rows, want %d", len(rows), groups)
	}
	got := make(map[string]bool, len(rows))
	for _, r := range rows {
		got[r] = true
	}
	for g, s := range want {
		if !got[fmt.Sprintf("%d=%d", g, s)] {
			t.Errorf("group %d: missing or wrong sum (want %d)", g, s)
		}
	}
}

// TestProcClusterAggSmoke runs an aggregation across two real pcworker
// OS processes over unix sockets: the job ships as TCAP text + type
// schemas, the workers rebuild and run the pipelines, and the master
// relays the shuffle — correct sums, wire traffic counted, clean close.
func TestProcClusterAggSmoke(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups = 2000, 16
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, DataDir: t.TempDir(), ProcBin: bin}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkIntSums(t, rows, n, groups)
	if c.Transport.Stats().BytesShipped == 0 {
		t.Error("no bytes counted across the process boundary")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pw := range c.procs.workers {
		if pw.alive() {
			t.Errorf("worker %d process survived Close", pw.id)
		}
	}
}

// TestProcClusterShipsFoldFamilies runs the other agglib folds over the
// process boundary: the family name is all that crosses, the worker
// rebuilds the same typed fold from it, and each result matches the
// directly computed one.
func TestProcClusterShipsFoldFamilies(t *testing.T) {
	const n, groups = 2000, 16
	c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		DataDir: t.TempDir(), ProcBin: buildPCWorker(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups) // row i: grp i%groups, val i
	for name, want := range map[string]func(g int64) int64{
		"minI64":   func(g int64) int64 { return g },
		"maxI64":   func(g int64) int64 { return n - groups + g },
		"countI64": func(int64) int64 { return n / groups },
	} {
		if err := c.CreateSet("db", name, "RecovRec"); err != nil {
			t.Fatal(err)
		}
		agg, err := agglib.New(c.Catalog.Registry(), name, "db", "rows", "RecovRec", "grp", "val")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Execute(core.NewWrite("db", name, agg)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := 0
		if err := c.ScanSet("db", name, func(r object.Ref) bool {
			g, v := object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))
			if v != want(g) {
				t.Errorf("%s: group %d = %d, want %d", name, g, v, want(g))
			}
			seen++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if seen != groups {
			t.Errorf("%s: %d result rows, want %d", name, seen, groups)
		}
	}
}

// TestProcClusterCheckpointsOff is the smoke job with consumer recovery
// disabled: the exchange is then not replayable, and the master's consumer
// relay must not rewind it (every such job used to fail with "Rewind on a
// non-replayable exchange").
func TestProcClusterCheckpointsOff(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups = 2000, 16
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: -1, DataDir: t.TempDir(), ProcBin: bin}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	rows, stats, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkIntSums(t, rows, n, groups)
	for _, s := range stats.Ships {
		if s.Checkpoints != 0 {
			t.Errorf("stage %d took %d checkpoints with recovery disabled", s.Stage, s.Checkpoints)
		}
	}
}

// TestProcClusterAggSmokeTCP is the same job over TCP control sockets.
func TestProcClusterAggSmokeTCP(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups = 1000, 8
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		DataDir: t.TempDir(), ProcBin: bin, Transport: "tcp"}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkIntSums(t, rows, n, groups)
}

// TestProcClusterKillRespawnRecovers SIGKILLs one worker process
// mid-stream (fault.ProcKill fires from the master's consumer relay).
// The scheduler must respawn the process, and the worker's durable cut
// plus the exchange's replay retention must land the retried merge on
// the correct sums.
func TestProcClusterKillRespawnRecovers(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups, interval = 4000, 16, 2
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, DataDir: t.TempDir(), ProcBin: bin}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 1, K: 0})
	rows, stats, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatalf("kill-respawn job failed: %v", err)
	}
	if c.Cfg.Fault.Fired() != 1 {
		t.Error("ProcKill never fired")
	}
	if stats.Retries == 0 {
		t.Error("no role retry absorbed the process death")
	}
	checkIntSums(t, rows, n, groups)
}

// TestProcClusterKillRestartResume is the cross-process resume
// acceptance test: a proc-mode cluster loses a worker process mid-merge
// with retries disabled, so the whole job fails — the stand-in for the
// master dying with it. Only the DataDir survives. A fresh cluster
// (fresh master, fresh worker processes) on the same DataDir re-executes
// the same job: the worker's hello carries its durable cut, the master
// fast-forwards the re-streamed shuffle past it, and the result must be
// bit-for-bit identical (order included) to a crash-free proc run.
func TestProcClusterKillRestartResume(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups, interval = 4000, 16, 2
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, MaxRetries: -1, ProcBin: bin}

	// Crash-free proc reference on its own DataDir.
	refCfg := base
	refCfg.DataDir = t.TempDir()
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	if err := ref.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	wantRows, _, err := runProcIntAgg(t, ref, refRec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRows) != groups {
		t.Fatalf("reference produced %d groups, want %d", len(wantRows), groups)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}

	// First life: the kill fires past a checkpoint, retries are disabled,
	// the job fails. The worker's durable cut must survive on its disk.
	dir := t.TempDir()
	cfg := base
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
	c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 1, K: 0})
	if _, err := c1.Execute(core.NewWrite("db", "sums", procSumAgg(t, c1))); err == nil {
		t.Fatal("killed job with retries disabled succeeded")
	}
	if c1.Cfg.Fault.Fired() != 1 {
		t.Fatal("the mid-stream kill never fired")
	}
	if len(resumeFiles(t, dir)) == 0 {
		t.Fatal("no durable worker cut survived the failed life")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: everything is new except the DataDir.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	gotRows, stats, err := runProcIntAgg(t, c2, rec2)
	if err != nil {
		t.Fatalf("re-executed job after restart: %v", err)
	}
	if stats.ConsumerResumes == 0 {
		t.Error("no consumer resumed from a worker's durable cut")
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("resumed run differs from crash-free run (%d vs %d rows)", len(gotRows), len(wantRows))
	}
	// Success drops the workers' durable recovery state.
	if files := resumeFiles(t, dir); len(files) != 0 {
		t.Errorf("worker resume metadata leaked past the resumed commit: %v", files)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestProcClusterRestartRefusesReloadedInput is the resume guard's input
// check: a proc-mode job dies past a durable cut exactly as in
// TestProcClusterKillRestartResume, and between the two lives its input is
// dropped and reloaded with twice the rows. The same program on the same
// cluster shape must not resume from cuts taken over the old rows: no
// consumer resumes, and the sums are the fresh ones over the new input.
func TestProcClusterRestartRefusesReloadedInput(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups, interval = 4000, 16, 2
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: interval, MaxRetries: -1, ProcBin: bin, DataDir: t.TempDir()}
	c1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec1 := intRecType(c1)
	loadIntRows(t, c1, rec1, "db", "rows", n, groups)
	if err := c1.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 1, K: 0})
	if _, err := c1.Execute(core.NewWrite("db", "sums", procSumAgg(t, c1))); err == nil {
		t.Fatal("killed job with retries disabled succeeded")
	}
	if len(resumeFiles(t, cfg.DataDir)) == 0 {
		t.Fatal("no durable worker cut survived the failed life")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	rec2 := intRecType(c2)
	if err := c2.DropSet("db", "rows"); err != nil {
		t.Fatal(err)
	}
	loadIntRows(t, c2, rec2, "db", "rows", 2*n, groups)
	rows, stats, err := runProcIntAgg(t, c2, rec2)
	if err != nil {
		t.Fatalf("job over the reloaded input: %v", err)
	}
	if stats.ConsumerResumes != 0 {
		t.Errorf("%d consumers resumed from cuts taken over the old input", stats.ConsumerResumes)
	}
	checkIntSums(t, rows, 2*n, groups)
	if files := resumeFiles(t, cfg.DataDir); len(files) != 0 {
		t.Errorf("worker resume metadata leaked past the commit: %v", files)
	}
}
