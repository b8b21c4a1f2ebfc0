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

// TestProcClusterCheckpointsOff is the smoke job with the deprecated
// CheckpointInterval set negative — an ignored setting: the sums are exact
// and no checkpoint is counted.
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
	rows, _, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatal(err)
	}
	checkIntSums(t, rows, n, groups)
	if n := c.Transport.Stats().Checkpoints; n != 0 {
		t.Errorf("the cluster counted %d checkpoints", n)
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

// TestProcClusterKillRespawnRecovers kills one worker process mid-merge
// (fault.ProcKill, shipped in the consume request: the worker exits hard on
// its second delivered page). The scheduler must respawn the process, and
// the exchange's replay retention must land the retried merge, replayed
// from page 0, on result rows bit-for-bit identical to a crash-free run.
func TestProcClusterKillRespawnRecovers(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups = 4000, 16
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		DataDir: t.TempDir(), ProcBin: bin}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	if err := ref.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	wantRows, _, err := runProcIntAgg(t, ref, refRec)
	if err != nil {
		t.Fatal(err)
	}

	cfg.DataDir = t.TempDir()
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
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 1, K: 1})
	rows, stats, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatalf("kill-respawn job failed: %v", err)
	}
	if c.Cfg.Fault.Fired() != 1 {
		t.Error("ProcKill never fired")
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want the one process death", stats.ConsumerRecoveries)
	}
	checkIntSums(t, rows, n, groups)
	if !equalRows(rows, wantRows) {
		t.Errorf("recovered run differs from crash-free run (%d vs %d rows)", len(rows), len(wantRows))
	}
}

// TestProcClusterKillRestartResume is the restart test: a proc-mode
// cluster loses a worker process mid-merge once more than the retry budget
// absorbs, so the whole job fails — the stand-in for the master dying with
// it. Only the DataDir survives, holding no recovery state. A fresh cluster
// (fresh master, fresh worker processes) on the same DataDir re-runs the
// job from its start: over the same input the result must be bit-for-bit
// identical (order included) to a crash-free proc run, and over an input
// dropped and reloaded with twice the rows it must be the new input's
// sums. Either way no _ckpt set or resume file is ever written.
func TestProcClusterKillRestartResume(t *testing.T) {
	bin := buildPCWorker(t)
	const n, groups = 4000, 16
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, ProcBin: bin}

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

	for _, reload := range []bool{false, true} {
		name := map[bool]string{false: "same input", true: "reloaded input"}[reload]
		t.Run(name, func(t *testing.T) {
			// First life: the kill fires mid-merge, and again mid-replay,
			// exhausting the budget: the job fails.
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
			c1.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 1, K: 1},
				fault.Injection{Site: fault.ProcKill, Worker: 1, K: 1})
			if _, err := c1.Execute(core.NewWrite("db", "sums", procSumAgg(t, c1))); err == nil {
				t.Fatal("job killed past its retry budget succeeded")
			}
			if c1.Cfg.Fault.Fired() != 2 {
				t.Fatal("the mid-merge kills did not both fire")
			}
			assertNoRecoveryFiles(t, dir)
			if err := c1.Close(); err != nil {
				t.Fatal(err)
			}

			// Second life: everything is new except the DataDir.
			c2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			rec2 := intRecType(c2)
			rows := n
			if reload {
				if err := c2.DropSet("db", "rows"); err != nil {
					t.Fatal(err)
				}
				rows = 2 * n
				loadIntRows(t, c2, rec2, "db", "rows", rows, groups)
			}
			gotRows, _, err := runProcIntAgg(t, c2, rec2)
			if err != nil {
				t.Fatalf("re-executed job after restart: %v", err)
			}
			checkIntSums(t, gotRows, rows, groups)
			if !reload && !equalRows(gotRows, wantRows) {
				t.Errorf("re-run differs from crash-free run (%d vs %d rows)", len(gotRows), len(wantRows))
			}
			assertNoRecoveryFiles(t, dir)
		})
	}
}
