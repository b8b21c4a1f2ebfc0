package cluster

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agglib"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/lambda"
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
		return nil, stats, err
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
	ran := incarnations(t, c)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	for i, in := range ran {
		if in.alive() {
			t.Errorf("worker %d process survived Close", i)
		}
	}
}

// incarnations returns every worker's running pcworker process, spawning
// any not yet running.
func incarnations(t *testing.T, c *Cluster) []*incarnation {
	t.Helper()
	var ins []*incarnation
	for _, pw := range c.procs.workers {
		in, err := pw.revive()
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, in)
	}
	return ins
}

// procRejects runs job, a proc-mode job the worker processes reject with
// their own error reports, and returns its error. A report is no crash: the
// job must spend no retry, leave every worker the process it was, and
// return at once — in under a second, with no liveness grace to wait out.
func procRejects(t *testing.T, c *Cluster, job func() (*ExecStats, error)) error {
	t.Helper()
	before := incarnations(t, c)
	start := time.Now()
	stats, err := job()
	if took := time.Since(start); took >= time.Second {
		t.Errorf("rejected job took %v, want under 1 s", took)
	}
	if stats == nil || stats.Retries != 0 {
		t.Errorf("rejected job's stats %v, want zero retries", stats)
	}
	for i, pw := range c.procs.workers {
		if pw.in != before[i] || !before[i].alive() {
			t.Errorf("worker %d process was lost or respawned over a rejected job", i)
		}
	}
	return err
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

// orderByRows sorts db.in into a new db.out — grp descending when desc,
// ascending otherwise, then val ascending (member keys, which ship), keeping
// the first limit rows when limit > 0 — and returns the output rows "g|v"
// in scan order, the sorted sequence.
func orderByRows(c *Cluster, rec *object.TypeInfo, in, out string, desc bool, limit int) ([]string, *ExecStats, error) {
	keys := intSortKeys()
	keys[0].Desc = desc
	if err := c.CreateSet("db", out, rec.Name); err != nil {
		return nil, nil, err
	}
	stats, err := c.Execute(core.NewWrite("db", out, &core.OrderBy{
		In: core.NewScan("db", in, rec.Name), ArgType: rec.Name, Keys: keys, Limit: limit}))
	if err != nil {
		return nil, stats, err
	}
	var rows []string
	err = c.ScanSet("db", out, func(r object.Ref) bool {
		rows = append(rows, fmt.Sprintf("%d|%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
		return true
	})
	return rows, stats, err
}

// TestProcClusterOrderBy ships ORDER BY to pcworker processes: the sort
// runs through the aggregation's sessions, relays and exchange, with worker
// 0's process merging every run. Ascending, descending with a top-k limit,
// and a job whose input lies on worker 0 alone (worker 1 streams only its
// close markers) each give the row sequence an in-memory cluster of the
// same shape gives. On the same clusters a filtered aggregation
// (filteredSums), whose FILTER each worker fuses with the member reads
// around it, leaves on every worker the rows the in-memory cluster leaves
// there.
func TestProcClusterOrderBy(t *testing.T) {
	bin := buildPCWorker(t)
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			shape := Config{Workers: 2, Threads: threads, PageSize: 1 << 12}
			mk := func(cfg Config) (*Cluster, *object.TypeInfo) {
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				rec := intRecType(c)
				loadIntRows(t, c, rec, "db", "rows", 2500, 13)
				loadIntRows(t, c, rec, "db", "few", 40, 7) // one page: worker 1 holds none
				return c, rec
			}
			ref, refRec := mk(shape)
			cfg := shape
			cfg.DataDir, cfg.ProcBin = t.TempDir(), bin
			c, rec := mk(cfg)
			for _, job := range []struct {
				in, out string
				desc    bool
				limit   int
			}{
				{"rows", "asc", false, 0},
				{"rows", "desctop", true, 25},
				{"few", "oneworker", false, 0},
			} {
				want, _, err := orderByRows(ref, refRec, job.in, job.out, job.desc, job.limit)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := orderByRows(c, rec, job.in, job.out, job.desc, job.limit)
				if err != nil {
					t.Fatalf("%s: %v", job.out, err)
				}
				if len(want) == 0 || !equalRows(got, want) {
					t.Errorf("%s: proc mode sorted %d rows, in-memory %d, or their order differs", job.out, len(got), len(want))
				}
			}
			want, got := filteredSums(t, ref, refRec), filteredSums(t, c, rec)
			for w := range want {
				if len(want[w]) == 0 || !equalRows(got[w], want[w]) {
					t.Errorf("filtered sums, worker %d: proc mode stored %d rows, in-memory %d, or they differ", w, len(got[w]), len(want[w]))
				}
			}
		})
	}
}

// filteredSums runs grp→sum(val) over the rows of db.rows whose val exceeds
// a constant — a Selection the workers rebuild from the TCAP text, feeding
// the named agglib family — into a new db.fsums, and returns each worker's
// stored rows "g=s" in scan order.
func filteredSums(t *testing.T, c *Cluster, rec *object.TypeInfo) [][]string {
	t.Helper()
	agg, err := agglib.SumI64(c.Catalog.Registry(), "db", "rows", rec.Name, "grp", "val")
	if err != nil {
		t.Fatal(err)
	}
	agg.In = &core.Selection{In: agg.In, ArgType: rec.Name,
		Predicate: func(r *lambda.Arg) lambda.Term { return lambda.Gt(lambda.FromMember(r, "val"), lambda.ConstI64(700)) }}
	if err := c.CreateSet("db", "fsums", rec.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Execute(core.NewWrite("db", "fsums", agg)); err != nil {
		t.Fatal(err)
	}
	rows := make([][]string, len(c.Workers))
	for i, w := range c.Workers {
		pages, err := storedPages(w.Front.Store, "db", "fsums")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			if p.Root() == 0 {
				continue
			}
			root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
			for j := 0; j < root.Len(); j++ {
				r := root.HandleAt(j)
				rows[i] = append(rows[i], fmt.Sprintf("%d=%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
			}
		}
	}
	return rows
}

// loadIntRowsOnEveryWorker stores the same n (i%groups, i) rows on every
// worker, so every worker's sort runs take the same number of pages.
func loadIntRowsOnEveryWorker(t *testing.T, c *Cluster, rec *object.TypeInfo, n, groups int) {
	t.Helper()
	if err := c.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSet("db", "rows", rec.Name); err != nil {
		t.Fatal(err)
	}
	pages, err := object.BuildPages(c.Catalog.Registry(), 1<<12, n, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, rec.Field("grp"), int64(i%groups))
		object.SetI64(r, rec.Field("val"), int64(i))
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workers {
		for _, p := range pages {
			if err := c.storePage(w, "db", "rows", p, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestProcClusterKillMidSortMerge kills the sort's merging process, worker
// 0, midway through the runs of worker 1 (fault.ProcKill, shipped in the
// consume request) — after worker 0's own produce session has ended, so the
// one death costs one retry. The scheduler must respawn the process, and
// the retried consume session, replayed from page 0 out of the exchange's
// retention, must return the rows of a crash-free run.
func TestProcClusterKillMidSortMerge(t *testing.T) {
	const n, groups = 3000, 13
	shape := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(shape)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRowsOnEveryWorker(t, ref, refRec, n, groups)
	want, refStats, err := orderByRows(ref, refRec, "rows", "sorted", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	// In memory only worker 1's run pages cross the transport, and every
	// worker's runs take as many pages.
	runPages := 0
	for _, s := range refStats.Ships {
		runPages += s.Pages
	}
	if runPages < 4 {
		t.Fatalf("worker 1 streams %d run pages, want at least 4", runPages)
	}

	cfg := shape
	cfg.DataDir, cfg.ProcBin = t.TempDir(), buildPCWorker(t)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRowsOnEveryWorker(t, c, rec, n, groups)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.ProcKill, Worker: 0, K: runPages + runPages/2})
	got, stats, err := orderByRows(c, rec, "rows", "sorted", false, 0)
	if err != nil {
		t.Fatalf("kill-respawn sort failed: %v", err)
	}
	if c.Cfg.Fault.Fired() != 1 {
		t.Error("ProcKill never fired")
	}
	if stats.Retries != 1 || stats.ConsumerRecoveries != 1 {
		t.Errorf("retries %d, consumer recoveries %d, want the one process death in each", stats.Retries, stats.ConsumerRecoveries)
	}
	if !equalRows(got, want) {
		t.Errorf("recovered sort differs from crash-free run (%d vs %d rows)", len(got), len(want))
	}
}

// TestProcClusterRejectsUnshippable runs a window and a DISTINCT job in
// proc mode: their closures cannot cross the process boundary, so each
// fails with core.Rebuild's "not shippable" error, at once, with no retry
// and no respawn (procRejects). The cluster stays usable: the aggregation
// smoke job then runs on the same processes.
func TestProcClusterRejectsUnshippable(t *testing.T) {
	const n, groups = 2000, 16
	c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		DataDir: t.TempDir(), ProcBin: buildPCWorker(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	window, err := intSortComp(rec, "window")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []string{"win", "dist"} {
		if err := c.CreateSet("db", set, rec.Name); err != nil {
			t.Fatal(err)
		}
	}
	err = procRejects(t, c, func() (*ExecStats, error) { return c.Execute(core.NewWrite("db", "win", window)) })
	if err == nil || !strings.Contains(err.Error(), "not shippable") {
		t.Errorf("window job: err = %v, want \"not shippable\"", err)
	}
	distinct := core.NewWrite("db", "dist", &core.Distinct{
		In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, KeyKind: object.KInt64,
		Key: func(e *lambda.Arg) lambda.Term { return lambda.FromMember(e, "grp") },
		Make: func(a *object.Allocator, key object.Value) (object.Ref, error) {
			r, err := a.MakeObject(rec)
			if err == nil {
				object.SetI64(r, rec.Field("grp"), key.AsInt64())
			}
			return r, err
		}})
	err = procRejects(t, c, func() (*ExecStats, error) { return c.Execute(distinct) })
	if err == nil || !strings.Contains(err.Error(), "not shippable") {
		t.Errorf("DISTINCT job: err = %v, want \"not shippable\"", err)
	}
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		t.Fatal(err)
	}
	rows, _, err := runProcIntAgg(t, c, rec)
	if err != nil {
		t.Fatalf("aggregation after the rejected jobs: %v", err)
	}
	checkIntSums(t, rows, n, groups)
}

// TestProcClusterHashPartitionJoin pins what the closure join does in proc
// mode: HashPartitionJoinKind's roles have no pcworker session, so they run
// on the master's in-process backends over the workers' DataDir stores.
// Every worker emits the pairs an in-memory cluster of the same shape emits
// there, in the same order, and no worker process is spawned.
func TestProcClusterHashPartitionJoin(t *testing.T) {
	bin := buildPCWorker(t)
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			shape := Config{Workers: 2, Threads: threads, PageSize: 1 << 12}
			join := func(cfg Config) (*Cluster, [][]string) {
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				rec := intRecType(c)
				loadIntRows(t, c, rec, "db", "left", 600, 30)
				loadIntRows(t, c, rec, "db", "right", 90, 30)
				pairs := make([][]string, len(c.Workers))
				_, err = c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right",
					joinKeyOn(rec), joinKeyOn(rec), joinEqOn(rec), func(w int, l, r object.Ref) error {
						pairs[w] = append(pairs[w], joinPairString(rec, l, r))
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
				return c, pairs
			}
			_, want := join(shape)
			cfg := shape
			cfg.DataDir, cfg.ProcBin = t.TempDir(), bin
			c, got := join(cfg)
			if n := len(want[0]) + len(want[1]); n != 1800 {
				t.Fatalf("in-memory join emitted %d pairs, want 1800", n)
			}
			for w := range want {
				if !equalRows(got[w], want[w]) {
					t.Errorf("worker %d: proc mode emitted %d pairs, in-memory %d, or their order differs", w, len(got[w]), len(want[w]))
				}
			}
			for i, pw := range c.procs.workers {
				if pw.in != nil {
					t.Errorf("worker %d: the join spawned a pcworker process", i)
				}
			}
		})
	}
}
