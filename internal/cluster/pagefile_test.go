package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
)

// TestDamagedPageFileFailsTheJob is the regression test for the silent wrong
// answer: one stored page file truncated to 5 bytes used to read as "this
// worker holds no pages of the set" at every site that loads stored pages,
// so a selection wrote 0 of 300 rows and returned nil, CountSet returned
// (0, nil), and a join lost a worker's share. Every one must now fail
// with the storage error — without burning crash retries, it is no crash —
// while a worker that simply holds no pages of a set stays an empty
// partition.
func TestDamagedPageFileFailsTheJob(t *testing.T) {
	open := func(t *testing.T, cfg Config) (*Cluster, *object.TypeInfo) {
		t.Helper()
		cfg.Workers, cfg.Threads, cfg.PageSize, cfg.DataDir = 2, 1, 1<<12, t.TempDir()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 300, 10)
		loadIntRows(t, c, rec, "db", "one", 5, 5) // a single page: worker 1 holds none
		if n, err := c.CountSet("db", "rows"); n != 300 || err != nil {
			t.Fatalf("intact set counts (%d, %v), want (300, nil)", n, err)
		}
		if n, err := c.CountSet("db", "one"); n != 5 || err != nil {
			t.Fatalf("set with no pages on worker 1 counts (%d, %v), want (5, nil)", n, err)
		}
		files, err := filepath.Glob(filepath.Join(cfg.DataDir, "worker-0", "db", "rows", "page-*.pcp"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no page files of db.rows on worker 0 (%v)", err)
		}
		if err := os.Truncate(files[0], 5); err != nil {
			t.Fatal(err)
		}
		return c, rec
	}
	damaged := func(t *testing.T, what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "corrupt page") {
			t.Errorf("%s over a truncated page file = %v, want the storage server's corrupt-page error", what, err)
		}
	}

	t.Run("ScanSet and CountSet", func(t *testing.T) {
		c, _ := open(t, Config{})
		n, err := c.CountSet("db", "rows")
		damaged(t, "CountSet", err)
		if n == 300 {
			t.Error("CountSet still counted every row")
		}
	})
	t.Run("Execute", func(t *testing.T) {
		c, rec := open(t, Config{})
		sel := &core.Selection{
			In:      core.NewScan("db", "rows", "RecovRec"),
			ArgType: "RecovRec",
			Predicate: func(arg *lambda.Arg) lambda.Term {
				return lambda.Ge(lambda.FromMember(arg, "val"), lambda.ConstI64(0))
			},
		}
		if err := c.CreateSet("db", "copy", "RecovRec"); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Execute(core.NewWrite("db", "copy", sel))
		damaged(t, "a selection", err)
		if stats != nil && stats.Retries != 0 {
			t.Errorf("%d crash retries spent on a storage error", stats.Retries)
		}
		// The streaming producer reads its source through the same helper.
		err = writeIntAgg(t, c, rec)
		damaged(t, "an aggregation", err)
	})
	t.Run("HashPartitionJoinKind and CoPartitionedJoin", func(t *testing.T) {
		c, rec := open(t, Config{})
		key, eq := joinKeyOn(rec), joinEqOn(rec)
		emit := func(int, object.Ref, object.Ref) error { return nil }
		_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "rows", "db", "one", key, key, eq, emit)
		damaged(t, "a join probing the damaged set", err)
		_, err = c.HashPartitionJoinKind(core.JoinInner, "db", "one", "db", "rows", key, key, eq, emit)
		damaged(t, "a join building from the damaged set", err)
		// Mark both sets co-partitioned by hand: the page read is what is
		// under test, not the placement.
		c.Catalog.SetPartitionKey("db", "rows", "grp")
		c.Catalog.SetPartitionKey("db", "one", "grp")
		_, err = c.CoPartitionedJoin("db", "rows", "db", "one", key, key, eq, emit)
		damaged(t, "a co-partitioned join probing the damaged set", err)
		_, err = c.CoPartitionedJoin("db", "one", "db", "rows", key, key, eq, emit)
		damaged(t, "a co-partitioned join building from the damaged set", err)
	})
	t.Run("pcworker produce session", func(t *testing.T) {
		c, rec := open(t, Config{ProcBin: buildPCWorker(t)})
		if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
			t.Fatal(err)
		}
		_, _, err := runProcIntAgg(t, c, rec)
		damaged(t, "a proc-mode aggregation", err)
		// The session reports the error; nothing crashed.
		for _, pw := range c.procs.workers {
			if !pw.alive() {
				t.Errorf("worker %d process died over a storage error", pw.id)
			}
		}
	})
}
