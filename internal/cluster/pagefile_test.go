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
	// openLabelled loads both sets under label: "" ships them round-robin,
	// so db.one is a single page and worker 1 holds none of it; any other
	// label places both by their grp key.
	openLabelled := func(t *testing.T, cfg Config, label string) (*Cluster, *object.TypeInfo) {
		t.Helper()
		cfg.Workers, cfg.Threads, cfg.PageSize, cfg.DataDir = 2, 1, 1<<12, t.TempDir()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		rec := intRecType(c)
		loadIntRowsKeyed(t, c, rec, "db", "rows", 300, 10, 0, label)
		loadIntRowsKeyed(t, c, rec, "db", "one", 5, 5, 0, label)
		if n, err := c.CountSet("db", "rows"); n != 300 || err != nil {
			t.Fatalf("intact set counts (%d, %v), want (300, nil)", n, err)
		}
		if n, err := c.CountSet("db", "one"); n != 5 || err != nil {
			t.Fatalf("db.one counts (%d, %v), want (5, nil)", n, err)
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
	open := func(t *testing.T, cfg Config) (*Cluster, *object.TypeInfo) {
		t.Helper()
		return openLabelled(t, cfg, "")
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
	t.Run("HashPartitionJoinKind shuffled and co-partitioned", func(t *testing.T) {
		for _, label := range []string{"", "grp"} {
			c, rec := openLabelled(t, Config{}, label)
			key, eq := joinKeyOn(rec), joinEqOn(rec)
			emit := func(int, object.Ref, object.Ref) error { return nil }
			stats, err := c.HashPartitionJoinKind(core.JoinInner, "db", "rows", "db", "one", key, key, eq, emit)
			damaged(t, "a join probing the damaged set, label "+label, err)
			if stats.Retries != 0 {
				t.Errorf("label %q: %d crash retries spent on a storage error", label, stats.Retries)
			}
			_, err = c.HashPartitionJoinKind(core.JoinInner, "db", "one", "db", "rows", key, key, eq, emit)
			damaged(t, "a join building from the damaged set, label "+label, err)
		}
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
