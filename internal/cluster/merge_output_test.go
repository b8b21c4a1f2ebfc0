package cluster

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
)

// The two plan shapes of a merge's output list (physical.Build): a list
// whose only consumer is an OUTPUT is finalized straight into that set by
// the merge stage — one exchange step of two stages, no "mat:" list and no
// OUTPUT pipeline — and a list with any other consumer keeps its "mat:"
// list and one pipeline per consumer.

// grpValRows reads db.set's (grp, val) rows "g=v" in scan order.
func grpValRows(t *testing.T, c *Cluster, rec *object.TypeInfo, set string) []string {
	t.Helper()
	var rows []string
	if err := c.ScanSet("db", set, func(r object.Ref) bool {
		rows = append(rows, fmt.Sprintf("%d=%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func checkStages(t *testing.T, job string, stats *ExecStats, want int) {
	t.Helper()
	if stats.Stages != want {
		t.Errorf("%s: %d stages, want %d", job, stats.Stages, want)
	}
}

// TestMergeWritesOutputSet runs every merge-ended operator — aggregation,
// DISTINCT, ORDER BY, top-k and window — written straight to a set as two
// stages, with the rows the baseline gives, and an aggregate that a second
// OUTPUT also reads as four (the pre-aggregation, the merge into its "mat:"
// list, and one OUTPUT pipeline per set), each set holding the rows the
// two-stage job stores, in the same order. In proc mode the shippable ones
// — a named aggregation family, ORDER BY and top-k on member keys (a
// DISTINCT or a window is not shippable) — run the same plans against
// pcworker processes and store the rows an in-memory cluster stores.
func TestMergeWritesOutputSet(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		left, right := matCorpus("random")
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 13})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		reg := c.Catalog.Registry()
		ti := matType(reg)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateSet("db", "left", "MatRow"); err != nil {
			t.Fatal(err)
		}
		pages, err := object.BuildPages(reg, 1<<13, len(left), matFill(ti, left))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SendData("db", "left", pages); err != nil {
			t.Fatal(err)
		}
		for _, op := range matOps {
			if op.name == "semi" || op.name == "anti" {
				continue // a join ends at no merge
			}
			set := "out_" + op.name
			if err := c.CreateSet("db", set, "MatRow"); err != nil {
				t.Fatal(err)
			}
			stats, err := c.Execute(matWrite(op.name, ti, set))
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			checkStages(t, op.name, stats, 2)
			matCompare(t, op, "memory", matStoredRows(t, c, ti, set), matBaselineRun(t, op.name, left, right))
		}

		agg := matWrite("agg", ti, "").In
		for _, set := range []string{"twice_a", "twice_b"} {
			if err := c.CreateSet("db", set, "MatRow"); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := c.Execute(core.NewWrite("db", "twice_a", agg), core.NewWrite("db", "twice_b", agg))
		if err != nil {
			t.Fatal(err)
		}
		checkStages(t, "agg read twice", stats, 4)
		want := matStoredRows(t, c, ti, "out_agg")
		for _, set := range []string{"twice_a", "twice_b"} {
			matCompare(t, matOp{"agg", matExact, canonKV}, set, matStoredRows(t, c, ti, set), want)
		}
	})

	t.Run("proc", func(t *testing.T) {
		bin := buildPCWorker(t)
		shape := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
		procCfg := shape
		procCfg.DataDir, procCfg.ProcBin = t.TempDir(), bin
		var got [2]map[string][]string
		for i, cfg := range []Config{shape, procCfg} {
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rec := intRecType(c)
			loadIntRows(t, c, rec, "db", "rows", 2500, 13)
			rows := map[string][]string{}
			for _, set := range []string{"sums", "twice_a", "twice_b"} {
				if err := c.CreateSet("db", set, rec.Name); err != nil {
					t.Fatal(err)
				}
			}
			stats, err := c.Execute(core.NewWrite("db", "sums", procSumAgg(t, c)))
			if err != nil {
				t.Fatal(err)
			}
			checkStages(t, "proc agg", stats, 2)
			rows["sums"] = grpValRows(t, c, rec, "sums")
			for _, job := range []struct {
				out   string
				desc  bool
				limit int
			}{{"asc", false, 0}, {"top", true, 25}} {
				sorted, stats, err := orderByRows(c, rec, "rows", job.out, job.desc, job.limit)
				if err != nil {
					t.Fatalf("%s: %v", job.out, err)
				}
				checkStages(t, job.out, stats, 2)
				rows[job.out] = sorted
			}
			agg := procSumAgg(t, c)
			stats, err = c.Execute(core.NewWrite("db", "twice_a", agg), core.NewWrite("db", "twice_b", agg))
			if err != nil {
				t.Fatal(err)
			}
			checkStages(t, "proc agg read twice", stats, 4)
			for _, set := range []string{"twice_a", "twice_b"} {
				rows[set] = grpValRows(t, c, rec, set)
				if !equalRows(rows[set], rows["sums"]) {
					t.Errorf("%s: %d rows differ from the two-stage job's %d", set, len(rows[set]), len(rows["sums"]))
				}
			}
			got[i] = rows
		}
		for set, want := range got[0] {
			if len(want) == 0 || !equalRows(got[1][set], want) {
				t.Errorf("%s: proc mode stored %d rows, in-memory %d, or they differ", set, len(got[1][set]), len(want))
			}
		}
	})
}

// TestMergeOutputStoresNoEmptyPage aggregates into fewer groups than
// Threads — one group, which leaves a worker's partition empty, and three:
// no stored page of the set may be empty, and no worker stores more pages
// than the one an OUTPUT pipeline would have written for a result under
// engine.BatchSize rows. The catalog counts what is stored.
func TestMergeOutputStoresNoEmptyPage(t *testing.T) {
	const n = 600
	for _, groups := range []int{1, 3} {
		c, err := New(Config{Workers: 2, Threads: 4, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", n, groups)
		if err := c.CreateSet("db", "sums", rec.Name); err != nil {
			t.Fatal(err)
		}
		rows, _, err := runProcIntAgg(t, c, rec)
		if err != nil {
			t.Fatal(err)
		}
		checkIntSums(t, rows, n, groups)
		for i, w := range c.Workers {
			pages, err := storedPages(w.Front.Store, "db", "sums")
			if err != nil {
				t.Fatal(err)
			}
			if len(pages) > 1 {
				t.Errorf("%d groups: worker %d stores %d pages, want at most 1", groups, i, len(pages))
			}
			for j, p := range pages {
				if engine.CountObjects([]*object.Page{p}) == 0 {
					t.Errorf("%d groups: worker %d stores empty page %d", groups, i, j)
				}
			}
		}
		checkSetCounts(t, c, "sums")
	}
}

// checkSetCounts fails unless the catalog's page and byte counts of db.set
// are those of the pages the workers store.
func checkSetCounts(t *testing.T, c *Cluster, set string) {
	t.Helper()
	var pages int
	var bytes int64
	for _, w := range c.Workers {
		stored, err := storedPages(w.Front.Store, "db", set)
		if err != nil {
			t.Fatal(err)
		}
		pages += len(stored)
		for _, p := range stored {
			bytes += int64(p.Used())
		}
	}
	sm, err := c.Catalog.LookupSet("db", set)
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 || sm.PageCount != pages || sm.ByteCount != bytes {
		t.Errorf("%s: catalog counts %d pages, %d bytes; workers store %d pages, %d bytes",
			set, sm.PageCount, sm.ByteCount, pages, bytes)
	}
}

// TestMergeOutputSurvivesRestart writes a two-stage aggregation and ORDER
// BY on a DataDir cluster, in-process and in proc mode, closes it and
// reopens the directory: both sets read back the same rows, and before and
// after the restart the catalog counts the pages and bytes stored.
func TestMergeOutputSurvivesRestart(t *testing.T) {
	for _, mode := range []string{"in-process", "proc"} {
		t.Run(mode, func(t *testing.T) {
			cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, DataDir: t.TempDir()}
			if mode == "proc" {
				cfg.ProcBin = buildPCWorker(t)
			}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := intRecType(c)
			loadIntRows(t, c, rec, "db", "rows", 2500, 13)
			if err := c.CreateSet("db", "sums", rec.Name); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Execute(core.NewWrite("db", "sums", procSumAgg(t, c))); err != nil {
				t.Fatal(err)
			}
			if _, _, err := orderByRows(c, rec, "rows", "sorted", false, 0); err != nil {
				t.Fatal(err)
			}
			want := map[string][]string{}
			for _, set := range []string{"sums", "sorted"} {
				want[set] = grpValRows(t, c, rec, set)
				checkSetCounts(t, c, set)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			c, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			rec = intRecType(c) // binds the restored sets' type code
			for set, rows := range want {
				if got := grpValRows(t, c, rec, set); len(rows) == 0 || !equalRows(got, rows) {
					t.Errorf("%s: reopened set reads %d rows, %d before, or they differ", set, len(got), len(rows))
				}
				checkSetCounts(t, c, set)
			}
		})
	}
}
