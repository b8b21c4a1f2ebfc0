package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/lambda"
	"repro/internal/object"
)

// partitionFixture loads two sets pre-partitioned on the dept key.
func partitionFixture(t *testing.T, nLeft, nRight int) (*Cluster, *object.TypeInfo, func(object.Ref) uint64) {
	t.Helper()
	c, emp := testCluster(t, 0) // schema only; we load our own sets
	deptField := emp.Field("dept")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	load := func(set string, n int) {
		if err := c.CreateSet("db", set, "Emp"); err != nil {
			t.Fatal(err)
		}
		pages := buildEmpPages(t, c, emp, n)
		if err := c.SendDataPartitioned("db", set, pages, "dept", key); err != nil {
			t.Fatal(err)
		}
	}
	load("left", nLeft)
	load("right", nRight)
	return c, emp, key
}

func buildEmpPages(t *testing.T, c *Cluster, emp *object.TypeInfo, n int) []*object.Page {
	t.Helper()
	reg := c.Catalog.Registry()
	pages, err := object.BuildPages(reg, 1<<16, n, func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		object.SetF64(e, emp.Field("salary"), float64(i))
		if err := object.SetStrField(a, e, emp.Field("name"), "x"); err != nil {
			return object.NilRef, err
		}
		return e, object.SetStrField(a, e, emp.Field("dept"), string(rune('a'+i%7)))
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

func TestSendDataPartitionedPlacesByKey(t *testing.T) {
	c, emp, key := partitionFixture(t, 700, 0)
	_ = key
	count, err := c.CountSet("db", "left")
	if err != nil {
		t.Fatal(err)
	}
	if count != 700 {
		t.Fatalf("partitioned load count = %d, want 700", count)
	}
	// Every object must sit on the worker owning its key's partition.
	deptField := emp.Field("dept")
	nw := uint64(len(c.Workers))
	for wi, w := range c.Workers {
		pages, err := w.Front.Store.Pages("db", "left")
		if err != nil {
			continue
		}
		for _, p := range pages {
			if p.Root() == 0 {
				continue
			}
			root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
			for i := 0; i < root.Len(); i++ {
				r := root.HandleAt(i)
				h := object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
				if int(h%nw) != wi {
					t.Fatalf("object with dept %q landed on worker %d, owns partition %d",
						object.GetStrField(r, deptField), wi, h%nw)
				}
			}
		}
	}
	// The catalog remembers the partition key.
	meta, err := c.Catalog.LookupSet("db", "left")
	if err != nil {
		t.Fatal(err)
	}
	if meta.PartitionKey != "dept" {
		t.Errorf("PartitionKey = %q, want dept", meta.PartitionKey)
	}
}

// TestSendDataPartitionedSkipsEmptyPartitions loads rows that all share
// one key: only the worker owning that key stores pages, every other
// worker's partition is a root vector with no elements and is not stored,
// and the set still counts every row.
func TestSendDataPartitionedSkipsEmptyPartitions(t *testing.T) {
	c, emp := testCluster(t, 0)
	if err := c.CreateSet("db", "one", "Emp"); err != nil {
		t.Fatal(err)
	}
	const n = 3000
	pages, err := object.BuildPages(c.Catalog.Registry(), 1<<16, n, func(a *object.Allocator, i int) (object.Ref, error) {
		e, err := a.MakeObject(emp)
		if err != nil {
			return object.NilRef, err
		}
		object.SetF64(e, emp.Field("salary"), float64(i))
		return e, object.SetStrField(a, e, emp.Field("dept"), "a")
	})
	if err != nil {
		t.Fatal(err)
	}
	deptField := emp.Field("dept")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	if err := c.SendDataPartitioned("db", "one", pages, "dept", key); err != nil {
		t.Fatal(err)
	}
	owner := engine.PartitionOf(object.HashValue(object.StringValue("a")), len(c.Workers))
	for wi, w := range c.Workers {
		stored, err := storedPages(w.Front.Store, "db", "one")
		if err != nil {
			t.Fatal(err)
		}
		if wi == owner && len(stored) < 2 {
			t.Errorf("owner worker %d stores %d pages, want the rows on at least 2", wi, len(stored))
		}
		if wi != owner && len(stored) != 0 {
			t.Errorf("worker %d owns no rows but stores %d pages", wi, len(stored))
		}
	}
	if count, err := c.CountSet("db", "one"); err != nil || count != n {
		t.Fatalf("CountSet = %d, %v; want %d", count, err, n)
	}
}

// empJoinPairs inner-joins db.setL ⋈ db.setR of the Emp fixture on dept and
// returns the sorted "lsalary|rsalary" pairs and the bytes the join shipped.
func empJoinPairs(t *testing.T, c *Cluster, emp *object.TypeInfo, setL, setR string) ([]string, int64) {
	t.Helper()
	deptField, salField := emp.Field("dept"), emp.Field("salary")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
	}
	var mu sync.Mutex
	var pairs []string
	shippedBefore := c.Transport.Stats().BytesShipped
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", setL, "db", setR, key, key, eq,
		func(workerID int, l, r object.Ref) error {
			mu.Lock()
			pairs = append(pairs, fmt.Sprintf("%v|%v", object.GetF64(l, salField), object.GetF64(r, salField)))
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(pairs)
	return pairs, c.Transport.Stats().BytesShipped - shippedBefore
}

// TestCoPartitionedJoinMatchesShuffledJoin joins two sets labelled
// co-partitioned and the same rows loaded round-robin: the labelled join
// ships nothing (the §8.3.3 payoff) and finds exactly the shuffled join's
// pairs.
func TestCoPartitionedJoinMatchesShuffledJoin(t *testing.T) {
	c, emp, _ := partitionFixture(t, 280, 140)
	for set, n := range map[string]int{"rrleft": 280, "rrright": 140} {
		if err := c.CreateSet("db", set, "Emp"); err != nil {
			t.Fatal(err)
		}
		if err := c.SendData("db", set, buildEmpPages(t, c, emp, n)); err != nil {
			t.Fatal(err)
		}
	}
	co, coShipped := empJoinPairs(t, c, emp, "left", "right")
	if coShipped != 0 {
		t.Errorf("co-partitioned join shipped %d bytes, want 0", coShipped)
	}
	shuf, shufShipped := empJoinPairs(t, c, emp, "rrleft", "rrright")
	if shufShipped == 0 {
		t.Error("the join of round-robin sets shipped nothing")
	}
	if len(co) != 5600 || !equalRows(co, shuf) {
		t.Fatalf("co-partitioned join found %d pairs, shuffled join %d, want 5600 each and equal", len(co), len(shuf))
	}
}

// TestLabelledJoinUnlabelledShuffles joins a labelled set with an
// unlabelled one: the labels differ, so the join shuffles both sides and
// finds every match.
func TestLabelledJoinUnlabelledShuffles(t *testing.T) {
	c, emp, _ := partitionFixture(t, 20, 0)
	if err := c.CreateSet("db", "plain", "Emp"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData("db", "plain", buildEmpPages(t, c, emp, 20)); err != nil {
		t.Fatal(err)
	}
	pairs, shipped := empJoinPairs(t, c, emp, "left", "plain")
	if shipped == 0 {
		t.Error("a labelled set joined with an unlabelled one shipped nothing")
	}
	// 20 rows over 7 depts on each side: six depts of 3 rows, one of 2.
	if len(pairs) != 6*3*3+2*2 {
		t.Errorf("join found %d pairs, want %d", len(pairs), 6*3*3+2*2)
	}
}

// TestSendDataClearsPartitionLabel is the regression test for a label that
// outlived its placement: rows appended with SendData to a labelled set sit
// wherever round-robin put them, and a join that trusted the label found
// 7 200 of the 11 200 matches. The append clears the label, so the join
// shuffles and finds them all.
func TestSendDataClearsPartitionLabel(t *testing.T) {
	c, emp, _ := partitionFixture(t, 280, 140)
	if err := c.SendData("db", "left", buildEmpPages(t, c, emp, 280)); err != nil {
		t.Fatal(err)
	}
	if got := c.Catalog.PartitionKey("db", "left"); got != "" {
		t.Errorf("label after a round-robin append = %q, want none", got)
	}
	if got := c.Catalog.PartitionKey("db", "right"); got != "dept" {
		t.Errorf("the untouched set lost its label (%q)", got)
	}
	pairs, shipped := empJoinPairs(t, c, emp, "left", "right")
	if len(pairs) != 11200 || shipped == 0 {
		t.Errorf("join after the append found %d pairs shipping %d bytes, want 11200 shuffled", len(pairs), shipped)
	}
}

// TestCoPartitionedJoinChecksPlacement joins two sets labelled on dept by a
// key they are not placed by (salary): every worker's stored rows fail the
// placement check while its inputs are read, before its probe, so the join
// fails naming the misplaced set and emits nothing.
func TestCoPartitionedJoinChecksPlacement(t *testing.T) {
	c, emp, _ := partitionFixture(t, 280, 140)
	salField := emp.Field("salary")
	key := func(r object.Ref) uint64 { return object.HashValue(object.Float64Value(object.GetF64(r, salField))) }
	eq := func(l, r object.Ref) bool { return object.GetF64(l, salField) == object.GetF64(r, salField) }
	var emits atomic.Int64
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(int, object.Ref, object.Ref) error { emits.Add(1); return nil })
	if err == nil || !strings.Contains(err.Error(), "is not placed by its partition label's key") {
		t.Fatalf("join on a key the sets are not placed by = %v, want the placement error", err)
	}
	if !strings.Contains(err.Error(), "db.left") && !strings.Contains(err.Error(), "db.right") {
		t.Errorf("placement error names no set: %v", err)
	}
	if n := emits.Load(); n != 0 {
		t.Errorf("the misplaced join emitted %d pairs before failing", n)
	}
}

// TestCoPartitionedJoinRecoversByReplay gives every worker several pages of
// each side, then crashes the build, and the probe past its first pages:
// the stored inputs replay. The retried attempt rebuilds the table (a
// "consumer" retry) or reuses the recorded one (a "probe" retry), probes
// from the first stored page and skips what was emitted, so per-worker emit
// order equals the crash-free run's with every pair seen exactly once.
func TestCoPartitionedJoinRecoversByReplay(t *testing.T) {
	run := func(inj *fault.Injection) ([]string, *ExecStats) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRowsKeyed(t, c, rec, "db", "left", 900, 18, 0, "grp")
		loadIntRowsKeyed(t, c, rec, "db", "right", 90, 18, 0, "grp")
		if inj != nil {
			c.Cfg.Fault = fault.NewPlan(*inj)
		}
		perWorker := make([][]string, len(c.Workers))
		var mu sync.Mutex
		stats, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", joinKeyOn(rec), joinKeyOn(rec), joinEqOn(rec),
			func(w int, l, r object.Ref) error {
				mu.Lock()
				perWorker[w] = append(perWorker[w], joinPairString(rec, l, r))
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if inj != nil && c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("the %s crash never fired", inj.Site)
		}
		var rows []string
		for _, ws := range perWorker {
			rows = append(rows, ws...)
		}
		return rows, stats
	}
	want, _ := run(nil)
	if len(want) != 900*5 {
		t.Fatalf("crash-free join emitted %d pairs, want %d", len(want), 900*5)
	}
	for _, cell := range []struct {
		inj  fault.Injection
		role string
	}{
		{fault.Injection{Site: fault.ProbePage, Worker: 0, K: 3}, roleProbe},
		{fault.Injection{Site: fault.Emit, Worker: 0, K: 1200}, roleProbe},
		{fault.Injection{Site: fault.BuildPage, Worker: 1, K: 0}, roleConsumer},
	} {
		got, stats := run(&cell.inj)
		if !equalRows(got, want) {
			t.Errorf("%s: recovered join differs from the crash-free run (%d vs %d pairs)",
				cell.inj.Site, len(got), len(want))
		}
		if stats.Retries != 1 || stats.RoleRetries[cell.role] != 1 {
			t.Errorf("%s: %d retries (%v), want one counted as %q", cell.inj.Site, stats.Retries, stats.RoleRetries, cell.role)
		}
	}
}

// TestOutputCommitClearsPartitionLabel writes a selection's output into a
// labelled set: OUTPUT pages are placed by the stage that made them, not by
// the set's key, so the commit clears the label and a join shuffles.
func TestOutputCommitClearsPartitionLabel(t *testing.T) {
	c, err := New(Config{Workers: 2, Threads: 1, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRowsKeyed(t, c, rec, "db", "rows", 300, 10, 0, "grp")
	loadIntRowsKeyed(t, c, rec, "db", "copy", 30, 10, 0, "grp")
	sel := &core.Selection{
		In:      core.NewScan("db", "rows", "RecovRec"),
		ArgType: "RecovRec",
		Predicate: func(arg *lambda.Arg) lambda.Term {
			return lambda.Ge(lambda.FromMember(arg, "val"), lambda.ConstI64(0))
		},
	}
	if _, err := c.Execute(core.NewWrite("db", "copy", sel)); err != nil {
		t.Fatal(err)
	}
	if got := c.Catalog.PartitionKey("db", "copy"); got != "" {
		t.Errorf("label after an OUTPUT commit = %q, want none", got)
	}
	if got := c.Catalog.PartitionKey("db", "rows"); got != "grp" {
		t.Errorf("the scanned set lost its label (%q)", got)
	}
}
