package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
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

func TestCoPartitionedJoinMatchesShuffledJoin(t *testing.T) {
	c, emp, key := partitionFixture(t, 280, 140)
	deptField := emp.Field("dept")
	eq := func(l, r object.Ref) bool {
		return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
	}
	var coMatches int64
	shippedBefore := c.Transport.Stats().BytesShipped
	_, err := c.CoPartitionedJoin("db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			atomic.AddInt64(&coMatches, 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Transport.Stats().BytesShipped - shippedBefore; got != 0 {
		t.Errorf("co-partitioned join shipped %d bytes, want 0 (the §8.3.3 payoff)", got)
	}

	// The shuffled 2n-stage join over the same data must agree.
	var shufMatches int64
	_, err = c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			atomic.AddInt64(&shufMatches, 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if coMatches == 0 || coMatches != shufMatches {
		t.Fatalf("co-partitioned join found %d matches, shuffled join %d", coMatches, shufMatches)
	}
}

func TestCoPartitionedJoinRejectsMismatchedKeys(t *testing.T) {
	c, emp, key := partitionFixture(t, 20, 0)
	_ = emp
	// A set loaded round-robin (no partition key) must be rejected.
	if err := c.CreateSet("db", "plain", "Emp"); err != nil {
		t.Fatal(err)
	}
	if err := c.SendData("db", "plain", buildEmpPages(t, c, emp, 20)); err != nil {
		t.Fatal(err)
	}
	_, err := c.CoPartitionedJoin("db", "left", "db", "plain", key, key,
		func(l, r object.Ref) bool { return true },
		func(int, object.Ref, object.Ref) error { return nil })
	if err == nil {
		t.Fatal("join of non-co-partitioned sets must be rejected")
	}
}

// TestCoPartitionedJoinRecoversByReplay gives every worker several pages of
// each side, then crashes the build, and the probe past its first pages:
// the stored inputs replay. The
// retried attempt rebuilds the table (or reuses the recorded one), probes
// from the first stored page and skips what was emitted, so per-worker emit
// order equals the crash-free run's with every pair seen exactly once.
func TestCoPartitionedJoinRecoversByReplay(t *testing.T) {
	run := func(inj *fault.Injection) []string {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		for set, n := range map[string]int{"left": 900, "right": 90} {
			if err := c.CreateSet("db", set, rec.Name); err != nil {
				t.Fatal(err)
			}
			pages, err := object.BuildPages(c.Catalog.Registry(), 1<<12, n, func(a *object.Allocator, i int) (object.Ref, error) {
				r, err := a.MakeObject(rec)
				if err != nil {
					return object.NilRef, err
				}
				object.SetI64(r, rec.Field("grp"), int64(i%18))
				object.SetI64(r, rec.Field("val"), int64(i))
				return r, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SendDataPartitioned("db", set, pages, "grp", joinKeyOn(rec)); err != nil {
				t.Fatal(err)
			}
		}
		if inj != nil {
			c.Cfg.Fault = fault.NewPlan(*inj)
		}
		perWorker := make([][]string, len(c.Workers))
		var mu sync.Mutex
		_, err = c.CoPartitionedJoin("db", "left", "db", "right", joinKeyOn(rec), joinKeyOn(rec), joinEqOn(rec),
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
		return rows
	}
	want := run(nil)
	if len(want) != 900*5 {
		t.Fatalf("crash-free join emitted %d pairs, want %d", len(want), 900*5)
	}
	for _, inj := range []fault.Injection{
		{Site: fault.ProbePage, Worker: 0, K: 3},
		{Site: fault.Emit, Worker: 0, K: 1200},
		{Site: fault.BuildPage, Worker: 1, K: 0},
	} {
		if got := run(&inj); !equalRows(got, want) {
			t.Errorf("%s: recovered join differs from the crash-free run (%d vs %d pairs)",
				inj.Site, len(got), len(want))
		}
	}
}
