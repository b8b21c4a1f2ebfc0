package cluster

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/race"
)

// joinRows runs a dept-keyed join of db.emps against db.reps through the
// given join driver and returns the emitted "left|right" name pairs.
func joinRows(t *testing.T, c *Cluster, emp *object.TypeInfo,
	run func(key func(object.Ref) uint64, eq func(l, r object.Ref) bool,
		emit func(workerID int, l, r object.Ref) error) error) []string {
	t.Helper()
	deptField := emp.Field("dept")
	nameField := emp.Field("name")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
	}
	// emit runs on each worker's goroutine (never concurrently per worker,
	// but workers run in parallel) — guard the shared slice.
	var mu sync.Mutex
	var rows []string
	err := run(key, eq, func(workerID int, l, r object.Ref) error {
		pair := fmt.Sprintf("%s|%s",
			object.GetStrField(l, nameField), object.GetStrField(r, nameField))
		mu.Lock()
		rows = append(rows, pair)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestThreadsDeterministicHashPartitionJoin asserts the 2n-stage
// hash-partition join — parallel repartition, parallel bucket-merged build,
// parallel buffered-emit probe — produces the identical match multiset at
// every thread count. (Cross-worker emit interleaving is scheduler-
// dependent, so rows are canonicalized by sorting before comparison.)
func TestThreadsDeterministicHashPartitionJoin(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, emp := threadedCluster(t, 600, th)
		if err := c.CreateSet("db", "reps", "Emp"); err != nil {
			t.Fatal(err)
		}
		loadEmps(t, c, emp, "db", "reps", 5) // one rep per dept d0..d4
		rows := joinRows(t, c, emp, func(key func(object.Ref) uint64,
			eq func(l, r object.Ref) bool,
			emit func(workerID int, l, r object.Ref) error) error {
			_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "emps", "db", "reps", key, key, eq, emit)
			return err
		})
		if len(rows) != 600 {
			t.Fatalf("threads=%d: join rows = %d, want 600", th, len(rows))
		}
		sort.Strings(rows)
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: hash-partition join rows differ from threads=%d", th, threadCounts[0])
		}
	}
}

// TestThreadsDeterministicCoPartitionedJoin runs the zero-shuffle join over
// pre-partitioned sets at every thread count; the parallel build/probe
// helpers must produce the same matches as the sequential path.
func TestThreadsDeterministicCoPartitionedJoin(t *testing.T) {
	var want []string
	for _, th := range threadCounts {
		c, err := New(Config{Workers: 4, Threads: th, PageSize: 1 << 16})
		if err != nil {
			t.Fatal(err)
		}
		reg := c.Catalog.Registry()
		emp := object.NewStruct("Emp").
			AddField("name", object.KString).
			AddField("salary", object.KFloat64).
			AddField("dept", object.KString).
			MustBuild(reg)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		deptField := emp.Field("dept")
		key := func(r object.Ref) uint64 {
			return object.HashValue(object.StringValue(object.GetStrField(r, deptField)))
		}
		load := func(set string, n int) {
			if err := c.CreateSet("db", set, "Emp"); err != nil {
				t.Fatal(err)
			}
			pages, err := object.BuildPages(reg, 1<<16, n, func(a *object.Allocator, i int) (object.Ref, error) {
				e, err := a.MakeObject(emp)
				if err != nil {
					return object.NilRef, err
				}
				if err := object.SetStrField(a, e, emp.Field("name"), fmt.Sprintf("%s%d", set, i)); err != nil {
					return object.NilRef, err
				}
				if err := object.SetStrField(a, e, deptField, fmt.Sprintf("d%d", i%5)); err != nil {
					return object.NilRef, err
				}
				return e, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.SendDataPartitioned("db", set, pages, "dept", key); err != nil {
				t.Fatal(err)
			}
		}
		load("emps", 400)
		load("reps", 5)
		rows := joinRows(t, c, emp, func(key func(object.Ref) uint64,
			eq func(l, r object.Ref) bool,
			emit func(workerID int, l, r object.Ref) error) error {
			_, err := c.CoPartitionedJoin("db", "emps", "db", "reps", key, key, eq, emit)
			return err
		})
		if len(rows) != 400 {
			t.Fatalf("threads=%d: join rows = %d, want 400", th, len(rows))
		}
		sort.Strings(rows)
		if want == nil {
			want = rows
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: co-partitioned join rows differ from threads=%d", th, threadCounts[0])
		}
	}
}

// TestProbeWindowAllocatesNothing is the guard on the probe's per-attempt
// state: once a window has sized the threads' match buffers, probing a
// further window costs no Go object at Threads 1 and 2 — the batch ranges,
// thread chunks and match buffers are reused and the executor threads are
// the attempt's — and the buffers, read in thread order, hold the same
// matches at both thread counts.
func TestProbeWindowAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var want []string
	for _, threads := range []int{1, 2} {
		c, err := New(Config{Workers: 1, Threads: threads, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "left", 600, 18)
		loadIntRows(t, c, rec, "db", "right", 90, 18)
		env := c.env(c.Workers[0])
		left, err := storedPages(env.store, "db", "left")
		if err != nil {
			t.Fatal(err)
		}
		right, err := storedPages(env.store, "db", "right")
		if err != nil {
			t.Fatal(err)
		}
		grp, val := rec.Field("grp"), rec.Field("val")
		key := func(r object.Ref) uint64 { return uint64(object.GetI64(r, grp)) }
		j := &joinSpec{kind: core.JoinInner, keyL: key, keyR: key,
			eq: func(l, r object.Ref) bool { return key(l) == key(r) }}
		table := engine.NewJoinTable()
		var rows []object.Ref
		for _, p := range right {
			appendPageRows(&rows, p)
		}
		for _, r := range rows {
			table.Add(key(r), r)
		}

		pt := env.newProbeThreads(table, j)
		window := left[:min(len(left), probeWindow)]
		bufs, err := pt.window(window) // warm: the match buffers are sized
		if err != nil {
			t.Fatal(err)
		}
		if len(bufs) != threads {
			t.Fatalf("Threads %d: the window split into %d chunks", threads, len(bufs))
		}
		var got []string
		for _, buf := range bufs {
			for _, m := range buf {
				got = append(got, fmt.Sprintf("%d|%d", object.GetI64(m[0], val), object.GetI64(m[1], val)))
			}
		}
		if threads == 1 {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("Threads %d: %d matches differ from Threads 1's %d", threads, len(got), len(want))
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pt.window(window); err != nil {
				t.Fatal(err)
			}
		})
		pt.team.Close()
		if allocs != 0 {
			t.Errorf("Threads %d: a warm %d-page probe window allocated %v objects, want 0", threads, len(window), allocs)
		}
	}
	if len(want) == 0 {
		t.Fatal("the window matched nothing")
	}
}
