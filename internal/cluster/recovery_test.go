package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/lambda"
	"repro/internal/object"
)

// recoveryMatrix is the crash-the-consumer acceptance matrix: mid-stream
// crashes at Workers ∈ {2, 4} × Threads ∈ {2, 8}.
var recoveryMatrix = []struct{ workers, threads int }{
	{2, 2}, {2, 8}, {4, 2}, {4, 8},
}

// intRecType registers the (grp, val) record the recovery workloads use.
func intRecType(c *Cluster) *object.TypeInfo {
	return object.NewStruct("RecovRec").
		AddField("grp", object.KInt64).
		AddField("val", object.KInt64).
		MustBuild(c.Catalog.Registry())
}

// loadIntRows builds n (i%groups, i) rows and ships them into db.set.
func loadIntRows(t *testing.T, c *Cluster, rec *object.TypeInfo, db, set string, n, groups int) {
	t.Helper()
	if err := createIntRows(c, rec, db, set, n, groups); err != nil {
		t.Fatal(err)
	}
}

// createIntRows is loadIntRows returning its error, for code that runs
// without a *testing.T (the killed child process of resume_test.go).
func createIntRows(c *Cluster, rec *object.TypeInfo, db, set string, n, groups int) error {
	if err := c.CreateDatabase(db); err != nil && !strings.Contains(err.Error(), "already exists") {
		return err
	}
	if err := c.CreateSet(db, set, rec.Name); err != nil {
		return err
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
		return err
	}
	return c.SendData(db, set, pages)
}

// intSumAgg is a grp→sum(val) aggregation over db.rows; finalize may be
// overridden to inject a consumer-side crash.
func intSumAgg(rec *object.TypeInfo, finalize func(a *object.Allocator, key, val object.Value) (object.Ref, error)) *core.Aggregate {
	if finalize == nil {
		finalize = func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			out, err := a.MakeObject(rec)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(out, rec.Field("grp"), key.I)
			object.SetI64(out, rec.Field("val"), val.I)
			return out, nil
		}
	}
	return &core.Aggregate{
		In:      core.NewScan("db", "rows", "RecovRec"),
		ArgType: "RecovRec",
		Key:     func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "grp") },
		Val:     func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "val") },
		KeyKind: object.KInt64,
		ValKind: object.KInt64,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Int64Value(cur.I + next.I), nil
		},
		Finalize: finalize,
	}
}

// runIntAgg executes the aggregation and returns the result rows in
// storage scan order — the bit-for-bit identity unit.
func runIntAgg(t *testing.T, c *Cluster, rec *object.TypeInfo,
	finalize func(a *object.Allocator, key, val object.Value) (object.Ref, error)) ([]string, *ExecStats) {
	t.Helper()
	rows, stats, err := intAggRows(c, rec, finalize)
	if err != nil {
		t.Fatal(err)
	}
	return rows, stats
}

// intAggRows is runIntAgg returning the job's error instead of failing the
// test (the chaos campaign accepts a clean failure at an I/O-error site).
func intAggRows(c *Cluster, rec *object.TypeInfo,
	finalize func(a *object.Allocator, key, val object.Value) (object.Ref, error)) ([]string, *ExecStats, error) {
	if err := c.CreateSet("db", "sums", "RecovRec"); err != nil {
		return nil, nil, err
	}
	stats, err := c.Execute(core.NewWrite("db", "sums", intSumAgg(rec, finalize)))
	if err != nil {
		return nil, nil, err
	}
	rows, err := sumRows(c, rec)
	return rows, stats, err
}

// sumRows reads db.sums as "grp=val" rows in storage scan order.
func sumRows(c *Cluster, rec *object.TypeInfo) ([]string, error) {
	var rows []string
	err := c.ScanSet("db", "sums", func(r object.Ref) bool {
		rows = append(rows, fmt.Sprintf("%d=%d",
			object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
		return true
	})
	return rows, err
}

// TestConsumerCrashRecoveryAggMerge crashes a consumer backend in the
// middle of the streaming aggregation merge, past a checkpoint: the
// scheduler must re-fork it, restore the checkpointed sub-maps, rewind the
// exchange to the cut, replay only the suffix — and produce result rows
// bit-for-bit identical (order included) to a crash-free run.
func TestConsumerCrashRecoveryAggMerge(t *testing.T) {
	const n, groups, interval = 4000, 16, 2
	for _, cell := range recoveryMatrix {
		cfg := Config{Workers: cell.workers, Threads: cell.threads,
			PageSize: 1 << 12, CheckpointInterval: interval}

		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRec := intRecType(ref)
		loadIntRows(t, ref, refRec, "db", "rows", n, groups)
		wantRows, _ := runIntAgg(t, ref, refRec, nil)
		if len(wantRows) != groups {
			t.Fatalf("w=%d t=%d: reference produced %d groups, want %d",
				cell.workers, cell.threads, len(wantRows), groups)
		}

		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", n, groups)
		// Crash worker 1's merge on the delivery after the first cut.
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: interval + 1})
		gotRows, stats := runIntAgg(t, c, rec, nil)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("w=%d t=%d: the consumer crash never fired", cell.workers, cell.threads)
		}
		if stats.ConsumerRecoveries != 1 {
			t.Errorf("w=%d t=%d: consumer recoveries = %d, want 1", cell.workers, cell.threads, stats.ConsumerRecoveries)
		}
		if !equalRows(gotRows, wantRows) {
			t.Errorf("w=%d t=%d: recovered run differs from crash-free run (%d vs %d rows)",
				cell.workers, cell.threads, len(gotRows), len(wantRows))
		}
		ckpts := 0
		for _, s := range stats.Ships {
			ckpts += s.Checkpoints
		}
		if ckpts == 0 {
			t.Errorf("w=%d t=%d: no checkpoints surfaced in ExecStats.Ships", cell.workers, cell.threads)
		}
	}
}

// TestConsumerCrashRecoveryFinalize crashes real user code — the Finalize
// lambda — after the merge consumed the whole stream. Recovery restores
// the end-of-stream checkpoint (the epilogue cut) and re-finalizes with
// zero replay, still bit-for-bit identical.
func TestConsumerCrashRecoveryFinalize(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", 3000, 12)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 3000, 12)
	var crashed int32
	gotRows, stats := runIntAgg(t, c, rec, func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
		if atomic.CompareAndSwapInt32(&crashed, 0, 1) {
			panic("user finalize bug")
		}
		out, err := a.MakeObject(rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(out, rec.Field("grp"), key.I)
		object.SetI64(out, rec.Field("val"), val.I)
		return out, nil
	})
	if atomic.LoadInt32(&crashed) != 1 {
		t.Fatal("the finalize crash never fired")
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want 1", stats.ConsumerRecoveries)
	}
	if !equalRows(gotRows, wantRows) {
		t.Error("recovered run differs from crash-free run")
	}
}

// TestConsumerCrashRecoveryDataDir runs the mid-merge crash on a
// disk-backed cluster: checkpoint snapshots round-trip through the storage
// server's page files under DataDir, and the recovered output still
// matches a crash-free disk-backed run.
func TestConsumerCrashRecoveryDataDir(t *testing.T) {
	const interval = 2
	mk := func(dir string) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			CheckpointInterval: interval, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 3000, 12)
		return c, rec
	}
	ref, refRec := mk(t.TempDir())
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	c, rec := mk(t.TempDir())
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 0, K: interval + 1})
	gotRows, stats := runIntAgg(t, c, rec, nil)
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the consumer crash never fired")
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want 1", stats.ConsumerRecoveries)
	}
	if !equalRows(gotRows, wantRows) {
		t.Error("disk-backed recovered run differs from crash-free run")
	}
}

// joinPairsByWorker runs a hash-partition join over db.left ⋈ db.right on
// key grp and returns each worker's emitted pairs concatenated in worker
// order (each worker's emit sequence is serialized and deterministic).
func joinPairsByWorker(t *testing.T, c *Cluster, rec *object.TypeInfo) []string {
	t.Helper()
	grpField := rec.Field("grp")
	valField := rec.Field("val")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grpField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetI64(l, grpField) == object.GetI64(r, grpField)
	}
	perWorker := make([][]string, len(c.Workers))
	var mu sync.Mutex
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			mu.Lock()
			perWorker[workerID] = append(perWorker[workerID],
				fmt.Sprintf("%d|%d", object.GetI64(l, valField), object.GetI64(r, valField)))
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, ws := range perWorker {
		rows = append(rows, ws...)
	}
	return rows
}

// TestConsumerCrashRecoveryJoinBuild crashes a consumer backend while it
// is building the join hash table from the shuffled build stream: the
// build must restore its checkpointed tables, replay the streams past the
// cut, and emit matches bit-for-bit identical to a crash-free join.
func TestConsumerCrashRecoveryJoinBuild(t *testing.T) {
	const left, right, groups = 600, 90, 18
	for _, cell := range recoveryMatrix {
		cfg := Config{Workers: cell.workers, Threads: cell.threads,
			PageSize: 1 << 12, CheckpointInterval: 1}
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRec := intRecType(ref)
		loadIntRows(t, ref, refRec, "db", "left", left, groups)
		loadIntRows(t, ref, refRec, "db", "right", right, groups)
		wantRows := joinPairsByWorker(t, ref, refRec)
		if len(wantRows) == 0 {
			t.Fatalf("w=%d t=%d: reference join emitted nothing", cell.workers, cell.threads)
		}

		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "left", left, groups)
		loadIntRows(t, c, rec, "db", "right", right, groups)
		// Crash worker 0's build on the page after the first cut.
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.BuildPage, Worker: 0, K: 1})
		gotRows := joinPairsByWorker(t, c, rec)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("w=%d t=%d: the build crash never fired", cell.workers, cell.threads)
		}
		if !equalRows(gotRows, wantRows) {
			t.Errorf("w=%d t=%d: recovered join differs from crash-free join (%d vs %d pairs)",
				cell.workers, cell.threads, len(gotRows), len(wantRows))
		}
		if c.Transport.Stats().Checkpoints == 0 {
			t.Errorf("w=%d t=%d: no build checkpoints recorded", cell.workers, cell.threads)
		}
	}
}

// TestJoinKeyLambdaCrashRecovered crashes the build-side key lambda once —
// organically, wherever it fires first. The same lambda runs in the
// producer role (repartition hashing) and the consumer role (the table
// build), and both are now recoverable: a producer crash re-forks and
// re-streams with sender-side dedup, a build crash restores the table
// checkpoint and replays — either way the join must emit the crash-free
// match sequence.
func TestJoinKeyLambdaCrashRecovered(t *testing.T) {
	const left, right, groups = 600, 90, 18
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, CheckpointInterval: 1}
	mk := func() (*Cluster, *object.TypeInfo) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "left", left, groups)
		loadIntRows(t, c, rec, "db", "right", right, groups)
		return c, rec
	}
	ref, refRec := mk()
	wantRows := joinPairsByWorker(t, ref, refRec)

	c, rec := mk()
	grpField := rec.Field("grp")
	valField := rec.Field("val")
	var crashed int32
	keyL := func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grpField)))
	}
	keyR := func(r object.Ref) uint64 {
		if atomic.CompareAndSwapInt32(&crashed, 0, 1) {
			panic("user key lambda bug")
		}
		return keyL(r)
	}
	eq := func(l, r object.Ref) bool {
		return object.GetI64(l, grpField) == object.GetI64(r, grpField)
	}
	perWorker := make([][]string, len(c.Workers))
	var mu sync.Mutex
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", keyL, keyR, eq,
		func(workerID int, l, r object.Ref) error {
			mu.Lock()
			perWorker[workerID] = append(perWorker[workerID],
				fmt.Sprintf("%d|%d", object.GetI64(l, valField), object.GetI64(r, valField)))
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatalf("join should survive a key-lambda crash: %v", err)
	}
	if atomic.LoadInt32(&crashed) != 1 {
		t.Fatal("the key-lambda crash never fired")
	}
	var gotRows []string
	for _, ws := range perWorker {
		gotRows = append(gotRows, ws...)
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("recovered join differs from crash-free join (%d vs %d pairs)",
			len(gotRows), len(wantRows))
	}
}

// TestSkewedShuffleReorderBound runs an aggregation whose stream is many
// times what its lanes hold and asserts the surfaced reorder-backlog
// high-water mark honors the lanes' hard bound: exchange.DefaultCapacity ×
// Threads pages per producer, plus the one page the consumer is taking off
// a lane — backpressure, not consumer memory, absorbs producer skew.
func TestSkewedShuffleReorderBound(t *testing.T) {
	const workers, threads = 2, 4
	c, err := New(Config{Workers: workers, Threads: threads, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 6000, 3000)
	rows, stats := runIntAgg(t, c, rec, nil)
	if len(rows) != 3000 {
		t.Fatalf("aggregation produced %d groups, want 3000", len(rows))
	}
	bound := int64(exchange.DefaultCapacity*threads*workers + 1)
	seen := false
	for _, s := range stats.Ships {
		if s.MaxBytesInFlight == 0 {
			continue // not an exchange step
		}
		seen = true
		if int64(s.Pages) <= bound {
			t.Errorf("stage %d: shipped %d pages, which the lanes hold without backpressure (bound %d)",
				s.Stage, s.Pages, bound)
		}
		if s.MaxReorderPages <= 0 {
			t.Errorf("stage %d: reorder high-water mark not recorded", s.Stage)
		}
		if s.MaxReorderPages > bound {
			t.Errorf("stage %d: reorder backlog peaked at %d pages, hard bound is %d",
				s.Stage, s.MaxReorderPages, bound)
		}
	}
	if !seen {
		t.Fatal("no exchange step in ExecStats.Ships")
	}
	if c.Transport.Stats().MaxReorderPages <= 0 || c.Transport.Stats().MaxReorderPages > bound {
		t.Errorf("transport reorder mark = %d, want in (0, %d]", c.Transport.Stats().MaxReorderPages, bound)
	}
}
