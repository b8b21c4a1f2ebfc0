package cluster

// Crash tests for the fault-injection subsystem (internal/fault): the
// probe/emit recovery, injected spill I/O errors, the bounded retry policy, and the failure path's leak-free
// cleanup. The chaos campaign (TestChaosCampaign) sweeps the same sites
// across seeds; these tests pin the specific behaviors.

import (
	"fmt"
	"os"
	"path/filepath"
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

// joinFixture loads the join workload the recovery tests use.
func joinFixture(t *testing.T, cfg Config, left, right, groups int) (*Cluster, *object.TypeInfo) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "left", left, groups)
	loadIntRows(t, c, rec, "db", "right", right, groups)
	return c, rec
}

// writeIntAgg is the aggregation write runIntAgg executes, for tests that
// need the raw Execute error instead of a t.Fatal on failure.
func writeIntAgg(t *testing.T, c *Cluster, rec *object.TypeInfo) error {
	t.Helper()
	_, _, err := intAggRows(c, rec, nil)
	return err
}

// assertNoJoinLeaks asserts a finished job — recovered or failed — left
// nothing behind: no live spill slots at pool close.
func assertNoJoinLeaks(t *testing.T, c *Cluster, label string) {
	t.Helper()
	if n := c.Transport.Stats().LeakedSpillSlots; n != 0 {
		t.Errorf("%s: %d spill slots leaked", label, n)
	}
}

// assertNoRecoveryFiles asserts nothing under a DataDir holds job recovery
// state: no _ckpt snapshot database and no resume file in any worker's
// directory. Recovery state lives in memory only.
func assertNoRecoveryFiles(t *testing.T, dir string) {
	t.Helper()
	for _, pattern := range []string{"worker-*/_ckpt*", "worker-*/resume-*"} {
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 0 {
			t.Errorf("recovery state left under DataDir: %v", files)
		}
	}
}

// TestProbeEmitCrashRecovery closes the last crash class: a backend crash
// in the join's probe/emit phase — at probe-page delivery or immediately
// before a user emit — must recover by re-probing the recorded table from
// the first probe page, skipping the matches already emitted, and emit
// matches bit-for-bit identical to a crash-free run.
func TestProbeEmitCrashRecovery(t *testing.T) {
	const left, right, groups = 600, 90, 18
	cells := append([]struct{ workers, threads int }{{1, 1}, {1, 8}}, recoveryMatrix...)
	for _, site := range []fault.Site{fault.ProbePage, fault.Emit} {
		for _, cell := range cells {
			cfg := Config{Workers: cell.workers, Threads: cell.threads,
				PageSize: 1 << 12}
			ref, refRec := joinFixture(t, cfg, left, right, groups)
			wantRows := joinPairsByWorker(t, ref, refRec)
			if len(wantRows) == 0 {
				t.Fatalf("%s w=%d t=%d: reference join emitted nothing", site, cell.workers, cell.threads)
			}

			c, rec := joinFixture(t, cfg, left, right, groups)
			k := 1 // the second probe page
			if site == fault.Emit {
				k = 5
			}
			c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: site, Worker: 0, K: k})
			gotRows := joinPairsByWorker(t, c, rec)
			if c.Cfg.Fault.Fired() != 1 {
				t.Fatalf("%s w=%d t=%d: the probe-phase crash never fired", site, cell.workers, cell.threads)
			}
			if !equalRows(gotRows, wantRows) {
				t.Errorf("%s w=%d t=%d: recovered join differs from crash-free join (%d vs %d pairs)",
					site, cell.workers, cell.threads, len(gotRows), len(wantRows))
			}
			assertNoJoinLeaks(t, c, fmt.Sprintf("%s w=%d t=%d", site, cell.workers, cell.threads))
		}
	}
}

// TestProbeEmitCrashRecoverySpill runs the probe-phase crash under a
// one-page budget: the probe side's retained pages are metered (the old
// accounting gap), evicted pages reload from spill during the replay, and
// the recovered matches still equal the unbounded crash-free join's.
func TestProbeEmitCrashRecoverySpill(t *testing.T) {
	const left, right, groups = 600, 90, 18
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, refRec := joinFixture(t, base, left, right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)

	cfg := base
	cfg.MemoryBudget = spillBudget
	for _, site := range []fault.Site{fault.ProbePage, fault.Emit} {
		c, rec := joinFixture(t, cfg, left, right, groups)
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: site, Worker: 0, K: 2})
		gotRows := joinPairsByWorker(t, c, rec)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("%s: the probe-phase crash never fired under budget", site)
		}
		if !equalRows(gotRows, wantRows) {
			t.Errorf("%s: governed recovered join differs from unbounded crash-free join (%d vs %d pairs)",
				site, len(gotRows), len(wantRows))
		}
		if c.Transport.Stats().SpilledPages == 0 {
			t.Errorf("%s: a one-page budget spilled nothing on the join shuffles", site)
		}
		if c.Transport.Stats().MaxBufferedBytes == 0 || c.Transport.Stats().MaxBufferedBytes > spillBudget {
			t.Errorf("%s: MaxBufferedBytes = %d, want in (0, %d]", site, c.Transport.Stats().MaxBufferedBytes, spillBudget)
		}
		assertNoJoinLeaks(t, c, site.String())
	}
}

// TestJoinSpillEnqueueCrashRecovered crashes the memory governor's spill
// under a one-page budget on an inner hash-partition join, at the first
// four spills of each worker's governor. Which goroutine takes the k-th
// spill depends on timing — a sending producer, the build stream, or the
// probe-side drain settling its retention window — so each must be
// absorbed wherever it lands, and the join must emit the fault-free rows.
func TestJoinSpillEnqueueCrashRecovered(t *testing.T) {
	const left, right, groups = 600, 90, 18
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, refRec := joinFixture(t, base, left, right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)

	cfg := base
	cfg.MemoryBudget = spillBudget
	for worker := 0; worker < cfg.Workers; worker++ {
		for k := 0; k < 4; k++ {
			label := fmt.Sprintf("worker=%d k=%d", worker, k)
			c, rec := joinFixture(t, cfg, left, right, groups)
			c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.SpillEnqueue, Worker: worker, K: k})
			gotRows := joinPairsByWorker(t, c, rec)
			if c.Cfg.Fault.Fired() != 1 {
				t.Fatalf("%s: the spill crash never fired", label)
			}
			if !equalRows(gotRows, wantRows) {
				t.Errorf("%s: recovered join differs from fault-free join (%d vs %d pairs)",
					label, len(gotRows), len(wantRows))
			}
			assertNoJoinLeaks(t, c, label)
		}
	}
}

// TestProbeDrainCrashReachesBackend pins the one spill of a join that the
// sweep above cannot place: the probe-side drain of gatherJoinStreams
// evicting a resident retained page as it settles a page delivered from
// spill. The streams are filled by hand so the senders' two spills are over
// before the drain starts and the third is certainly its own. The crash must
// re-raise on the caller, where runRole absorbs it, as the build goroutine's
// does; the drain used to have no recover, so it killed the process.
func TestProbeDrainCrashReachesBackend(t *testing.T) {
	plan := fault.NewPlan(fault.Injection{Site: fault.SpillEnqueue, Worker: 0, K: 2})
	c, err := New(Config{Workers: 1, Threads: 1, PageSize: 1 << 12, MemoryBudget: spillBudget, Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	pages, err := object.BuildPages(c.Catalog.Registry(), 1<<12, 400, func(a *object.Allocator, i int) (object.Ref, error) {
		return a.MakeObject(rec)
	})
	if err != nil || len(pages) < 3 {
		t.Fatalf("need three full pages, got %d (%v)", len(pages), err)
	}
	govs, closeGovs := c.stepGovernors()
	exProbe := c.newShuffleExchange(func(*object.Page) {}, govs)
	exBuild := c.newShuffleExchange(nil, govs)
	// Page 0 takes the whole budget; pages 1 and 2 spill at enqueue.
	for seq, p := range pages[:3] {
		if err := exProbe.Send(exchange.Tag{Seq: seq}, 0, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	exProbe.CloseProducer(0)
	exBuild.CloseProducer(0)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "SpillEnqueue") {
			t.Errorf("gatherJoinStreams recovered %v, want the injected SpillEnqueue crash", r)
		}
		exProbe.Discard()
		closeGovs()
		if n := c.Transport.Stats().LeakedSpillSlots; n != 0 {
			t.Errorf("%d spill slots leaked", n)
		}
	}()
	_, err = c.env(c.Workers[0]).gatherJoinStreams(&exchangeEnd{ex: exBuild},
		&exchangeEnd{ex: exProbe}, &joinSpec{}, &joinRecovery{})
	t.Fatalf("gatherJoinStreams returned (%v) past the injected crash", err)
}

// TestEmitExactlyOnce counts emit invocations across an Emit-site crash:
// recovery must not re-deliver any match user code already observed — the
// total count equals the crash-free run's exactly, every pair once.
func TestEmitExactlyOnce(t *testing.T) {
	const left, right, groups = 600, 90, 18
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, refRec := joinFixture(t, cfg, left, right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)

	c, rec := joinFixture(t, cfg, left, right, groups)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Emit, Worker: 0, K: 7})
	grpField := rec.Field("grp")
	valField := rec.Field("val")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grpField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetI64(l, grpField) == object.GetI64(r, grpField)
	}
	var emits int64
	seen := map[string]int{}
	var mu sync.Mutex
	stats, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			atomic.AddInt64(&emits, 1)
			mu.Lock()
			seen[fmt.Sprintf("%d:%d|%d", workerID,
				object.GetI64(l, valField), object.GetI64(r, valField))]++
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the emit crash never fired")
	}
	if int(emits) != len(wantRows) {
		t.Errorf("emit ran %d times, crash-free join emits %d matches", emits, len(wantRows))
	}
	for pair, n := range seen {
		if n != 1 {
			t.Errorf("match %s emitted %d times, want exactly once", pair, n)
		}
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want 1", stats.ConsumerRecoveries)
	}
	if stats.RoleRetries[roleProbe] != 1 {
		t.Errorf("probe role retries = %d, want 1", stats.RoleRetries[roleProbe])
	}
}

// TestJoinAndSortTakeNoCuts pins that the joins and the sort recover by
// replay alone: under a one-page budget, an inner join, a full outer join
// and an ORDER BY count no checkpoint, and they still recover a crash at
// their last step — the full join's last tail-sweep emit, the sort's
// Finalize — with the crash-free rows, one consumer recovery, and nothing
// leaked.
func TestJoinAndSortTakeNoCuts(t *testing.T) {
	build := func(plan *fault.Plan) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			MemoryBudget: spillBudget, Fault: plan})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 700, 13) // creates db
		loadIntRowsOff(t, c, rec, "db", "left", 600, 12, 0)
		loadIntRowsOff(t, c, rec, "db", "right", 240, 8, 8)
		return c, rec
	}
	noCuts := func(label string, c *Cluster) {
		t.Helper()
		if n := c.Transport.Stats().Checkpoints; n != 0 {
			t.Errorf("%s: the cluster counted %d checkpoints, want 0", label, n)
		}
	}
	// join returns each worker's emit sequence ("-" for a null side).
	join := func(c *Cluster, rec *object.TypeInfo, kind core.JoinKind) ([][]string, *ExecStats) {
		val := rec.Field("val")
		side := func(r object.Ref) string {
			if r == object.NilRef {
				return "-"
			}
			return fmt.Sprint(object.GetI64(r, val))
		}
		perWorker := make([][]string, len(c.Workers))
		var mu sync.Mutex
		stats, err := c.HashPartitionJoinKind(kind, "db", "left", "db", "right",
			joinKeyOn(rec), joinKeyOn(rec), joinEqOn(rec),
			func(w int, l, r object.Ref) error {
				mu.Lock()
				perWorker[w] = append(perWorker[w], side(l)+"|"+side(r))
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatalf("join kind %d: %v", kind, err)
		}
		return perWorker, stats
	}
	orderBy := func(c *Cluster, rec *object.TypeInfo) ([]string, *ExecStats) {
		if err := c.CreateSet("db", "sorted", rec.Name); err != nil {
			t.Fatal(err)
		}
		stats, err := c.Execute(core.NewWrite("db", "sorted", &core.OrderBy{
			In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, Keys: intSortKeys()}))
		if err != nil {
			t.Fatalf("order by: %v", err)
		}
		var rows []string
		if err := c.ScanSet("db", "sorted", func(r object.Ref) bool {
			rows = append(rows, fmt.Sprintf("%d|%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows, stats
	}

	c, rec := build(nil)
	join(c, rec, core.JoinInner)
	wantFull, _ := join(c, rec, core.JoinFull)
	wantSorted, _ := orderBy(c, rec)
	noCuts("two joins and a sort", c)

	// The full join's last emit on a worker whose sequence ends in the
	// unmatched-row tail: K counts that worker's Emit hits from 0.
	target := -1
	for w, rows := range wantFull {
		if len(rows) > 0 && strings.HasPrefix(rows[len(rows)-1], "-|") {
			target = w
			break
		}
	}
	if target < 0 {
		t.Fatal("no worker's full-join sequence ends in the tail sweep")
	}
	plan := fault.NewPlan(fault.Injection{Site: fault.Emit, Worker: target, K: len(wantFull[target]) - 1})
	c, rec = build(plan)
	gotFull, stats := join(c, rec, core.JoinFull)
	if plan.Fired() != 1 {
		t.Fatal("the last tail-sweep emit never crashed")
	}
	for w := range wantFull {
		if !equalRows(gotFull[w], wantFull[w]) {
			t.Errorf("full join worker %d: recovered sequence differs (%d vs %d rows)", w, len(gotFull[w]), len(wantFull[w]))
		}
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("full join: %d consumer recoveries, want 1", stats.ConsumerRecoveries)
	}
	noCuts("recovered full join", c)
	assertNoJoinLeaks(t, c, "full join, last tail emit")

	plan = fault.NewPlan(fault.Injection{Site: fault.Finalize, Worker: 0, K: 0})
	c, rec = build(plan)
	gotSorted, stats := orderBy(c, rec)
	if plan.Fired() != 1 {
		t.Fatal("the sort's Finalize never crashed")
	}
	if !equalRows(gotSorted, wantSorted) {
		t.Errorf("recovered sort differs (%d vs %d rows)", len(gotSorted), len(wantSorted))
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("order by: %d consumer recoveries, want 1", stats.ConsumerRecoveries)
	}
	noCuts("recovered order by", c)
	assertNoJoinLeaks(t, c, "order by, Finalize")
}

// TestSpillWriteErrorFailsCleanly injects an I/O error into the spill
// store's write path under a one-page budget: the job must fail with a
// clean error naming the injection — no hang, no panic — and the failure
// path must release every slot it had claimed.
func TestSpillWriteErrorFailsCleanly(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		MemoryBudget: spillBudget}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 4000, 499)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.SpillWrite, Worker: 1, K: 0})
	err = writeIntAgg(t, c, rec)
	if err == nil {
		t.Fatal("job with an injected spill-write error succeeded")
	}
	if !strings.Contains(err.Error(), "injected SpillWrite") {
		t.Errorf("error does not name the injection: %v", err)
	}
	assertNoJoinLeaks(t, c, "spill-write error")

	// The same workload on a fault-free cluster still succeeds — the
	// failure was the injection, not the configuration.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	loadIntRows(t, c2, rec2, "db", "rows", 4000, 499)
	if rows, _ := runIntAgg(t, c2, rec2, nil); len(rows) != 499 {
		t.Fatalf("fault-free rerun produced %d groups, want 499", len(rows))
	}
}

// TestSpillReadErrorFailsCleanly injects an I/O error into the spill
// store's read path while a consumer crash forces a replay over spilled
// retained pages: the reload failure must surface as a clean job error
// with the governor's slot bookkeeping intact.
func TestSpillReadErrorFailsCleanly(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		MemoryBudget: spillBudget}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 4000, 499)
	// One plan, two injections: crash the merge mid-stream, then fail the
	// first spill read worker 1's recovery (or delivery reload) performs.
	c.Cfg.Fault = fault.NewPlan(
		fault.Injection{Site: fault.Delivery, Worker: 1, K: 3},
		fault.Injection{Site: fault.SpillRead, Worker: 1, K: 0},
	)
	err = writeIntAgg(t, c, rec)
	if err == nil {
		t.Fatal("job with an injected spill-read error succeeded")
	}
	if !strings.Contains(err.Error(), "injected SpillRead") {
		t.Errorf("error does not name the injection: %v", err)
	}
	assertNoJoinLeaks(t, c, "spill-read error")
}

// TestRetryBudgetBoundsRecovery arms more distinct crashes than the fixed
// retry budget absorbs: two must fail with the exhaustion error naming the
// role and worker, while the first of them alone is recovered with one
// consumer retry.
func TestRetryBudgetBoundsRecovery(t *testing.T) {
	// Two distinct crashes on worker 1's merge: the second K is cumulative
	// across the retry's replayed deliveries, so it fires mid-retry.
	first := fault.Injection{Site: fault.Delivery, Worker: 1, K: 3}
	second := fault.Injection{Site: fault.Delivery, Worker: 1, K: 10}
	mk := func(plan *fault.Plan) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		// High cardinality → full map pages → enough deliveries on worker 1
		// for both hit indexes to be reached.
		loadIntRows(t, c, rec, "db", "rows", 4000, 499)
		c.Cfg.Fault = plan
		return c, rec
	}

	c, rec := mk(fault.NewPlan(first, second))
	err := writeIntAgg(t, c, rec)
	if err == nil {
		t.Fatal("two distinct crashes within a one-retry budget succeeded")
	}
	if !strings.Contains(err.Error(), "exhausted 1 crash retries") {
		t.Errorf("error does not report retry exhaustion: %v", err)
	}
	if !strings.Contains(err.Error(), "consumer role") || !strings.Contains(err.Error(), "worker 1") {
		t.Errorf("error does not name the failing role and worker: %v", err)
	}
	assertNoJoinLeaks(t, c, "exhausted budget")

	c1, rec1 := mk(fault.NewPlan(first))
	rows, stats := runIntAgg(t, c1, rec1, nil)
	if len(rows) != 499 {
		t.Fatalf("one-crash run produced %d groups, want 499", len(rows))
	}
	if c1.Cfg.Fault.Fired() != 1 {
		t.Errorf("fired %d of 1 injections", c1.Cfg.Fault.Fired())
	}
	if stats.RoleRetries[roleConsumer] != 1 {
		t.Errorf("consumer role retries = %d, want 1 (got %v)", stats.RoleRetries[roleConsumer], stats.RoleRetries)
	}
}

// TestCancelObserverIsNotRetried crashes worker 1's merge consumer past its
// retry budget while its full lanes hold both producers blocked on it. The
// step's cancellation wraps the consumer's crash, and a producer that
// returns it has not crashed: it must not be retried or accounted, and the
// job's error must name the consumer, not the first observer in role order.
func TestCancelObserverIsNotRetried(t *testing.T) {
	c, err := New(Config{Workers: 2, Threads: 1, PageSize: 1 << 12, Fault: fault.NewPlan(
		fault.Injection{Site: fault.Delivery, Worker: 1, K: 0},
		fault.Injection{Site: fault.Delivery, Worker: 1, K: 1},
	)})
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 4000, 499)
	if err := c.CreateSet("db", "out", rec.Name); err != nil {
		t.Fatal(err)
	}
	stats, err := c.Execute(core.NewWrite("db", "out", intSumAgg(rec, nil)))
	if err == nil {
		t.Fatal("two consumer crashes within a one-retry budget succeeded")
	}
	if !strings.Contains(err.Error(), "consumer role") || !strings.Contains(err.Error(), "worker 1 exhausted 1 crash retries") ||
		strings.Contains(err.Error(), "producer role") || strings.Contains(err.Error(), "cancelled") {
		t.Errorf("error is not the crashed consumer's own: %v", err)
	}
	if stats.RoleRetries[roleProducer] != 0 || stats.Retries != 1 || stats.RoleRetries[roleConsumer] != 1 {
		t.Errorf("retries = %d %v, want only the consumer's one", stats.Retries, stats.RoleRetries)
	}
	assertNoJoinLeaks(t, c, "cancel observer")
}

// TestDeterministicCrashFailsFast runs a deterministic user bug (identical
// panic on every attempt): the policy must fail after a single confirming
// retry and say so in the error, not report an exhausted budget.
func TestDeterministicCrashFailsFast(t *testing.T) {
	c, _ := testCluster(t, 50)
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Projection: func(arg *lambda.Arg) lambda.Term {
			return lambda.FromNative("alwaysCrash", object.KHandle,
				func(ctx *lambda.NativeCtx, args []object.Value) (object.Value, error) {
					panic("deterministic user bug")
				},
				lambda.FromSelf(arg))
		},
	}
	if err := c.CreateSet("db", "out", "Emp"); err != nil {
		t.Fatal(err)
	}
	_, err := c.Execute(core.NewWrite("db", "out", sel))
	if err == nil {
		t.Fatal("deterministically crashing job succeeded")
	}
	if !strings.Contains(err.Error(), "failed deterministically") {
		t.Errorf("error does not flag the deterministic crash: %v", err)
	}
	// One original attempt + one confirming retry per crashing worker.
	for _, w := range c.Workers {
		if w.Front.ReForks > 2 {
			t.Errorf("worker %d re-forked %d times for an identical crash, want <= 2", w.ID, w.Front.ReForks)
		}
	}
}

// TestFailureCleanupReleasesEverything fails a governed job on purpose
// (one crash more than the retry budget) and asserts the failure path
// released all transient state: spill slots, temp spill directories, and
// no recovery file under DataDir.
func TestFailureCleanupReleasesEverything(t *testing.T) {
	tmpBefore, err := filepath.Glob(filepath.Join(os.TempDir(), "pcspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dataDir := range []bool{false, true} {
		dir := ""
		if dataDir {
			dir = t.TempDir()
		}
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			MemoryBudget: spillBudget, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 4000, 499)
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: 5},
			fault.Injection{Site: fault.Delivery, Worker: 1, K: 9})
		if err := writeIntAgg(t, c, rec); err == nil {
			t.Fatal("job crashing past its retry budget succeeded")
		}
		assertNoJoinLeaks(t, c, fmt.Sprintf("failed job (dataDir=%v)", dataDir))
		if dataDir {
			assertNoSpillDirs(t, dir)
			assertNoRecoveryFiles(t, dir)
		}
	}
	tmpAfter, err := filepath.Glob(filepath.Join(os.TempDir(), "pcspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpAfter) != len(tmpBefore) {
		t.Errorf("temp spill dirs grew from %d to %d across failed jobs", len(tmpBefore), len(tmpAfter))
	}
}

// TestFailedJoinCleansUp fails the join mid-probe with one crash more than
// the retry budget and asserts both exchanges' retained pages and spill
// slots are released.
func TestFailedJoinCleansUp(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		MemoryBudget: spillBudget}
	c, rec := joinFixture(t, cfg, 600, 90, 18)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Emit, Worker: 0, K: 3},
		fault.Injection{Site: fault.Emit, Worker: 0, K: 6})
	grpField := rec.Field("grp")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grpField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetI64(l, grpField) == object.GetI64(r, grpField)
	}
	_, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
		func(int, object.Ref, object.Ref) error { return nil })
	if err == nil {
		t.Fatal("join crashing past its retry budget succeeded")
	}
	assertNoJoinLeaks(t, c, "failed join")
}

// TestCoPartitionedJoinCrashRecovered crashes the zero-shuffle join over
// two co-partitioned sets once, in the build and in the probe: the local
// inputs are front-end-owned, so the re-forked backend rebuilds or
// re-probes, the emitted matches equal the crash-free run's, each exactly
// once, and the crash counts as the shuffled join's would — "consumer"
// before the table is built, "probe" after.
func TestCoPartitionedJoinCrashRecovered(t *testing.T) {
	run := func(c *Cluster, emp *object.TypeInfo, key func(object.Ref) uint64) ([][]string, *ExecStats) {
		deptField := emp.Field("dept")
		salField := emp.Field("salary")
		eq := func(l, r object.Ref) bool {
			return object.GetStrField(l, deptField) == object.GetStrField(r, deptField)
		}
		perWorker := make([][]string, len(c.Workers))
		var mu sync.Mutex
		stats, err := c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, eq,
			func(workerID int, l, r object.Ref) error {
				mu.Lock()
				perWorker[workerID] = append(perWorker[workerID],
					fmt.Sprintf("%v|%v", object.GetF64(l, salField), object.GetF64(r, salField)))
				mu.Unlock()
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return perWorker, stats
	}
	flatten := func(perWorker [][]string) []string {
		var rows []string
		for _, ws := range perWorker {
			rows = append(rows, ws...)
		}
		return rows
	}
	ref, refEmp, refKey := partitionFixture(t, 400, 60)
	refWorkers, _ := run(ref, refEmp, refKey)
	wantRows := flatten(refWorkers)
	if len(wantRows) == 0 {
		t.Fatal("reference co-partitioned join emitted nothing")
	}
	// Target the first worker that owns enough matches for the injection.
	target := -1
	for w, rows := range refWorkers {
		if len(rows) > 4 {
			target = w
			break
		}
	}
	if target < 0 {
		t.Fatal("no worker owns enough matches to crash")
	}

	// Emit mid-window, ProbePage before anything was emitted, and BuildPage
	// before the table exists.
	for _, cell := range []struct {
		inj  fault.Injection
		role string
	}{
		{fault.Injection{Site: fault.Emit, Worker: target, K: 4}, roleProbe},
		{fault.Injection{Site: fault.ProbePage, Worker: target, K: 0}, roleProbe},
		{fault.Injection{Site: fault.BuildPage, Worker: target, K: 0}, roleConsumer},
	} {
		inj := cell.inj
		c, emp, key := partitionFixture(t, 400, 60)
		c.Cfg.Fault = fault.NewPlan(inj)
		perWorker, stats := run(c, emp, key)
		gotRows := flatten(perWorker)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("the co-partitioned %s crash never fired", inj.Site)
		}
		if stats.Retries != 1 || stats.RoleRetries[cell.role] != 1 {
			t.Errorf("%s: %d retries (%v), want the one recovered crash counted as %q",
				inj.Site, stats.Retries, stats.RoleRetries, cell.role)
		}
		if b := stats.Ships[0].Bytes; b != 0 {
			t.Errorf("%s: the recovered co-partitioned join shipped %d bytes", inj.Site, b)
		}
		if !equalRows(gotRows, wantRows) {
			t.Errorf("%s: recovered co-partitioned join differs from crash-free run (%d vs %d pairs)",
				inj.Site, len(gotRows), len(wantRows))
		}
	}
}
