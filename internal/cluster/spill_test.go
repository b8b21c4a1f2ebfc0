package cluster

// Memory-governor acceptance tests: every streaming workload must produce
// bit-for-bit identical results with Config.MemoryBudget squeezed to a
// single page, the surfaced MaxBufferedBytes gauge must honor the budget,
// and a finished job — crashed, recovered, or clean — must leave no spill
// file behind.

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/object"
)

// spillBudget is the test budget: exactly one 1<<12 page, the smallest
// ladder rung the acceptance criteria name.
const spillBudget = 1 << 12

// assertSpillShips asserts the execution actually spilled and that no
// consumer's resident footprint exceeded the budget.
func assertSpillShips(t *testing.T, stats *ExecStats, label string) {
	t.Helper()
	var spilled, maxBuffered int64
	for _, s := range stats.Ships {
		spilled += s.SpilledPages
		if s.MaxBufferedBytes > maxBuffered {
			maxBuffered = s.MaxBufferedBytes
		}
		if s.MaxBufferedBytes > spillBudget {
			t.Errorf("%s: stage %d buffered %d bytes, budget is %d", label, s.Stage, s.MaxBufferedBytes, spillBudget)
		}
	}
	if spilled == 0 {
		t.Errorf("%s: a one-page budget spilled nothing", label)
	}
	if maxBuffered == 0 {
		t.Errorf("%s: MaxBufferedBytes gauge never recorded", label)
	}
}

// TestSpillAggIdentityOnePageBudget runs the streaming aggregation with
// MemoryBudget = 1 page and asserts the result rows are bit-for-bit
// identical to the unbounded run's.
func TestSpillAggIdentityOnePageBudget(t *testing.T) {
	// High cardinality so the shuffled map pages fill to ~PageSize: two
	// consecutive full pages exceed a one-page budget in every schedule,
	// making the spill deterministic (tiny maps could be drained fast
	// enough to never cross the budget).
	const n, groups = 4000, 499
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	cfg := base
	cfg.MemoryBudget = spillBudget
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	gotRows, stats := runIntAgg(t, c, rec, nil)
	if !equalRows(gotRows, wantRows) {
		t.Errorf("governed run differs from unbounded run (%d vs %d rows)", len(gotRows), len(wantRows))
	}
	assertSpillShips(t, stats, "one-page budget")
	if c.Transport.Stats().SpilledPages == 0 || c.Transport.Stats().SpilledBytes == 0 {
		t.Error("transport spill counters not recorded")
	}
}

// TestConsumerCrashRecoverySpillAggMerge crashes a consumer mid-merge
// while the whole shuffle runs under a one-page budget: recovery must
// rewind, reload evicted retained pages from disk, and still produce
// bit-for-bit the unbounded crash-free rows.
func TestConsumerCrashRecoverySpillAggMerge(t *testing.T) {
	const n, groups = 4000, 499 // full map pages: see identity test
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	cfg := base
	cfg.MemoryBudget = spillBudget
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", n, groups)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: 3})
	gotRows, stats := runIntAgg(t, c, rec, nil)
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the consumer crash never fired")
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want 1", stats.ConsumerRecoveries)
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("recovered governed run differs from unbounded crash-free run (%d vs %d rows)",
			len(gotRows), len(wantRows))
	}
	assertSpillShips(t, stats, "spilling recovery")
}

// TestConsumerCrashRecoverySpillDataDir repeats the mid-merge crash on a
// disk-backed cluster under a one-page budget: lane and retained pages
// ride the _spill pool, and the recovered rows still match a crash-free
// unbounded disk-backed run.
func TestConsumerCrashRecoverySpillDataDir(t *testing.T) {
	mk := func(dir string, budget int64) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
			DataDir: dir, MemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 3000, 499) // full map pages: see identity test
		return c, rec
	}
	ref, refRec := mk(t.TempDir(), 0)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	dir := t.TempDir()
	c, rec := mk(dir, spillBudget)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 0, K: 3})
	gotRows, stats := runIntAgg(t, c, rec, nil)
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the consumer crash never fired")
	}
	if stats.ConsumerRecoveries != 1 {
		t.Errorf("consumer recoveries = %d, want 1", stats.ConsumerRecoveries)
	}
	if !equalRows(gotRows, wantRows) {
		t.Error("disk-backed governed recovery differs from crash-free unbounded run")
	}
	assertSpillShips(t, stats, "DataDir recovery")
	// The step closed its pools: no _spill directory may survive.
	assertNoSpillDirs(t, dir)
}

// TestConsumerCrashRecoverySpillJoinBuild crashes the join's streaming
// table build under a one-page budget: the retry must replay both
// (spilled) streams from page 0 and emit matches bit-for-bit identical to
// the unbounded crash-free join.
func TestConsumerCrashRecoverySpillJoinBuild(t *testing.T) {
	const left, right, groups = 600, 90, 18
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "left", left, groups)
	loadIntRows(t, ref, refRec, "db", "right", right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)

	cfg := base
	cfg.MemoryBudget = spillBudget
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "left", left, groups)
	loadIntRows(t, c, rec, "db", "right", right, groups)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.BuildPage, Worker: 0, K: 1})
	gotRows := joinPairsByWorker(t, c, rec)
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the build crash never fired")
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("recovered governed join differs from unbounded crash-free join (%d vs %d pairs)",
			len(gotRows), len(wantRows))
	}
	if c.Transport.Stats().SpilledPages == 0 {
		t.Error("a one-page budget spilled nothing on the join shuffles")
	}
	if c.Transport.Stats().MaxBufferedBytes == 0 || c.Transport.Stats().MaxBufferedBytes > spillBudget {
		t.Errorf("join MaxBufferedBytes = %d, want in (0, %d]", c.Transport.Stats().MaxBufferedBytes, spillBudget)
	}
}

// assertNoSpillDirs fails if any worker's _spill directory survived under
// dir.
func assertNoSpillDirs(t *testing.T, dir string) {
	t.Helper()
	leaks, err := filepath.Glob(filepath.Join(dir, "worker-*", "_spill"))
	if err != nil {
		t.Fatal(err)
	}
	for _, leak := range leaks {
		entries, _ := os.ReadDir(leak)
		t.Errorf("stray spill dir %s (%d files) after the job finished", leak, len(entries))
	}
}

// TestSpillFileLeak runs governed aggregation and join jobs — including a
// crash-recovered one — and asserts no spill file survives them, in both
// DataDir and temp-dir mode.
func TestSpillFileLeak(t *testing.T) {
	tmpBefore, err := filepath.Glob(filepath.Join(os.TempDir(), "pcspill-*"))
	if err != nil {
		t.Fatal(err)
	}

	// DataDir mode: spill pools live under worker-N/_spill.
	dir := t.TempDir()
	c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		DataDir: dir, MemoryBudget: spillBudget})
	if err != nil {
		t.Fatal(err)
	}
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 3000, 499)
	if rows, _ := runIntAgg(t, c, rec, nil); len(rows) != 499 {
		t.Fatalf("aggregation produced %d groups, want 499", len(rows))
	}
	loadIntRows(t, c, rec, "db", "left", 600, 12)
	loadIntRows(t, c, rec, "db", "right", 90, 12)
	if pairs := joinPairsByWorker(t, c, rec); len(pairs) == 0 {
		t.Fatal("join emitted nothing")
	}
	assertNoSpillDirs(t, dir)

	// Temp-dir mode (no DataDir): pools are pcspill-* temp dirs, removed
	// at step end even when the consumer crashed and recovered.
	c2, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		MemoryBudget: spillBudget})
	if err != nil {
		t.Fatal(err)
	}
	rec2 := intRecType(c2)
	loadIntRows(t, c2, rec2, "db", "rows", 3000, 499)
	c2.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: 3})
	if rows, _ := runIntAgg(t, c2, rec2, nil); len(rows) != 499 {
		t.Fatalf("recovered aggregation produced %d groups, want 499", len(rows))
	}
	tmpAfter, err := filepath.Glob(filepath.Join(os.TempDir(), "pcspill-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmpAfter) != len(tmpBefore) {
		t.Errorf("temp spill dirs grew from %d to %d — pools leaked", len(tmpBefore), len(tmpAfter))
	}
}
