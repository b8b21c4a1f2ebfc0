package cluster

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
)

// loadIntRowsOff is loadIntRows with a group offset: n rows of
// (off + i%groups, i), so two sets can overlap on part of their key ranges
// (the outer-join fixtures need unmatched rows on both sides).
func loadIntRowsOff(t *testing.T, c *Cluster, rec *object.TypeInfo, db, set string, n, groups, off int) {
	t.Helper()
	loadIntRowsKeyed(t, c, rec, db, set, n, groups, off, "")
}

// joinKeyOn/joinEqOn/joinPairString are the join-test lambdas over the
// (grp, val) record.
func joinKeyOn(rec *object.TypeInfo) func(object.Ref) uint64 {
	grp := rec.Field("grp")
	return func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grp)))
	}
}

func joinEqOn(rec *object.TypeInfo) func(l, r object.Ref) bool {
	grp := rec.Field("grp")
	return func(l, r object.Ref) bool {
		return object.GetI64(l, grp) == object.GetI64(r, grp)
	}
}

func joinPairString(rec *object.TypeInfo, l, r object.Ref) string {
	val := rec.Field("val")
	return fmt.Sprintf("%d|%d", object.GetI64(l, val), object.GetI64(r, val))
}

// runJoinKind runs HashPartitionJoinKind over db.left ⋈ db.right on grp and
// returns the emitted pairs as "lval|rval" strings ("-" for a null-extended
// side), flattened in worker order — per worker the sequence is
// deterministic, so the flattening is too.
func runJoinKind(t *testing.T, c *Cluster, rec *object.TypeInfo, kind core.JoinKind) []string {
	t.Helper()
	rows, err := joinKindRows(c, rec, kind)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// joinKindRows is runJoinKind returning the join's error instead of failing
// the test.
func joinKindRows(c *Cluster, rec *object.TypeInfo, kind core.JoinKind) ([]string, error) {
	grpField := rec.Field("grp")
	valField := rec.Field("val")
	key := func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, grpField)))
	}
	eq := func(l, r object.Ref) bool {
		return object.GetI64(l, grpField) == object.GetI64(r, grpField)
	}
	side := func(r object.Ref) string {
		if r == object.NilRef {
			return "-"
		}
		return fmt.Sprintf("%d", object.GetI64(r, valField))
	}
	perWorker := make([][]string, len(c.Workers))
	var mu sync.Mutex
	_, err := c.HashPartitionJoinKind(kind, "db", "left", "db", "right", key, key, eq,
		func(workerID int, l, r object.Ref) error {
			mu.Lock()
			perWorker[workerID] = append(perWorker[workerID], side(l)+"|"+side(r))
			mu.Unlock()
			return nil
		})
	if err != nil {
		return nil, err
	}
	var rows []string
	for _, ws := range perWorker {
		rows = append(rows, ws...)
	}
	return rows, nil
}

// joinKindReference nested-loops the logical row sets and returns the
// kind's expected emit multiset (sorted; emit order across workers is the
// cluster's own business, the multiset is the semantics).
func joinKindReference(kind core.JoinKind, ln, lg, rn, rg, roff int) []string {
	type row struct{ grp, val int }
	var left, right []row
	for i := 0; i < ln; i++ {
		left = append(left, row{i % lg, i})
	}
	for i := 0; i < rn; i++ {
		right = append(right, row{roff + i%rg, i})
	}
	var out []string
	rightMatched := make([]bool, len(right))
	for _, l := range left {
		matched := false
		for ri, r := range right {
			if l.grp != r.grp {
				continue
			}
			rightMatched[ri] = true
			switch kind {
			case core.JoinSemi:
				if !matched {
					out = append(out, fmt.Sprintf("%d|%d", l.val, r.val))
				}
			case core.JoinAnti:
				// membership only
			default:
				out = append(out, fmt.Sprintf("%d|%d", l.val, r.val))
			}
			matched = true
		}
		if !matched && (kind == core.JoinAnti || kind == core.JoinLeft || kind == core.JoinFull) {
			out = append(out, fmt.Sprintf("%d|-", l.val))
		}
	}
	if kind == core.JoinRight || kind == core.JoinFull {
		for ri, r := range right {
			if !rightMatched[ri] {
				out = append(out, fmt.Sprintf("-|%d", r.val))
			}
		}
	}
	sort.Strings(out)
	return out
}

var joinKinds = []struct {
	kind core.JoinKind
	name string
}{
	{core.JoinInner, "inner"}, {core.JoinLeft, "left"}, {core.JoinSemi, "semi"},
	{core.JoinAnti, "anti"}, {core.JoinRight, "right"}, {core.JoinFull, "full"},
}

// TestJoinKindsMatchReference pins every join kind's emit multiset against
// a nested-loop reference, on a corpus with unmatched rows on both sides
// (left groups 0..11, right groups 8..15).
func TestJoinKindsMatchReference(t *testing.T) {
	const ln, lg, rn, rg, roff = 120, 12, 48, 8, 8
	for _, cell := range []struct{ workers, threads int }{
		{1, 1}, {2, 2}, {4, 8},
	} {
		c, err := New(Config{Workers: cell.workers, Threads: cell.threads,
			PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		loadIntRowsOff(t, c, rec, "db", "left", ln, lg, 0)
		loadIntRowsOff(t, c, rec, "db", "right", rn, rg, roff)
		for _, jk := range joinKinds {
			got := runJoinKind(t, c, rec, jk.kind)
			sort.Strings(got)
			want := joinKindReference(jk.kind, ln, lg, rn, rg, roff)
			if !equalRows(got, want) {
				t.Errorf("w=%d t=%d %s: emit multiset differs (%d vs %d rows)",
					cell.workers, cell.threads, jk.name, len(got), len(want))
			}
		}
	}
}

// TestJoinKindsCoPartitionedMatchShuffled runs every kind over the same
// rows loaded two ways: round-robin, which the join shuffles, and labelled
// co-partitioned on grp, which it joins where they are stored. Each kind
// finds the same pairs both ways, and the labelled load ships nothing.
func TestJoinKindsCoPartitionedMatchShuffled(t *testing.T) {
	const ln, lg, rn, rg, roff = 120, 12, 48, 8, 8
	for _, cell := range []struct{ workers, threads int }{{1, 1}, {2, 2}, {4, 8}} {
		load := func(label string) (*Cluster, *object.TypeInfo) {
			c, err := New(Config{Workers: cell.workers, Threads: cell.threads, PageSize: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			rec := intRecType(c)
			loadIntRowsKeyed(t, c, rec, "db", "left", ln, lg, 0, label)
			loadIntRowsKeyed(t, c, rec, "db", "right", rn, rg, roff, label)
			return c, rec
		}
		shufC, shufRec := load("")
		coC, coRec := load("grp")
		for _, jk := range joinKinds {
			label := fmt.Sprintf("w=%d t=%d %s", cell.workers, cell.threads, jk.name)
			shuf := runJoinKind(t, shufC, shufRec, jk.kind)
			before := coC.Transport.Stats().BytesShipped
			co := runJoinKind(t, coC, coRec, jk.kind)
			if shipped := coC.Transport.Stats().BytesShipped - before; shipped != 0 {
				t.Errorf("%s: the co-partitioned join shipped %d bytes", label, shipped)
			}
			sort.Strings(shuf)
			sort.Strings(co)
			if len(co) == 0 || !equalRows(co, shuf) {
				t.Errorf("%s: co-partitioned pairs differ from shuffled (%d vs %d rows)", label, len(co), len(shuf))
			}
		}
	}
}

// TestJoinKindsDeterministicOrder pins each kind's per-worker emit ORDER
// across thread counts: the flattened worker-order sequence at any thread
// count must be bit-for-bit the 1-thread schedule's.
func TestJoinKindsDeterministicOrder(t *testing.T) {
	const ln, lg, rn, rg, roff = 120, 12, 48, 8, 8
	build := func(threads int) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: threads, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		loadIntRowsOff(t, c, rec, "db", "left", ln, lg, 0)
		loadIntRowsOff(t, c, rec, "db", "right", rn, rg, roff)
		return c, rec
	}
	for _, jk := range joinKinds {
		refC, refRec := build(1)
		ref := runJoinKind(t, refC, refRec, jk.kind)
		for _, threads := range []int{2, 8} {
			c, rec := build(threads)
			got := runJoinKind(t, c, rec, jk.kind)
			if !equalRows(got, ref) {
				t.Errorf("%s t=%d: emit order differs from 1-thread schedule (%d vs %d rows)",
					jk.name, threads, len(got), len(ref))
			}
		}
	}
}

// TestOuterJoinCrashRecovery crashes a consumer backend at every
// outer-join-relevant fault site — including the new ProbeBitmap site, hit
// as the probe marks a build row matched — and asserts the right/full
// joins recover with emit sequences bit-for-bit identical to the
// crash-free run, exactly-once, with no leaked spill slots or _ckpt sets.
func TestOuterJoinCrashRecovery(t *testing.T) {
	// Big enough that both sides span several client pages, so every
	// worker produces and consumes multiple shuffle pages per side.
	const ln, lg, rn, rg, roff = 600, 12, 240, 8, 8
	build := func() (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 2, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		if err := c.CreateDatabase("db"); err != nil {
			t.Fatal(err)
		}
		loadIntRowsOff(t, c, rec, "db", "left", ln, lg, 0)
		loadIntRowsOff(t, c, rec, "db", "right", rn, rg, roff)
		return c, rec
	}
	for _, jk := range []struct {
		kind core.JoinKind
		name string
	}{{core.JoinRight, "right"}, {core.JoinFull, "full"}} {
		refC, refRec := build()
		want := runJoinKind(t, refC, refRec, jk.kind)
		if len(want) == 0 {
			t.Fatalf("%s: reference emitted nothing", jk.name)
		}
		for _, site := range []fault.Site{fault.BuildPage, fault.ProbePage, fault.ProbeBitmap, fault.Emit} {
			ks := []int{0, 3}
			if site == fault.BuildPage || site == fault.ProbePage {
				// The small corpus delivers only a couple of pages per
				// consumer; later ordinals would never fire.
				ks = []int{0, 1}
			}
			for _, k := range ks {
				c, rec := build()
				c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: site, Worker: 0, K: k})
				got := runJoinKind(t, c, rec, jk.kind)
				label := fmt.Sprintf("%s %s k=%d", jk.name, site, k)
				if c.Cfg.Fault.Fired() != 1 {
					t.Fatalf("%s: the crash never fired", label)
				}
				if !equalRows(got, want) {
					t.Errorf("%s: recovered join differs from crash-free join (%d vs %d rows)",
						label, len(got), len(want))
				}
				assertNoJoinLeaks(t, c, label)
			}
		}
	}
}

// TestJoinKindsCheckpointsOff runs every kind with the deprecated
// CheckpointInterval set negative — an ignored setting — with and without a
// memory budget: the per-worker emit order must equal the default run's,
// the multiset the nested-loop reference's, no checkpoint may be counted,
// and under a budget the probe side's retention (the probe buffer while the
// build runs) must be metered and spill.
func TestJoinKindsCheckpointsOff(t *testing.T) {
	const ln, lg, rn, rg, roff = 600, 12, 240, 8, 8
	for _, cell := range []struct{ workers, threads int }{{1, 1}, {2, 2}, {4, 8}} {
		build := func(interval int, budget int64) (*Cluster, *object.TypeInfo) {
			c, err := New(Config{Workers: cell.workers, Threads: cell.threads, PageSize: 1 << 12,
				CheckpointInterval: interval, MemoryBudget: budget})
			if err != nil {
				t.Fatal(err)
			}
			rec := intRecType(c)
			if err := c.CreateDatabase("db"); err != nil {
				t.Fatal(err)
			}
			loadIntRowsOff(t, c, rec, "db", "left", ln, lg, 0)
			loadIntRowsOff(t, c, rec, "db", "right", rn, rg, roff)
			return c, rec
		}
		for _, jk := range joinKinds {
			onC, onRec := build(0, 0)
			want := runJoinKind(t, onC, onRec, jk.kind)
			ref := joinKindReference(jk.kind, ln, lg, rn, rg, roff)
			for _, budget := range []int64{0, spillBudget} {
				label := fmt.Sprintf("w=%d t=%d %s budget=%d", cell.workers, cell.threads, jk.name, budget)
				c, rec := build(-1, budget)
				got := runJoinKind(t, c, rec, jk.kind)
				if !equalRows(got, want) {
					t.Errorf("%s: emit order differs from the default run (%d vs %d rows)", label, len(got), len(want))
				}
				sorted := append([]string(nil), got...)
				sort.Strings(sorted)
				if !equalRows(sorted, ref) {
					t.Errorf("%s: emit multiset differs from the reference (%d vs %d rows)", label, len(sorted), len(ref))
				}
				ts := c.Transport.Stats()
				if ts.Checkpoints != 0 {
					t.Errorf("%s: %d checkpoints counted at a negative interval", label, ts.Checkpoints)
				}
				if budget > 0 && (ts.SpilledPages == 0 || ts.MaxBufferedBytes == 0 || ts.MaxBufferedBytes > budget) {
					t.Errorf("%s: spilled %d pages, MaxBufferedBytes %d, want spills and a gauge in (0, %d]",
						label, ts.SpilledPages, ts.MaxBufferedBytes, budget)
				}
				assertNoJoinLeaks(t, c, label)
			}
		}
	}
}

// TestJoinCheckpointsOffCrashRecovers crashes the consumer of a join with
// the deprecated CheckpointInterval set negative — an ignored setting — at
// each of its sites, under a one-page budget: the retry replays its
// retained streams from page 0 — the emitted pairs equal the crash-free
// run's, no checkpoint is counted, and no spill slot leaks.
func TestJoinCheckpointsOffCrashRecovers(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12,
		CheckpointInterval: -1, MemoryBudget: spillBudget}
	ref, refRec := joinFixture(t, cfg, 600, 90, 18)
	want := runJoinKind(t, ref, refRec, core.JoinInner)
	for _, site := range []fault.Site{fault.BuildPage, fault.ProbePage, fault.Emit} {
		c, rec := joinFixture(t, cfg, 600, 90, 18)
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: site, Worker: 0, K: 1})
		got := runJoinKind(t, c, rec, core.JoinInner)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("%s: the crash never fired", site)
		}
		if !equalRows(got, want) {
			t.Errorf("%s: recovered join differs from the crash-free run (%d vs %d rows)", site, len(got), len(want))
		}
		if n := c.Transport.Stats().Checkpoints; n != 0 {
			t.Errorf("%s: %d checkpoints counted at a negative interval", site, n)
		}
		assertNoJoinLeaks(t, c, "no cuts, "+site.String())
	}
}
