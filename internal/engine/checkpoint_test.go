package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/race"
)

// intPages builds n tiny pages tagged 0..n-1 through the shared test
// helper used by the agg stream tests.
func intPages(t *testing.T, reg *object.Registry, n int) []*object.Page {
	t.Helper()
	ti := object.NewStruct(fmt.Sprintf("CkptPage%d", n)).AddField("id", object.KInt64).MustBuild(reg)
	pages := make([]*object.Page, n)
	for i := range pages {
		p := object.NewPage(1<<12, reg)
		a := object.NewAllocator(p)
		root, err := object.MakeVector(a, object.KHandle, 0)
		if err != nil {
			t.Fatal(err)
		}
		root.Retain()
		p.SetRoot(root.Off)
		o, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		object.SetI64(o, ti.Field("id"), int64(i))
		if err := root.PushBackHandle(a, o); err != nil {
			t.Fatal(err)
		}
		pages[i] = p
	}
	return pages
}

func pageTag(p *object.Page) int64 {
	root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
	ti := p.Reg.Lookup(root.HandleAt(0).TypeCode())
	return object.GetI64(root.HandleAt(0), ti.Field("id"))
}

// TestStreamPagesCheckpointedCuts checks the cut schedule and the
// deterministic page→thread assignment at several thread counts, for both
// the broadcast (aggregation merge) and round-robin (join build) dealing.
func TestStreamPagesCheckpointedCuts(t *testing.T) {
	reg := object.NewRegistry()
	const n, interval = 10, 3
	pages := intPages(t, reg, n)
	for _, threads := range []int{1, 2, 4} {
		for _, broadcast := range []bool{true, false} {
			perThread := make([][]int64, threads)
			var cuts []int
			err := streamPages(SliceSource(pages), threads, broadcast, 0, interval,
				func(th int, p *object.Page) error {
					perThread[th] = append(perThread[th], pageTag(p))
					return nil
				},
				func(delivered int, _ bool) error {
					cuts = append(cuts, delivered)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{3, 6, 9, 10}; !reflect.DeepEqual(cuts, want) {
				t.Errorf("threads=%d broadcast=%v: cuts = %v, want %v", threads, broadcast, cuts, want)
			}
			for th := 0; th < threads; th++ {
				var want []int64
				for i := 0; i < n; i++ {
					if broadcast || i%threads == th {
						want = append(want, int64(i))
					}
				}
				if !reflect.DeepEqual(perThread[th], want) {
					t.Errorf("threads=%d broadcast=%v thread %d folded %v, want %v",
						threads, broadcast, th, perThread[th], want)
				}
			}
		}
	}
}

// TestStreamPagesCheckpointedResume verifies the recovery contract: a run
// resumed at a cut, fed the stream from that index, folds exactly the pages
// an uncrashed run folds after the cut — on the same threads, in the same
// order — and does not re-emit earlier cuts.
func TestStreamPagesCheckpointedResume(t *testing.T) {
	reg := object.NewRegistry()
	const n, interval, cutAt, threads = 11, 4, 8, 3
	pages := intPages(t, reg, n)
	full := make([][]int64, threads)
	if err := streamPages(SliceSource(pages), threads, false, 0, interval,
		func(th int, p *object.Page) error {
			full[th] = append(full[th], pageTag(p))
			return nil
		}, func(int, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}

	pre := make([][]int64, threads)
	if err := streamPages(SliceSource(pages[:cutAt]), threads, false, 0, interval,
		func(th int, p *object.Page) error {
			pre[th] = append(pre[th], pageTag(p))
			return nil
		}, func(int, bool) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var cuts []int
	if err := streamPages(SliceSource(pages[cutAt:]), threads, false, cutAt, interval,
		func(th int, p *object.Page) error {
			pre[th] = append(pre[th], pageTag(p))
			return nil
		}, func(delivered int, _ bool) error {
			cuts = append(cuts, delivered)
			return nil
		}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pre, full) {
		t.Errorf("resumed folds %v differ from uncrashed %v", pre, full)
	}
	if want := []int{11}; !reflect.DeepEqual(cuts, want) {
		t.Errorf("resumed cuts = %v, want %v (only the epilogue past the cut)", cuts, want)
	}
}

// TestStreamPagesCheckpointedPanic checks the crash discipline: a panic in
// a fold body re-raises on the caller after all threads drain, and no cut
// runs after the failure (the last checkpoint stays the recovery point).
func TestStreamPagesCheckpointedPanic(t *testing.T) {
	reg := object.NewRegistry()
	pages := intPages(t, reg, 10)
	var cuts atomic.Int32
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("fold panic was swallowed")
		}
		if got := cuts.Load(); got != 1 {
			t.Errorf("cuts after crash = %d, want 1 (only the pre-crash cut)", got)
		}
	}()
	_ = streamPages(SliceSource(pages), 2, true, 0, 3,
		func(th int, p *object.Page) error {
			if pageTag(p) == 5 && th == 1 {
				panic("user combine bug")
			}
			return nil
		},
		func(delivered int, _ bool) error {
			cuts.Add(1)
			return nil
		})
	t.Fatal("streamPages returned instead of panicking")
}

// TestStreamPagesDealsWithoutCuts drives the one fan-out with no cut — the
// dispatch of the join build and of a merge that takes no cuts — broadcast
// and round-robin, inline and threaded: the page→thread assignment is the
// checkpointed run's, in delivery order, each page folded once per
// consumer.
func TestStreamPagesDealsWithoutCuts(t *testing.T) {
	reg := object.NewRegistry()
	const n = 23
	pages := intPages(t, reg, n)
	for _, threads := range []int{1, 2, 8} {
		for _, broadcast := range []bool{true, false} {
			label := fmt.Sprintf("threads=%d broadcast=%v", threads, broadcast)
			perThread := make([][]int64, threads)
			err := streamPages(SliceSource(pages), threads, broadcast, 0, 3,
				func(th int, p *object.Page) error {
					perThread[th] = append(perThread[th], pageTag(p))
					return nil
				}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for th := range perThread {
				var want []int64
				for i := 0; i < n; i++ {
					if broadcast || i%threads == th {
						want = append(want, int64(i))
					}
				}
				if !reflect.DeepEqual(perThread[th], want) {
					t.Errorf("%s: thread %d folded %v, want %v", label, th, perThread[th], want)
				}
			}
		}
	}
}

// TestStreamPagesPanicWithoutCuts checks the crash discipline with recovery
// off: a fold panic re-raises on the caller, and the dispatcher has torn
// every consumer thread down by then — a panicking source included.
func TestStreamPagesPanicWithoutCuts(t *testing.T) {
	reg := object.NewRegistry()
	pages := intPages(t, reg, 40)
	before := runtime.NumGoroutine()
	crash := func(next func() (*object.Page, bool, error), body func(int, *object.Page) error) (r any) {
		defer func() { r = recover() }()
		_ = streamPages(next, 4, true, 0, 0, body, nil)
		return nil
	}
	if r := crash(SliceSource(pages), func(th int, p *object.Page) error {
		if pageTag(p) == 17 && th == 2 {
			panic("user combine bug")
		}
		return nil
	}); r != "user combine bug" {
		t.Errorf("fold panic recovered as %v", r)
	}
	src := SliceSource(pages)
	if r := crash(func() (*object.Page, bool, error) {
		p, ok, err := src()
		if ok && pageTag(p) == 9 {
			panic("crash under Recv")
		}
		return p, ok, err
	}, func(int, *object.Page) error { return nil }); r != "crash under Recv" {
		t.Errorf("source panic recovered as %v", r)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMergeAggMapsStreamCheckpointResume is the engine half of the
// consumer-recovery acceptance criterion: a merge restored from a mid-
// stream checkpoint and replayed from the cut produces final sub-map pages
// bit-for-bit identical to an uncrashed run's — sizes, bytes, and
// finalize-visible contents alike.
func TestMergeAggMapsStreamCheckpointResume(t *testing.T) {
	reg := object.NewRegistry()
	spec := &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}
	pages := buildAggPages(t, reg, 1, 6000, 300, 1<<12)
	if len(pages) < 6 {
		t.Fatalf("want a long stream, got %d pages", len(pages))
	}
	const threads, interval = 2, 2
	for _, crashAfter := range []int{0, interval, len(pages)} {
		var checkpoints []*MergeCheckpoint
		refFinals, refPages, err := MergeAggMapsStream(reg, SliceSource(pages), 0, 1,
			spec, 1<<10, nil, threads,
			&MergeCheckpointer{Interval: interval, Save: func(ck *MergeCheckpoint) error {
				checkpoints = append(checkpoints, cloneCheckpoint(ck))
				return nil
			}})
		if err != nil {
			t.Fatal(err)
		}

		// Pick the newest checkpoint at or before the crash point — what
		// the scheduler would restore — and replay from its cut.
		var resume *MergeCheckpoint
		for _, ck := range checkpoints {
			if ck.Cut <= crashAfter {
				resume = ck
			}
		}
		cut := 0
		if resume != nil {
			cut = resume.Cut
		} // resume == nil: crash before the first cut — full replay
		gotFinals, gotPages, err := MergeAggMapsStream(reg, SliceSource(pages[cut:]), 0, 1,
			spec, 1<<10, nil, threads,
			&MergeCheckpointer{Interval: interval, Resume: resume, Save: func(*MergeCheckpoint) error { return nil }})
		if err != nil {
			t.Fatal(err)
		}
		for i := range refPages {
			if len(gotPages[i].Data) != len(refPages[i].Data) {
				t.Errorf("crash@%d: sub-map %d page size %d, want %d",
					crashAfter, i, len(gotPages[i].Data), len(refPages[i].Data))
			}
			if !bytes.Equal(gotPages[i].Bytes(), refPages[i].Bytes()) {
				t.Errorf("crash@%d: sub-map %d page bytes differ from the uncrashed run", crashAfter, i)
			}
		}
		if !reflect.DeepEqual(mergedRows(t, gotFinals), mergedRows(t, refFinals)) {
			t.Errorf("crash@%d: resumed merge contents differ", crashAfter)
		}
	}
}

// cloneCheckpoint copies a cut out of the merge's generations, whose
// buffers the cut after next overwrites.
func cloneCheckpoint(ck *MergeCheckpoint) *MergeCheckpoint {
	c := &MergeCheckpoint{Cut: ck.Cut, Subs: make([]SubMapSnapshot, len(ck.Subs))}
	for i, s := range ck.Subs {
		c.Subs[i] = SubMapSnapshot{PageSize: s.PageSize, Data: bytes.Clone(s.Data)}
	}
	return c
}

// sameCheckpoint fails unless got is want: the same cut and the same bytes.
func sameCheckpoint(t *testing.T, what string, got, want *MergeCheckpoint) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: no cut installed, want cut %d", what, want.Cut)
	}
	if got.Cut != want.Cut || len(got.Subs) != len(want.Subs) {
		t.Fatalf("%s: installed cut %d with %d sub-maps, want cut %d with %d", what, got.Cut, len(got.Subs), want.Cut, len(want.Subs))
	}
	for i, s := range got.Subs {
		if s.PageSize != want.Subs[i].PageSize || !bytes.Equal(s.Data, want.Subs[i].Data) {
			t.Fatalf("%s: sub-map %d of cut %d holds other bytes than the cut saved", what, i, want.Cut)
		}
	}
}

// stableMerge is a typed int64 sum whose pre-aggregated pages all carry the
// same keys, merged onto pages large enough never to grow: after the first
// page the sub-maps' occupied prefixes stop changing, so every cut past the
// first two lands in a buffer that already fits it.
type stableMerge struct {
	reg   *object.Registry
	spec  *AggSpec
	pages []*object.Page
}

const stableMergePage = 1 << 14

func newStableMerge(t *testing.T, n int) *stableMerge {
	t.Helper()
	s := &stableMerge{reg: object.NewRegistry(),
		spec: &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}}
	const keys = 100
	for i := 0; i < n; i++ {
		sink, err := NewAggSink(s.reg, 1<<14, 1, s.spec, "key", "val", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, v := make(I64Col, keys), make(I64Col, keys)
		for j := range k {
			k[j], v[j] = int64(j*7919), int64(i*keys+j)
		}
		if err := sink.Consume(nil, &VectorList{Names: []string{"key", "val"}, Cols: []Column{k, v}}, nil); err != nil {
			t.Fatal(err)
		}
		s.pages = append(s.pages, sink.Pages()...)
	}
	return s
}

// run merges the stream from ckpt's resume cut on two threads.
func (s *stableMerge) run(ckpt *MergeCheckpointer) ([]*object.Page, error) {
	from := 0
	if ckpt.Resume != nil {
		from = ckpt.Resume.Cut
	}
	_, pages, err := MergeAggMapsStream(s.reg, SliceSource(s.pages[from:]), 0, 1, s.spec,
		stableMergePage, nil, 2, ckpt)
	return pages, err
}

// TestMergeResumesFromEveryInstalledCut crashes the merge's Save at every
// cut in turn, with the cuts written into one pair of generations the way
// a recovery record keeps them. The cut installed before the crash must
// still hold its own number and bytes, although the crashed cut was
// written after it; a merge resumed from it and crashed again at its own
// first cut must leave it intact too; and a third life from it must end on
// the uncrashed run's sub-map pages. One buffer for every cut fails this:
// the crashed cut overwrites the installed one.
func TestMergeResumesFromEveryInstalledCut(t *testing.T) {
	const interval = 2
	s := newStableMerge(t, 12)
	var cuts []*MergeCheckpoint
	clean, err := s.run(&MergeCheckpointer{Interval: interval, Save: func(ck *MergeCheckpoint) error {
		cuts = append(cuts, cloneCheckpoint(ck))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i, pg := range clean {
		if len(pg.Data) != stableMergePage {
			t.Fatalf("sub-map %d grew to %d bytes; the test wants buffers that are really reused", i, len(pg.Data))
		}
	}
	errCrash := errors.New("crash in Save")
	for c := 1; c < len(cuts); c++ {
		var gens [2]MergeCheckpoint
		var installed *MergeCheckpoint
		// saves installs cuts until the crash-th, where it fails.
		saves := func(crash int) func(*MergeCheckpoint) error {
			n := 0
			return func(ck *MergeCheckpoint) error {
				if n == crash {
					return errCrash
				}
				n++
				installed = ck
				return nil
			}
		}
		what := fmt.Sprintf("crash at cut %d", cuts[c].Cut)
		if _, err := s.run(&MergeCheckpointer{Interval: interval, Gens: &gens, Save: saves(c)}); !errors.Is(err, errCrash) {
			t.Fatalf("%s: merge returned %v", what, err)
		}
		sameCheckpoint(t, what, installed, cuts[c-1])
		resume := installed
		if _, err := s.run(&MergeCheckpointer{Interval: interval, Resume: resume, Gens: &gens, Save: saves(0)}); !errors.Is(err, errCrash) {
			t.Fatalf("%s, resumed: merge returned %v", what, err)
		}
		sameCheckpoint(t, what+", then at the resumed merge's first cut", installed, cuts[c-1])
		got, err := s.run(&MergeCheckpointer{Interval: interval, Resume: resume, Gens: &gens, Save: saves(-1)})
		if err != nil {
			t.Fatal(err)
		}
		for i := range clean {
			if !bytes.Equal(got[i].Bytes(), clean[i].Bytes()) {
				t.Fatalf("%s: sub-map %d differs from the uncrashed run after the resume", what, i)
			}
		}
	}
}

// TestMergeCutAllocatesNothing is the guard on the generations: once the
// sub-map pages have stopped growing, a cut copies into buffers it already
// owns, so the cuts after the first few allocate no byte.
func TestMergeCutAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const interval, warm = 2, 3
	s := newStableMerge(t, 24)
	var first, last runtime.MemStats
	cuts := 0
	if _, err := s.run(&MergeCheckpointer{Interval: interval, Save: func(*MergeCheckpoint) error {
		cuts++
		switch {
		case cuts == warm:
			runtime.ReadMemStats(&first)
		case cuts > warm:
			runtime.ReadMemStats(&last)
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if cuts < warm+5 {
		t.Fatalf("%d cuts; the guard wants several past the first %d", cuts, warm)
	}
	if n := last.TotalAlloc - first.TotalAlloc; n != 0 {
		t.Errorf("cuts %d..%d of a merge whose pages stopped growing allocated %d bytes (%d objects), want 0",
			warm+1, cuts, n, last.Mallocs-first.Mallocs)
	}
}
