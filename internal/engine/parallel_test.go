package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/race"
)

// buildI64Pages fills pages with n I64Holder objects valued 0..n-1.
func buildI64Pages(t testing.TB, reg *object.Registry, pageSize, n int) ([]*object.Page, *object.TypeInfo) {
	t.Helper()
	ti := reg.LookupName("I64Holder")
	if ti == nil {
		ti = object.NewStruct("I64Holder").AddField("v", object.KInt64).MustBuild(reg)
	}
	pages, err := object.BuildPages(reg, pageSize, n, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(ti)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, ti.Field("v"), int64(i))
		return r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages, ti
}

func TestBatchRangesCoverEveryRowInOrder(t *testing.T) {
	reg := object.NewRegistry()
	pages, ti := buildI64Pages(t, reg, 1<<12, 1000)
	if len(pages) < 2 {
		t.Fatalf("want multiple pages, got %d", len(pages))
	}
	ranges := BatchRanges(pages, 64)
	var got []int64
	for _, r := range ranges {
		if r.Rows() <= 0 || r.Rows() > 64 {
			t.Fatalf("range rows = %d, want (0,64]", r.Rows())
		}
		root := object.AsVector(object.Ref{Page: r.Page, Off: r.Page.Root()})
		for i := r.Start; i < r.End; i++ {
			got = append(got, object.GetI64(root.HandleAt(i), ti.Field("v")))
		}
	}
	if len(got) != 1000 {
		t.Fatalf("ranges cover %d rows, want 1000", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d: ranges out of order", i, v)
		}
	}
}

func TestSplitRangesContiguousAndComplete(t *testing.T) {
	reg := object.NewRegistry()
	pages, _ := buildI64Pages(t, reg, 1<<12, 700)
	ranges := BatchRanges(pages, 32)
	for _, threads := range []int{1, 2, 3, 7, 16, 1000} {
		chunks := SplitRanges(ranges, threads)
		if len(chunks) > threads {
			t.Fatalf("threads=%d: %d chunks", threads, len(chunks))
		}
		if len(chunks) > len(ranges) {
			t.Fatalf("threads=%d: more chunks than batches", threads)
		}
		// Concatenating the chunks must reproduce the range list
		// exactly (contiguity in source order).
		var flat []PageRange
		for _, ch := range chunks {
			if len(ch) == 0 {
				t.Fatalf("threads=%d: empty chunk", threads)
			}
			flat = append(flat, ch...)
		}
		if !reflect.DeepEqual(flat, ranges) {
			t.Fatalf("threads=%d: chunks are not a contiguous partition", threads)
		}
	}
	if got := SplitRanges(nil, 4); got != nil {
		t.Fatalf("SplitRanges(nil) = %v, want nil", got)
	}
}

// TestSplitRangesSkewedTail guards the rebalancing rule: a huge batch at
// the tail must not be glued onto an already-full chunk (which would
// serialize the stage onto one thread).
func TestSplitRangesSkewedTail(t *testing.T) {
	mk := func(rows ...int) []PageRange {
		out := make([]PageRange, len(rows))
		for i, r := range rows {
			out[i] = PageRange{Start: 0, End: r}
		}
		return out
	}
	chunks := SplitRanges(mk(1, 1, 100), 2)
	if len(chunks) != 2 {
		t.Fatalf("tail-heavy split produced %d chunks, want 2", len(chunks))
	}
	if len(chunks[0]) != 2 || len(chunks[1]) != 1 || chunks[1][0].Rows() != 100 {
		t.Fatalf("tail-heavy split = %v, want [[1 1] [100]]", chunks)
	}
	chunks = SplitRanges(mk(100, 1, 1), 2)
	if len(chunks) != 2 || len(chunks[0]) != 1 || chunks[0][0].Rows() != 100 {
		t.Fatalf("head-heavy split = %v, want [[100] [1 1]]", chunks)
	}
	// Uniform batches still split evenly.
	chunks = SplitRanges(mk(256, 256, 256, 256), 2)
	if len(chunks) != 2 || len(chunks[0]) != 2 || len(chunks[1]) != 2 {
		t.Fatalf("uniform split = %v, want 2+2", chunks)
	}
}

// TestScanRangesScratchReuseIsInvisible asserts the scratch-reusing scan
// delivers the same batches as a naive per-batch allocation would, even
// when the callback appends columns to the reused vector list (as the join
// drivers do).
func TestScanRangesScratchReuseIsInvisible(t *testing.T) {
	reg := object.NewRegistry()
	pages, ti := buildI64Pages(t, reg, 1<<12, 500)
	var got []int64
	err := ScanPages(pages, "obj", 64, func(vl *VectorList) error {
		rc := vl.Col("obj").(RefCol)
		extra := make(U64Col, len(rc))
		vl.Append("h", extra) // must not corrupt the next batch
		for _, r := range rc {
			got = append(got, object.GetI64(r, ti.Field("v")))
		}
		if vl.Col("h") == nil {
			return errors.New("appended column lost")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("scanned %d rows, want 500", len(got))
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d, want %d", i, v, i)
		}
	}
}

func TestParallelThreadsScanMatchesSequentialOrder(t *testing.T) {
	reg := object.NewRegistry()
	pages, ti := buildI64Pages(t, reg, 1<<12, 900)
	ranges := BatchRanges(pages, 32)

	var seq []int64
	if err := ScanRanges(ranges, "obj", func(vl *VectorList) error {
		for _, r := range vl.Col("obj").(RefCol) {
			seq = append(seq, object.GetI64(r, ti.Field("v")))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, threads := range []int{2, 4, 8} {
		chunks := SplitRanges(ranges, threads)
		perThread := make([][]int64, len(chunks))
		err := ParallelThreads(len(chunks), func(th int, _ <-chan struct{}) error {
			return ScanRanges(chunks[th], "obj", func(vl *VectorList) error {
				for _, r := range vl.Col("obj").(RefCol) {
					perThread[th] = append(perThread[th], object.GetI64(r, ti.Field("v")))
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Thread-order concatenation must equal the sequential scan.
		var flat []int64
		for _, rows := range perThread {
			flat = append(flat, rows...)
		}
		if !reflect.DeepEqual(flat, seq) {
			t.Fatalf("threads=%d: parallel order differs from sequential", threads)
		}
	}
}

func TestParallelThreadsPropagatesErrorsAndClosesStop(t *testing.T) {
	boom := errors.New("boom")
	stopSeen := make([]bool, 4)
	var entered sync.WaitGroup
	entered.Add(4)
	err := ParallelThreads(4, func(th int, stop <-chan struct{}) error {
		entered.Done()
		if th == 1 {
			// Fail only once every sibling is inside the body, so none
			// can early-abort before blocking on stop.
			entered.Wait()
			return boom
		}
		// Siblings must observe the closed stop channel.
		<-stop
		stopSeen[th] = true
		return ErrAborted
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom (ErrAborted must not mask it)", err)
	}
	for th, seen := range stopSeen {
		if th != 1 && !seen {
			t.Errorf("thread %d never saw the stop channel close", th)
		}
	}
}

func TestParallelThreadsRePanicsOnCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "thread bug" {
			t.Fatalf("recovered %v, want thread bug", r)
		}
	}()
	_ = ParallelThreads(4, func(th int, stop <-chan struct{}) error {
		if th == 2 {
			panic("thread bug")
		}
		<-stop // released when the panicking sibling trips the abort
		return ErrAborted
	})
	t.Fatal("expected re-panic")
}

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

// TestStreamPagesDealsWithoutCuts drives the one fan-out — the dispatch of
// the join build and of the aggregation merge — broadcast and round-robin,
// inline and threaded: every thread folds its pages in delivery order, each
// page once per consumer.
func TestStreamPagesDealsWithoutCuts(t *testing.T) {
	reg := object.NewRegistry()
	const n = 23
	pages := intPages(t, reg, n)
	for _, threads := range []int{1, 2, 8} {
		for _, broadcast := range []bool{true, false} {
			label := fmt.Sprintf("threads=%d broadcast=%v", threads, broadcast)
			perThread := make([][]int64, threads)
			err := streamPages(SliceSource(pages), threads, broadcast,
				func(th int, p *object.Page) error {
					perThread[th] = append(perThread[th], pageTag(p))
					return nil
				})
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

// TestStreamPagesPanicWithoutCuts checks the crash discipline: a fold panic re-raises on the caller, and the dispatcher has torn
// every consumer thread down by then — a panicking source included.
func TestStreamPagesPanicWithoutCuts(t *testing.T) {
	reg := object.NewRegistry()
	pages := intPages(t, reg, 40)
	before := runtime.NumGoroutine()
	crash := func(next func() (*object.Page, bool, error), body func(int, *object.Page) error) (r any) {
		defer func() { r = recover() }()
		_ = streamPages(next, 4, true, body)
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

// TestStreamPagesErrors: at every thread count a fold's error comes back
// naming its consumer thread, and the source's error as it is.
func TestStreamPagesErrors(t *testing.T) {
	reg := object.NewRegistry()
	pages := intPages(t, reg, 23)
	boom, lost := errors.New("boom"), errors.New("lane lost")
	for _, threads := range []int{1, 3} {
		bad := threads - 1
		err := streamPages(SliceSource(pages), threads, false, func(th int, p *object.Page) error {
			if th == bad && pageTag(p) >= 10 {
				return boom
			}
			return nil
		})
		want := "boom"
		if threads > 1 {
			want = fmt.Sprintf("stream consumer thread %d: boom", bad)
		}
		if !errors.Is(err, boom) || err.Error() != want {
			t.Errorf("threads=%d: fold error %v, want %q", threads, err, want)
		}
		src := SliceSource(pages)
		err = streamPages(func() (*object.Page, bool, error) {
			p, ok, err := src()
			if ok && pageTag(p) == 9 {
				return nil, false, lost
			}
			return p, ok, err
		}, threads, true, func(int, *object.Page) error { return nil })
		if err != lost {
			t.Errorf("threads=%d: source error %v, want %v as it is", threads, err, lost)
		}
	}
}

// TestAppendRangesReuseMatchesFresh: the appending forms of BatchRanges and
// SplitRanges, fed arrays left over from a larger call, produce exactly
// what the allocating forms do.
func TestAppendRangesReuseMatchesFresh(t *testing.T) {
	reg := object.NewRegistry()
	pages, _ := buildI64Pages(t, reg, 1<<12, 700)
	ranges := AppendBatchRanges(nil, pages, 32)
	chunks := AppendSplitRanges(nil, ranges, 7)
	for _, threads := range []int{1, 2, 3} {
		for _, n := range []int{len(pages), 1} {
			want := BatchRanges(pages[:n], 32)
			ranges = AppendBatchRanges(ranges[:0], pages[:n], 32)
			if !reflect.DeepEqual(ranges, want) {
				t.Fatalf("%d pages: reused ranges differ", n)
			}
			chunks = AppendSplitRanges(chunks[:0], ranges, threads)
			if wantChunks := SplitRanges(want, threads); !reflect.DeepEqual(chunks, wantChunks) {
				t.Fatalf("%d pages, %d threads: reused chunks %v, want %v", n, threads, chunks, wantChunks)
			}
		}
	}
}

// TestTeamRunsEveryThread: each Run calls the body once on every thread,
// thread 0 on the caller; an error is returned tagged with its thread and
// the team runs again after it; a panic re-raises on the caller after
// every thread is done; Close stops the threads.
func TestTeamRunsEveryThread(t *testing.T) {
	before := runtime.NumGoroutine()
	tm := NewTeam(3)
	var mu sync.Mutex
	calls := map[int]int{}
	count := func(th int, _ <-chan struct{}) error {
		mu.Lock()
		calls[th]++
		mu.Unlock()
		return nil
	}
	for i := 0; i < 5; i++ {
		if err := tm.Run(count); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(calls, map[int]int{0: 5, 1: 5, 2: 5}) {
		t.Fatalf("calls per thread = %v, want 5 each", calls)
	}

	boom := errors.New("boom")
	if err := tm.Run(func(th int, _ <-chan struct{}) error {
		if th == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) || err.Error() != "executor thread 2: boom" {
		t.Fatalf("err = %v, want thread 2's boom", err)
	}
	if err := tm.Run(count); err != nil {
		t.Fatalf("a run after an error failed: %v", err)
	}

	var finished atomic.Bool
	func() {
		defer func() {
			if r := recover(); r != "thread bug" {
				t.Fatalf("recovered %v, want thread bug", r)
			}
			if !finished.Load() {
				t.Error("the panic re-raised before thread 2 finished")
			}
		}()
		_ = tm.Run(func(th int, _ <-chan struct{}) error {
			switch th {
			case 1:
				panic("thread bug")
			case 2:
				time.Sleep(10 * time.Millisecond)
				finished.Store(true)
			}
			return nil
		})
		t.Fatal("expected re-panic")
	}()
	tm.Close()
	// A thread has returned from Close's wait before the runtime counts
	// it gone; under -race that lag is visible, so give it 100 ms.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after Close, %d before NewTeam", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	NewTeam(1).Close() // a one-thread team starts no goroutine
}

// TestTeamStopClosesOnSiblingFailure: a Run's stop channel closes when one
// thread returns an error and when one panics (the panic still re-raising
// on the caller), the next Run gets an open one, and neither a warm Run
// after a tripped one nor ParallelThreads(1, …) allocates.
func TestTeamStopClosesOnSiblingFailure(t *testing.T) {
	tm := NewTeam(3)
	defer tm.Close()
	boom := errors.New("boom")
	waitStop := func(stop <-chan struct{}) error {
		select {
		case <-stop:
			return ErrAborted
		case <-time.After(10 * time.Second):
			return errors.New("stop never closed")
		}
	}
	if err := tm.Run(func(th int, stop <-chan struct{}) error {
		if th == 1 {
			return boom
		}
		return waitStop(stop)
	}); !errors.Is(err, boom) || err.Error() != "executor thread 1: boom" {
		t.Fatalf("err = %v, want thread 1's boom", err)
	}

	func() {
		defer func() {
			if r := recover(); r != "thread bug" {
				t.Fatalf("recovered %v, want thread bug", r)
			}
		}()
		_ = tm.Run(func(th int, stop <-chan struct{}) error {
			if th == 2 {
				panic("thread bug")
			}
			return waitStop(stop)
		})
		t.Fatal("expected re-panic")
	}()

	var open atomic.Int32
	if err := tm.Run(func(th int, stop <-chan struct{}) error {
		select {
		case <-stop:
		default:
			if stop != nil {
				open.Add(1)
			}
		}
		return nil
	}); err != nil || open.Load() != 3 {
		t.Fatalf("after a tripped run: err %v, %d of 3 threads saw an open stop", err, open.Load())
	}

	if race.Enabled {
		return // allocation counts are not meaningful under the race detector
	}
	_ = tm.Run(func(th int, _ <-chan struct{}) error { return boom })
	noop := func(int, <-chan struct{}) error { return nil }
	if allocs := testing.AllocsPerRun(20, func() { _ = tm.Run(noop) }); allocs != 0 {
		t.Errorf("a warm Run after a tripped one allocates %v objects, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = ParallelThreads(1, noop) }); allocs != 0 {
		t.Errorf("ParallelThreads(1, …) allocates %v objects, want 0", allocs)
	}
}
