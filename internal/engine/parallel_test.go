package engine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/object"
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
