package exchange

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/object"
	"repro/internal/storage"
)

// testGovernor builds a governor over a real storage.SpillPool whose
// budget admits roughly budgetPages of the test pages.
func testGovernor(t *testing.T, reg *object.Registry, ti *object.TypeInfo, budgetPages int) *Governor {
	t.Helper()
	sample := testPage(t, reg, ti, 0)
	budget := int64(budgetPages * len(sample.Bytes()))
	sp := storage.NewSpillPool(filepath.Join(t.TempDir(), "spill"), reg)
	t.Cleanup(func() { _ = sp.Close() })
	return NewGovernor(budget, sp, nil)
}

// sendAll streams pages tagged pages per producer thread through ex and
// closes every lane, one goroutine per thread. Pages are built up front on
// the test goroutine — t.Fatal inside a spawned goroutine would Goexit
// without signalling done and deadlock the drain.
func sendAll(t *testing.T, ex *Exchange, reg *object.Registry, ti *object.TypeInfo, producers, threads, pages int) {
	t.Helper()
	built := make(map[Tag]*object.Page, producers*threads*pages)
	for p := 0; p < producers; p++ {
		for th := 0; th < threads; th++ {
			for seq := 0; seq < pages; seq++ {
				built[Tag{p, th, seq}] = testPage(t, reg, ti, id(p, th, seq))
			}
		}
	}
	done := make(chan error, producers*threads)
	for p := 0; p < producers; p++ {
		for th := 0; th < threads; th++ {
			go func(p, th int) {
				for seq := 0; seq < pages; seq++ {
					tag := Tag{p, th, seq}
					if err := ex.Send(tag, 0, built[tag], nil); err != nil {
						done <- err
						return
					}
				}
				done <- ex.CloseThread(p, th, nil)
			}(p, th)
		}
	}
	go func() {
		for i := 0; i < producers*threads; i++ {
			if err := <-done; err != nil {
				t.Error(err)
			}
		}
		for p := 0; p < producers; p++ {
			ex.CloseProducer(p)
		}
	}()
}

// TestGovernorSpillPreservesDeliveryOrder runs the same stream governed at
// a one-page budget and ungoverned: delivery order and contents must be
// identical, pages must actually have spilled, and the resident gauge must
// honor the budget.
func TestGovernorSpillPreservesDeliveryOrder(t *testing.T) {
	const producers, threads, pages = 2, 2, 6
	reg, ti := testRegistry(t)
	ref := New(Config{Producers: producers, Consumers: 1, Threads: threads, Capacity: 2})
	sendAll(t, ref, reg, ti, producers, threads, pages)
	want := drain(t, ref, 0, ti)

	g := testGovernor(t, reg, ti, 1)
	ex := New(Config{Producers: producers, Consumers: 1, Threads: threads, Capacity: 2,
		Governors: []*Governor{g}})
	sendAll(t, ex, reg, ti, producers, threads, pages)
	got := drain(t, ex, 0, ti)

	if !reflect.DeepEqual(got, want) {
		t.Errorf("governed delivery %v differs from ungoverned %v", got, want)
	}
	if g.SpilledPages() == 0 {
		t.Errorf("a one-page budget over %d pages spilled nothing", producers*threads*pages)
	}
	if g.MaxResidentBytes() > g.Budget() {
		t.Errorf("resident high-water %d exceeds budget %d", g.MaxResidentBytes(), g.Budget())
	}
}

// TestGovernorReplayableSpill exercises the retention window under a
// one-page budget: delivered pages are retained (and evicted to disk as
// the budget fills), a Rewind replays them — reloading spilled entries —
// and the step's end (Recycle, Discard) frees every slot, so the stream
// ends with zero live spill bytes.
func TestGovernorReplayableSpill(t *testing.T) {
	const producers, threads, pages = 2, 2, 4
	reg, ti := testRegistry(t)

	ref := New(Config{Producers: producers, Consumers: 1, Threads: threads, Capacity: 2,
		ReleaseDelivered: func(*object.Page) {}})
	sendAll(t, ref, reg, ti, producers, threads, pages)
	want := drain(t, ref, 0, ti)

	sample := testPage(t, reg, ti, 0)
	budget := int64(len(sample.Bytes()))
	sp := storage.NewSpillPool(filepath.Join(t.TempDir(), "spill"), reg)
	t.Cleanup(func() { _ = sp.Close() })
	g := NewGovernor(budget, sp, nil)
	released := 0
	ex := New(Config{Producers: producers, Consumers: 1, Threads: threads, Capacity: 2,
		ReleaseDelivered: func(*object.Page) { released++ },
		Governors:        []*Governor{g}})
	sendAll(t, ex, reg, ti, producers, threads, pages)

	// Consume half the stream, rewind to the start, and re-consume the
	// whole thing: the replayed prefix must reload spilled entries in
	// order.
	half := producers * threads * pages / 2
	var first []int64
	for i := 0; i < half; i++ {
		p, ok, err := ex.Recv(0)
		if err != nil || !ok {
			t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
		}
		first = append(first, pageID(p, ti))
	}
	ex.Rewind(0)
	got := drain(t, ex, 0, ti)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed delivery %v differs from reference %v", got, want)
	}
	if !reflect.DeepEqual(first, want[:half]) {
		t.Errorf("first pass %v differs from reference prefix %v", first, want[:half])
	}
	if g.SpilledPages() == 0 {
		t.Error("a one-page budget retained the whole stream without spilling")
	}
	if g.MaxResidentBytes() > g.Budget() {
		t.Errorf("resident high-water %d exceeds budget %d", g.MaxResidentBytes(), g.Budget())
	}

	// End the step: every retained entry's slot must free and the
	// resident gauge must return to zero.
	ex.Recycle()
	ex.Discard()
	if live := sp.LiveSlots(); live != 0 {
		t.Errorf("live spill slots at step end = %d, want 0", live)
	}
	if res := g.ResidentBytes(); res != 0 {
		t.Errorf("resident bytes at step end = %d, want 0", res)
	}
	if released == 0 {
		t.Error("ReleaseDelivered never ran for resident retained pages")
	}
}
