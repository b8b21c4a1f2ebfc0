package exchange

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/object"
	"repro/internal/race"
)

// testPage builds a page whose root vector holds a single int64-tagged
// object so a test can identify which logical page it received.
func testPage(t *testing.T, reg *object.Registry, ti *object.TypeInfo, id int64) *object.Page {
	t.Helper()
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
	object.SetI64(o, ti.Field("id"), id)
	if err := root.PushBackHandle(a, o); err != nil {
		t.Fatal(err)
	}
	return p
}

func pageID(p *object.Page, ti *object.TypeInfo) int64 {
	root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
	return object.GetI64(root.HandleAt(0), ti.Field("id"))
}

func testRegistry(t testing.TB) (*object.Registry, *object.TypeInfo) {
	t.Helper()
	reg := object.NewRegistry()
	ti := object.NewStruct("ExPage").AddField("id", object.KInt64).MustBuild(reg)
	return reg, ti
}

// id encodes a page's (producer, thread, seq) identity for order checks.
func id(producer, thread, seq int) int64 {
	return int64(producer*10000 + thread*100 + seq)
}

// drain receives the whole stream for one consumer, returning page IDs in
// delivery order.
func drain(t *testing.T, ex *Exchange, consumer int, ti *object.TypeInfo) []int64 {
	t.Helper()
	var got []int64
	for {
		p, ok, err := ex.Recv(consumer)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return got
		}
		got = append(got, pageID(p, ti))
	}
}

// TestOrderedDeliveryAcrossThreads sends pages from several producer
// threads in a deliberately scrambled arrival order and asserts delivery in
// strict (producer, thread, sequence) order.
func TestOrderedDeliveryAcrossThreads(t *testing.T) {
	reg, ti := testRegistry(t)
	ex := New(Config{Producers: 2, Consumers: 1, Threads: 2, capacity: 16})
	// Producer 1 finishes before producer 0; threads interleave
	// backwards — all legal arrival orders.
	send := func(p, th, seq int) {
		if err := ex.Send(Tag{p, th, seq}, 0, testPage(t, reg, ti, id(p, th, seq)), nil); err != nil {
			t.Fatal(err)
		}
	}
	send(1, 1, 0)
	send(1, 0, 0)
	send(1, 0, 1)
	_ = ex.CloseThread(1, 0, nil)
	_ = ex.CloseThread(1, 1, nil)
	ex.CloseProducer(1)
	send(0, 1, 0)
	_ = ex.CloseThread(0, 1, nil)
	send(0, 0, 0)
	_ = ex.CloseThread(0, 0, nil)
	ex.CloseProducer(0)

	want := []int64{id(0, 0, 0), id(0, 1, 0), id(1, 0, 0), id(1, 0, 1), id(1, 1, 0)}
	if got := drain(t, ex, 0, ti); !reflect.DeepEqual(got, want) {
		t.Errorf("delivery order = %v, want %v", got, want)
	}
}

// TestRetryDuplicatesDropped replays a crashed producer: the first attempt
// sends a truncated stream, the retry re-sends everything; the consumer
// must see each page exactly once, in order.
func TestRetryDuplicatesDropped(t *testing.T) {
	reg, ti := testRegistry(t)
	var released int
	ex := New(Config{Producers: 1, Consumers: 1, Threads: 2, capacity: 16,
		Release: func(*object.Page) { released++ }})
	send := func(th, seq int) {
		if err := ex.Send(Tag{0, th, seq}, 0, testPage(t, reg, ti, id(0, th, seq)), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Attempt 1: thread 0 completes (marker sent), thread 1 crashes after
	// one page (no marker).
	send(0, 0)
	send(0, 1)
	_ = ex.CloseThread(0, 0, nil)
	send(1, 0)
	// Attempt 2 (deterministic re-run): everything again.
	send(0, 0)
	send(0, 1)
	_ = ex.CloseThread(0, 0, nil)
	send(1, 0)
	send(1, 1)
	_ = ex.CloseThread(0, 1, nil)
	ex.CloseProducer(0)

	want := []int64{id(0, 0, 0), id(0, 0, 1), id(0, 1, 0), id(0, 1, 1)}
	if got := drain(t, ex, 0, ti); !reflect.DeepEqual(got, want) {
		t.Errorf("delivery = %v, want %v", got, want)
	}
	if released != 3 {
		t.Errorf("released %d duplicate pages, want 3", released)
	}
}

// TestBackpressureAndConcurrentConsumption exercises a full channel: a
// producer goroutine pushes more pages than the capacity while the consumer
// drains concurrently, and every page arrives in order.
func TestBackpressureAndConcurrentConsumption(t *testing.T) {
	reg, ti := testRegistry(t)
	ex := New(Config{Producers: 1, Consumers: 1, capacity: 2})
	const n = 50
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seq := 0; seq < n; seq++ {
			if err := ex.Send(Tag{0, 0, seq}, 0, testPage(t, reg, ti, int64(seq)), nil); err != nil {
				t.Error(err)
				return
			}
		}
		_ = ex.CloseThread(0, 0, nil)
		ex.CloseProducer(0)
	}()
	got := drain(t, ex, 0, ti)
	wg.Wait()
	if len(got) != n {
		t.Fatalf("received %d pages, want %d", len(got), n)
	}
	for seq, v := range got {
		if v != int64(seq) {
			t.Fatalf("page %d carries id %d", seq, v)
		}
	}
	if ex.MaxBytesInFlight() <= 0 {
		t.Error("bytes-in-flight high-water mark not recorded")
	}
}

// TestCancelUnblocksSenderAndReceiver cancels an exchange with a blocked
// sender (full channel) and a would-block receiver and checks both return
// the cancellation cause.
func TestCancelUnblocksSenderAndReceiver(t *testing.T) {
	reg, ti := testRegistry(t)
	ex := New(Config{Producers: 2, Consumers: 1, capacity: 1})
	if err := ex.Send(Tag{0, 0, 0}, 0, testPage(t, reg, ti, 1), nil); err != nil {
		t.Fatal(err)
	}
	cause := errors.New("worker exploded")
	sendDone := make(chan error, 1)
	go func() { // blocked sender: channel (capacity 1) is already full
		sendDone <- ex.Send(Tag{0, 0, 1}, 0, testPage(t, reg, ti, 2), nil)
	}()
	recvDone := make(chan error, 1)
	go func() { // blocked receiver: producer 1 never sends
		if _, ok, err := ex.Recv(0); err != nil || !ok {
			recvDone <- err
			return
		}
		// Page 1 delivered; the next Recv blocks on more producer-0
		// input (or drains the unblocked second send first).
		for {
			_, ok, err := ex.Recv(0)
			if err != nil || !ok {
				recvDone <- err
				return
			}
		}
	}()
	ex.Cancel(cause)
	if err := <-sendDone; err != nil && !errors.Is(err, cause) {
		t.Errorf("blocked send returned %v, want nil (raced ahead) or the cancellation cause", err)
	}
	if err := <-recvDone; err == nil || !errors.Is(err, cause) {
		t.Errorf("recv returned %v, want cancellation cause", err)
	}
}

// TestStopChannelAbortsSend closes the producer-side stop channel under a
// blocked send and expects ErrProducerStopped.
func TestStopChannelAbortsSend(t *testing.T) {
	reg, ti := testRegistry(t)
	ex := New(Config{Producers: 1, Consumers: 1, capacity: 1})
	if err := ex.Send(Tag{0, 0, 0}, 0, testPage(t, reg, ti, 1), nil); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() { done <- ex.Send(Tag{0, 0, 1}, 0, testPage(t, reg, ti, 2), stop) }()
	close(stop)
	if err := <-done; !errors.Is(err, ErrProducerStopped) {
		t.Fatalf("send under closed stop returned %v, want ErrProducerStopped", err)
	}
}

// TestBroadcastDeliversToEveryConsumer checks the pre-aggregation pattern,
// a Send addressed to Every: each consumer receives its own copy of every
// page, in order.
func TestBroadcastDeliversToEveryConsumer(t *testing.T) {
	reg, ti := testRegistry(t)
	ships := 0
	ex := New(Config{Producers: 1, Consumers: 3, capacity: 4,
		Ship: func(p *object.Page, producer, consumer int) (*object.Page, error) {
			if consumer == producer {
				return p, nil
			}
			ships++
			b := make([]byte, len(p.Bytes()))
			copy(b, p.Bytes())
			return object.FromBytes(b, reg)
		}})
	for seq := 0; seq < 3; seq++ {
		if err := ex.Send(Tag{0, 0, seq}, Every, testPage(t, reg, ti, int64(seq)), nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = ex.CloseThread(0, 0, nil)
	ex.CloseProducer(0)
	for c := 0; c < 3; c++ {
		got := drain(t, ex, c, ti)
		if !reflect.DeepEqual(got, []int64{0, 1, 2}) {
			t.Errorf("consumer %d received %v", c, got)
		}
	}
	if ships != 6 { // 3 pages × 2 non-self consumers
		t.Errorf("ship count = %d, want 6", ships)
	}
}

// TestSendRejectsSequenceGap checks the sender-side sequence check for both
// addresses: a send whose sequence skips ahead of an addressed lane fails
// with the error naming that (producer, thread, consumer) lane, before
// anything is shipped or enqueued — also on the lanes that were in step.
func TestSendRejectsSequenceGap(t *testing.T) {
	reg, ti := testRegistry(t)
	ships := 0
	ex := New(Config{Producers: 1, Consumers: 2, capacity: 4,
		Ship: func(p *object.Page, _, _ int) (*object.Page, error) { ships++; return p, nil }})
	if err := ex.Send(Tag{0, 0, 0}, Every, testPage(t, reg, ti, 0), nil); err != nil {
		t.Fatal(err)
	}
	err := ex.Send(Tag{0, 0, 2}, Every, testPage(t, reg, ti, 2), nil)
	if want := "exchange: lane (0, 0, 0) sent seq 2, want 1"; err == nil || err.Error() != want {
		t.Fatalf("every-consumer send with a gap = %v, want %q", err, want)
	}
	// Consumer 0's lane is at seq 2, consumer 1's at seq 1: an
	// every-consumer seq 2 is in step for the first and a gap for the
	// second, and ships neither.
	if err := ex.Send(Tag{0, 0, 1}, 0, testPage(t, reg, ti, 1), nil); err != nil {
		t.Fatal(err)
	}
	err = ex.Send(Tag{0, 0, 2}, Every, testPage(t, reg, ti, 2), nil)
	if want := "exchange: lane (0, 0, 1) sent seq 2, want 1"; err == nil || err.Error() != want {
		t.Fatalf("every-consumer send ahead of consumer 1 = %v, want %q", err, want)
	}
	if ships != 3 {
		t.Errorf("ships = %d, want 3: a rejected send must ship nothing", ships)
	}
	_ = ex.CloseThread(0, 0, nil)
	ex.CloseProducer(0)
	for c, want := range [][]int64{{0, 1}, {0}} {
		if got := drain(t, ex, c, ti); !reflect.DeepEqual(got, want) {
			t.Errorf("consumer %d received %v, want %v", c, got, want)
		}
	}
}

// TestManyProducersManyConsumers runs a concurrent all-to-all shuffle and
// verifies each consumer's delivery order is the canonical tag order.
func TestManyProducersManyConsumers(t *testing.T) {
	reg, ti := testRegistry(t)
	const np, nc, threads, pages = 3, 3, 2, 4
	ex := New(Config{Producers: np, Consumers: nc, Threads: threads, capacity: 2})
	var wg sync.WaitGroup
	for p := 0; p < np; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			var tw sync.WaitGroup
			for th := 0; th < threads; th++ {
				tw.Add(1)
				go func(th int) {
					defer tw.Done()
					for seq := 0; seq < pages; seq++ {
						for c := 0; c < nc; c++ {
							pg := testPage(t, reg, ti, id(p, th, seq))
							if err := ex.Send(Tag{p, th, seq}, c, pg, nil); err != nil {
								t.Error(err)
								return
							}
						}
					}
					_ = ex.CloseThread(p, th, nil)
				}(th)
			}
			tw.Wait()
			ex.CloseProducer(p)
		}(p)
	}
	var want []int64
	for p := 0; p < np; p++ {
		for th := 0; th < threads; th++ {
			for seq := 0; seq < pages; seq++ {
				want = append(want, id(p, th, seq))
			}
		}
	}
	results := make([][]int64, nc)
	var cw sync.WaitGroup
	for c := 0; c < nc; c++ {
		cw.Add(1)
		go func(c int) {
			defer cw.Done()
			results[c] = drain(t, ex, c, ti)
		}(c)
	}
	cw.Wait()
	wg.Wait()
	for c, got := range results {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("consumer %d order = %v, want %v", c, got, want)
		}
	}
}

// TestProducerWithNoThreads covers a worker holding no data: it closes its
// channels without sending anything, and consumers move past it.
func TestProducerWithNoThreads(t *testing.T) {
	reg, ti := testRegistry(t)
	ex := New(Config{Producers: 2, Consumers: 1})
	ex.CloseProducer(0) // empty producer
	if err := ex.Send(Tag{1, 0, 0}, 0, testPage(t, reg, ti, 7), nil); err != nil {
		t.Fatal(err)
	}
	_ = ex.CloseThread(1, 0, nil)
	ex.CloseProducer(1)
	if got := drain(t, ex, 0, ti); !reflect.DeepEqual(got, []int64{7}) {
		t.Fatalf("delivery = %v, want [7]", got)
	}
}

func ExampleTag() {
	fmt.Println(Tag{Producer: 2, Thread: 1, Seq: 3})
	// Output: {2 1 3}
}

// TestSkewedProducerHardBound pins the tentpole memory bound: with one
// producer thread far behind the delivery cursor, the fast threads fill
// their own bounded lanes and then block — the receiver never holds more
// than capacity × Threads undelivered pages per producer, where the old
// shared-channel design buffered the fast threads' entire output.
func TestSkewedProducerHardBound(t *testing.T) {
	reg, ti := testRegistry(t)
	const threads, capacity = 4, 2
	ex := New(Config{Producers: 1, Consumers: 1, Threads: threads, capacity: capacity})

	// Threads 1..3 race ahead: each fills its lane to capacity (these
	// sends cannot block), then attempts one more page, which must block
	// until the consumer advances past thread 0.
	for th := 1; th < threads; th++ {
		for seq := 0; seq < capacity; seq++ {
			if err := ex.Send(Tag{0, th, seq}, 0, testPage(t, reg, ti, id(0, th, seq)), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	var overflowDone atomic.Int32
	var wg sync.WaitGroup
	for th := 1; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			if err := ex.Send(Tag{0, th, capacity}, 0, testPage(t, reg, ti, id(0, th, capacity)), nil); err != nil {
				t.Error(err)
				return
			}
			overflowDone.Add(1)
			_ = ex.CloseThread(0, th, nil)
		}(th)
	}

	if got := ex.BufferedPages(0); got != capacity*(threads-1) {
		t.Fatalf("buffered pages before drain = %d, want %d", got, capacity*(threads-1))
	}
	if overflowDone.Load() != 0 {
		t.Fatal("an over-capacity send completed without backpressure")
	}

	// Thread 0 (the straggler) finishes; the consumer drains everything,
	// releasing the blocked senders lane by lane.
	if err := ex.Send(Tag{0, 0, 0}, 0, testPage(t, reg, ti, id(0, 0, 0)), nil); err != nil {
		t.Fatal(err)
	}
	_ = ex.CloseThread(0, 0, nil)
	go func() {
		wg.Wait()
		ex.CloseProducer(0)
	}()
	got := drain(t, ex, 0, ti)

	var want []int64
	want = append(want, id(0, 0, 0))
	for th := 1; th < threads; th++ {
		for seq := 0; seq <= capacity; seq++ {
			want = append(want, id(0, th, seq))
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("delivery = %v, want %v", got, want)
	}
	if hwm := ex.MaxReorderPages(); hwm > capacity*threads {
		t.Errorf("reorder high-water mark = %d pages, want <= capacity*threads = %d", hwm, capacity*threads)
	}
}

// TestRewindReplaysRetained exercises the consumer-side recovery API: an
// exchange retains delivered pages, Rewind replays them from page 0 in the
// original order (then continues live), and only Recycle — the end of a
// successful step — hands them to Release.
func TestRewindReplaysRetained(t *testing.T) {
	reg, ti := testRegistry(t)
	released := 0
	ex := New(Config{Producers: 1, Consumers: 1, Threads: 1, capacity: 16,
		Release: func(*object.Page) { released++ }})
	const n = 6
	for seq := 0; seq < n; seq++ {
		if err := ex.Send(Tag{0, 0, seq}, 0, testPage(t, reg, ti, int64(seq)), nil); err != nil {
			t.Fatal(err)
		}
	}
	_ = ex.CloseThread(0, 0, nil)
	ex.CloseProducer(0)

	recvN := func(k int) []int64 {
		var got []int64
		for i := 0; i < k; i++ {
			p, ok, err := ex.Recv(0)
			if err != nil || !ok {
				t.Fatalf("recv %d: ok=%v err=%v", i, ok, err)
			}
			got = append(got, pageID(p, ti))
		}
		return got
	}
	if got := recvN(4); !reflect.DeepEqual(got, []int64{0, 1, 2, 3}) {
		t.Fatalf("first pass = %v", got)
	}
	// Crash: rewind, replay 0..3, then continue live.
	ex.Rewind(0)
	if got := recvN(6); !reflect.DeepEqual(got, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("replay pass = %v", got)
	}
	if _, ok, err := ex.Recv(0); ok || err != nil {
		t.Fatalf("stream should have ended: ok=%v err=%v", ok, err)
	}
	// Rewinding at the very end still replays the whole stream.
	ex.Rewind(0)
	if got := recvN(n); !reflect.DeepEqual(got, []int64{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("second replay = %v", got)
	}
	if _, ok, _ := ex.Recv(0); ok {
		t.Fatal("stream should stay ended after a full replay")
	}
	if released != 0 {
		t.Fatalf("released %d pages before the step ended, want 0", released)
	}
	ex.Recycle()
	ex.Discard()
	if released != n {
		t.Fatalf("released %d pages at step end, want %d", released, n)
	}
}

// TestSendReleasesShippedOriginal pins Send's page-ownership contract with
// Config.Release: a page Ship copied for another consumer is released
// exactly once, right after the copy; a page that travels by reference is
// never released; a retry duplicate is released once, before any ship; and
// a failed Ship releases nothing (the producer's retry re-sends it).
func TestSendReleasesShippedOriginal(t *testing.T) {
	reg, ti := testRegistry(t)
	copyPage := func(p *object.Page, _, _ int) (*object.Page, error) {
		return object.FromBytes(append([]byte(nil), p.Bytes()...), reg)
	}
	passThrough := func(p *object.Page, _, _ int) (*object.Page, error) { return p, nil }
	errShip := errors.New("ship failed")
	failing := func(*object.Page, int, int) (*object.Page, error) { return nil, errShip }

	for _, tc := range []struct {
		name string
		ship func(p *object.Page, producer, consumer int) (*object.Page, error)
		// released is how often the page a first send hands over is
		// released; copied whether the consumer receives another page.
		released int
		copied   bool
		err      error
	}{
		{name: "cross-consumer copy", ship: copyPage, released: 1, copied: true},
		{name: "no ship", ship: nil, released: 0},
		{name: "ship returns its page", ship: passThrough, released: 0},
		{name: "ship error", ship: failing, released: 0, err: errShip},
	} {
		t.Run(tc.name, func(t *testing.T) {
			released := map[*object.Page]int{}
			ex := New(Config{Producers: 1, Consumers: 1, capacity: 4, Ship: tc.ship,
				Release: func(p *object.Page) { released[p]++ }})
			p := testPage(t, reg, ti, 7)
			if err := ex.Send(Tag{}, 0, p, nil); !errors.Is(err, tc.err) {
				t.Fatalf("Send = %v, want %v", err, tc.err)
			}
			if got := released[p]; got != tc.released || len(released) != min(tc.released, 1) {
				t.Fatalf("first send released the page %d times (%d pages released), want %d", got, len(released), tc.released)
			}
			if tc.err != nil {
				return
			}
			// A retry re-sends sequence 0: the duplicate is released once
			// and never shipped.
			dup := testPage(t, reg, ti, 7)
			if err := ex.Send(Tag{}, 0, dup, nil); err != nil {
				t.Fatal(err)
			}
			if released[dup] != 1 {
				t.Errorf("retry duplicate released %d times, want 1", released[dup])
			}
			_ = ex.CloseThread(0, 0, nil)
			ex.CloseProducer(0)
			got, ok, err := ex.Recv(0)
			if err != nil || !ok {
				t.Fatalf("Recv = %v, %v", ok, err)
			}
			if (got != p) != tc.copied || pageID(got, ti) != 7 {
				t.Errorf("consumer received page %p (id %d), sent %p: copied %v, want %v", got, pageID(got, ti), p, got != p, tc.copied)
			}
			if released[got] != 0 {
				t.Errorf("the delivered page was released %d times", released[got])
			}
			if rest := drain(t, ex, 0, ti); len(rest) != 0 {
				t.Errorf("delivered %d extra pages", len(rest))
			}
		})
	}
}

// TestBroadcastAllocatesNothing pins Send's steady state: the copies it
// plans live in the sending (producer, thread) row's scratch, so a warm
// Send — pages travelling by reference, lanes with room — makes no
// allocation, addressed to Every for the sort's single consumer as for an
// aggregation's several, and addressed to one consumer as the join's
// repartition sends.
func TestBroadcastAllocatesNothing(t *testing.T) {
	if race.Enabled {
		return // allocation counts are not meaningful under the race detector
	}
	reg, ti := testRegistry(t)
	p := testPage(t, reg, ti, 1)
	for _, tc := range []struct{ consumers, to int }{{1, Every}, {2, Every}, {2, 1}} {
		const runs = 50
		ex := New(Config{Producers: 1, Consumers: tc.consumers, Threads: 2, capacity: runs + 2})
		seq := 0
		send := func() {
			if err := ex.Send(Tag{Thread: 1, Seq: seq}, tc.to, p, nil); err != nil {
				t.Fatal(err)
			}
			seq++
		}
		send() // warm
		if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
			t.Errorf("consumers %d, to %d: a warm Send allocates %v objects, want 0", tc.consumers, tc.to, allocs)
		}
	}
}
