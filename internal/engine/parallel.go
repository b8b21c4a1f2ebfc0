package engine

// Intra-worker parallel execution (the "runs as fast as the hardware
// allows" layer): a worker's job-stage input is split into contiguous batch
// chunks, and each chunk is driven through its own Pipeline/Ctx/sink by a
// dedicated executor thread. Threads share nothing hot — per-thread output
// page sets, per-thread stats, per-thread sinks — so the only
// synchronization is the stage-end barrier, after which the coordinating
// goroutine concatenates or merges the per-thread results.
//
// The same machinery drives the consuming phases: the aggregation merge
// (MergeAggMapsStream), finalization
// (FinalizeAggParallel), and the hash-partition join's repartition, build,
// and probe loops all run their per-thread bodies through ParallelFor,
// ParallelThreads, or the one stream fan-out (streamPages).

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/object"
)

// threadPanic wraps a panic recovered on an executor thread so the
// coordinating goroutine can re-raise it. Re-raising matters: in the
// simulated cluster a user-code panic must still "crash the backend" on the
// goroutine the crash-proof front end is watching.
type threadPanic struct{ v any }

// ErrAborted marks work a thread abandoned because a sibling failed. The
// parallel drivers set the shared abort signal on the first error or panic;
// cooperative bodies return ErrAborted when they observe it (polling the
// flag between batches, or woken from a blocked exchange send through the
// stop channel), and the drivers never report it as the run's error — the
// root cause wins.
var ErrAborted = errors.New("engine: aborted by sibling thread failure")

// abortSignal is the shared tear-down switch of one parallel run: a flag
// for the cheap per-batch poll, plus a channel that closes on the first
// failure so bodies blocked in a select (streaming sends under exchange
// backpressure) wake up too.
type abortSignal struct {
	flag atomic.Bool
	ch   chan struct{}
	once sync.Once
}

func newAbortSignal() *abortSignal { return &abortSignal{ch: make(chan struct{})} }

func (a *abortSignal) trip() {
	a.flag.Store(true)
	a.once.Do(func() { close(a.ch) })
}

// runThreads runs body(t, ab) for t in [0, n) each on its own goroutine and
// waits for all of them. The shared abort signal trips on the first error
// or panic so cooperative bodies stop early. Panics are re-raised on the
// calling goroutine after the barrier; otherwise the first non-aborted
// error is returned, tagged with its thread.
func runThreads(n int, body func(t int, ab *abortSignal) error) error {
	var wg sync.WaitGroup
	ab := newAbortSignal()
	errs := make([]error, n)
	panics := make([]*threadPanic, n)
	for t := 0; t < n; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					ab.trip()
					panics[t] = &threadPanic{v: r}
				}
			}()
			if err := body(t, ab); err != nil {
				ab.trip()
				errs[t] = err
			}
		}(t)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p.v)
		}
	}
	for t, err := range errs {
		if err != nil && !errors.Is(err, ErrAborted) {
			return fmt.Errorf("executor thread %d: %w", t, err)
		}
	}
	return nil
}

// ParallelFor runs fn(t) for every t in [0, n) on dedicated executor
// threads and waits for all of them. With n <= 1 fn runs inline on the
// caller (no goroutine, no barrier) so sequential configurations pay
// nothing. The first panic is re-raised on the caller after the barrier;
// otherwise the first error is returned. Unlike the scan drivers there is
// no mid-task abort: each fn is one coarse unit of work.
func ParallelFor(n int, fn func(t int) error) error {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return fn(0)
	}
	return runThreads(n, func(t int, ab *abortSignal) error {
		if ab.flag.Load() {
			return ErrAborted
		}
		return fn(t)
	})
}

// ParallelThreads runs body(t, stop) for every t in [0, n) on dedicated
// executor threads and waits for all of them. stop closes when a sibling
// thread fails or panics, so bodies that block outside the engine — a
// streaming sink's exchange send waiting out backpressure — can select on
// it and bail with ErrAborted instead of deadlocking the barrier. With
// n <= 1 the body runs inline with a nil stop channel (it has no siblings
// to fail). Panics re-raise on the caller after the barrier.
func ParallelThreads(n int, body func(t int, stop <-chan struct{}) error) error {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return body(0, nil)
	}
	return runThreads(n, func(t int, ab *abortSignal) error {
		if ab.flag.Load() {
			return ErrAborted
		}
		return body(t, ab.ch)
	})
}

// streamPages is the one fan-out of a shuffle stream over consumer threads.
// next yields pages in the exchange's deterministic delivery order and
// body(t, p) folds a page on thread t: broadcast hands every page to every
// thread (the aggregation merge, where each thread filters its own hash
// range); otherwise page i goes to thread i%threads by global delivery index
// (the join build). Both assignments are pure functions of the delivery
// order, so consumption is deterministic. No page is released here: the
// exchange retains delivered pages for replay. With threads <= 1 everything
// runs inline on the caller.
//
// cut, when set, gives the stream consistent cut points for consumer-side
// crash recovery (the aggregation merge): after every interval pages — and
// once more when the stream ends, the checkpoint epilogue — every thread
// quiesces at a barrier and cut(delivered, final) runs on the calling
// goroutine, delivered being the total number of pages folded. A caller
// that snapshots its per-thread state inside cut and later resumes with
// start = the snapshot's cut (feeding a next that replays the stream from
// that index) reproduces the uncrashed run bit-for-bit: resumed work lands
// on the same threads in the same order. interval <= 0 disables the
// periodic cuts but not the epilogue, which is skipped only when the last
// periodic cut already covered every delivered page — so after a clean
// return the caller's latest snapshot always describes the complete
// stream. A nil cut means no barriers and no epilogue: the same dispatch
// for a consumer that replays its stream from page 0 instead of cutting.
//
// A panic in body (user combine/key code) re-raises on the caller after all
// threads drain, preserving the backend-crash discipline, and skips any
// pending cut, so the last successful checkpoint remains the recovery point.
// A body error stops the dispatch and is returned; the stream itself is
// abandoned — the caller is expected to cancel the exchange, unblocking
// producers.
func streamPages(next func() (*object.Page, bool, error), threads int, broadcast bool,
	start, interval int,
	body func(t int, p *object.Page) error, cut func(delivered int, final bool) error) error {
	delivered := start
	lastCut := -1
	if threads <= 1 {
		for {
			p, ok, err := next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if err := body(0, p); err != nil {
				return err
			}
			delivered++
			if cut != nil && interval > 0 && delivered%interval == 0 {
				if err := cut(delivered, false); err != nil {
					return err
				}
				lastCut = delivered
			}
		}
		if cut == nil || lastCut == delivered {
			return nil // no cuts, or the end-of-stream state is already checkpointed
		}
		return cut(delivered, true)
	}

	type msg struct {
		p       *object.Page
		barrier bool
	}
	feeds := make([]chan msg, threads)
	acks := make(chan struct{}, threads)
	errs := make([]error, threads)
	panics := make([]*threadPanic, threads)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for t := range feeds {
		feeds[t] = make(chan msg, 4)
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[t] = &threadPanic{v: r}
					failed.Store(true)
					// Keep draining (and acking barriers) so neither the
					// dispatcher nor a sibling blocks on a dead thread.
					for m := range feeds[t] {
						if m.barrier {
							acks <- struct{}{}
						}
					}
				}
			}()
			for m := range feeds[t] {
				if m.barrier {
					acks <- struct{}{}
					continue
				}
				if errs[t] == nil {
					if err := body(t, m.p); err != nil {
						errs[t] = err
						failed.Store(true)
					}
				}
			}
		}(t)
	}
	// quiesce parks every thread at the barrier; the threads resume only
	// when the dispatcher feeds again, so cut observes a frozen, mutually
	// consistent merge state.
	quiesce := func() {
		for t := range feeds {
			feeds[t] <- msg{barrier: true}
		}
		for range feeds {
			<-acks
		}
	}
	var srcErr error
	func() {
		// Tear down the threads even when next or cut panics (a crash
		// hook or user code on the consuming goroutine), so the panic
		// reaches the backend with no goroutine left behind.
		defer func() {
			for t := range feeds {
				close(feeds[t])
			}
			wg.Wait()
		}()
		for !failed.Load() {
			p, ok, err := next()
			if err != nil {
				srcErr = err
				return
			}
			if !ok {
				return
			}
			if broadcast {
				for t := range feeds {
					feeds[t] <- msg{p: p}
				}
			} else {
				feeds[delivered%threads] <- msg{p: p}
			}
			delivered++
			if cut != nil && interval > 0 && delivered%interval == 0 {
				quiesce()
				if failed.Load() {
					return
				}
				if err := cut(delivered, false); err != nil {
					srcErr = err
					return
				}
				lastCut = delivered
			}
		}
	}()
	for _, p := range panics {
		if p != nil {
			panic(p.v)
		}
	}
	for t, err := range errs {
		if err != nil {
			return fmt.Errorf("stream consumer thread %d: %w", t, err)
		}
	}
	if srcErr != nil || cut == nil || lastCut == delivered {
		return srcErr // failed, no cuts, or the end-of-stream state is already checkpointed
	}
	return cut(delivered, true)
}

// StreamPages is the fan-out for a consumer whose state keeps referencing
// delivered pages (the join build's tables): page i goes to thread
// i%threads and no cut is taken — a crashed consumer replays its stream
// from the start.
func StreamPages(next func() (*object.Page, bool, error), threads int, body func(t int, p *object.Page) error) error {
	return streamPages(next, threads, false, 0, 0, body, nil)
}
