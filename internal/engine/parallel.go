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
// (FinalizeAggParallel), and the hash-partition join's repartition and
// build run their per-thread bodies through ParallelFor, ParallelThreads,
// or the one stream fan-out (streamPages); the join's probe, which fans out
// once per window, keeps a Team for the attempt.

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

// Team is a set of executor threads kept for a phase that fans many small
// units out in turn (the join's probe windows): Run hands each thread the
// unit's body over a channel and waits at a barrier, so a Run costs no
// goroutine start and allocates nothing. Thread 0 is the caller; a team of
// n <= 1 runs everything inline. A panic on any thread re-raises on the
// caller after the barrier, as ParallelFor's does. Close stops the threads;
// the team's owner must call it on every exit path.
type Team struct {
	feeds  []chan func(t int) error // thread t's feed is feeds[t-1]
	done   chan struct{}
	errs   []error
	panics []*threadPanic
	wg     sync.WaitGroup
}

// NewTeam starts a team of n executor threads.
func NewTeam(n int) *Team {
	n = max(n, 1)
	tm := &Team{done: make(chan struct{}), errs: make([]error, n), panics: make([]*threadPanic, n)}
	tm.feeds = make([]chan func(int) error, n-1)
	for i := range tm.feeds {
		feed := make(chan func(int) error)
		tm.feeds[i] = feed
		tm.wg.Add(1)
		go func(t int) {
			defer tm.wg.Done()
			for fn := range feed {
				tm.call(t, fn)
				tm.done <- struct{}{}
			}
		}(i + 1)
	}
	return tm
}

// call runs fn on thread t, recording its error or panic.
func (tm *Team) call(t int, fn func(int) error) {
	defer func() {
		if r := recover(); r != nil {
			tm.panics[t] = &threadPanic{v: r}
		}
	}()
	tm.errs[t] = fn(t)
}

// Run calls fn(t) on every thread t of the team and waits for all of them.
// The first panic re-raises on the caller; otherwise the first error is
// returned.
func (tm *Team) Run(fn func(t int) error) error {
	for _, feed := range tm.feeds {
		feed <- fn
	}
	tm.call(0, fn)
	for range tm.feeds {
		<-tm.done
	}
	for _, p := range tm.panics {
		if p != nil {
			clear(tm.panics)
			clear(tm.errs)
			panic(p.v)
		}
	}
	for t, err := range tm.errs {
		if err != nil {
			clear(tm.errs)
			return fmt.Errorf("executor thread %d: %w", t, err)
		}
	}
	return nil
}

// Close stops the team's threads and waits for them to exit.
func (tm *Team) Close() {
	for _, feed := range tm.feeds {
		close(feed)
	}
	tm.wg.Wait()
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
// order, so consumption is deterministic, and a crashed consumer that
// replays its stream from page 0 reproduces the uncrashed run bit-for-bit.
// No page is released here: the exchange retains delivered pages for
// replay. With threads <= 1 everything runs inline on the caller.
//
// A panic in body (user combine/key code) re-raises on the caller after all
// threads drain, preserving the backend-crash discipline. A body error
// stops the dispatch and is returned; the stream itself is abandoned — the
// caller is expected to cancel the exchange, unblocking producers.
func streamPages(next func() (*object.Page, bool, error), threads int, broadcast bool,
	body func(t int, p *object.Page) error) error {
	if threads <= 1 {
		for {
			p, ok, err := next()
			if err != nil || !ok {
				return err
			}
			if err := body(0, p); err != nil {
				return err
			}
		}
	}

	feeds := make([]chan *object.Page, threads)
	errs := make([]error, threads)
	panics := make([]*threadPanic, threads)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for t := range feeds {
		feeds[t] = make(chan *object.Page, 4)
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[t] = &threadPanic{v: r}
					failed.Store(true)
					// Keep draining so the dispatcher never blocks on a
					// dead thread.
					for range feeds[t] {
					}
				}
			}()
			for p := range feeds[t] {
				if errs[t] == nil {
					if err := body(t, p); err != nil {
						errs[t] = err
						failed.Store(true)
					}
				}
			}
		}(t)
	}
	var srcErr error
	func() {
		// Tear down the threads even when next panics (a crash hook on the
		// consuming goroutine), so the panic reaches the backend with no
		// goroutine left behind.
		defer func() {
			for t := range feeds {
				close(feeds[t])
			}
			wg.Wait()
		}()
		for delivered := 0; !failed.Load(); delivered++ {
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
					feeds[t] <- p
				}
			} else {
				feeds[delivered%threads] <- p
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
	return srcErr
}

// StreamPages is the fan-out for a consumer whose state keeps referencing
// delivered pages (the join build's tables): page i goes to thread
// i%threads, and a crashed consumer replays its stream from the start.
func StreamPages(next func() (*object.Page, bool, error), threads int, body func(t int, p *object.Page) error) error {
	return streamPages(next, threads, false, body)
}
