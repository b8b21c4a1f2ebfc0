package engine

// Intra-worker parallel execution (the "runs as fast as the hardware
// allows" layer): a worker's job-stage input is split into contiguous batch
// chunks, and each chunk is driven through its own Pipeline/Ctx/sink by a
// dedicated executor thread. Threads share nothing hot — per-thread output
// page sets, per-thread stats, per-thread sinks — so the only
// synchronization is the stage-end barrier, after which the coordinating
// goroutine concatenates or merges the per-thread results.
//
// Every executor thread starts in NewTeam: a Team is the one primitive, and
// it alone recovers a thread's panic and picks the run's error. The pipeline
// stages, the aggregation merge (MergeAggMapsStream) and finalization
// (FinalizeAggParallel), and the hash-partition join's repartition and build
// run as one-shot teams (ParallelThreads, and the stream fan-out
// streamPages); the join's probe, which fans out once per window, keeps a
// Team for the attempt.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/object"
)

// ErrAborted marks work a thread abandoned because a sibling failed. A
// Team closes the run's stop channel on the first error or panic;
// cooperative bodies return ErrAborted when they observe it (polling it
// between batches, or woken from a blocked exchange send), and the team
// never reports it as the run's error — the root cause wins.
var ErrAborted = errors.New("engine: aborted by sibling thread failure")

// Team is a set of executor threads. Run hands each thread the run's body
// over a channel and waits at a barrier, so a Run costs no goroutine start
// and, once warm, allocates nothing. Thread 0 is the caller; a team of
// n <= 1 runs everything inline. Close stops the threads; the team's owner
// must call it on every exit path.
type Team struct {
	feeds   []chan func(t int, stop <-chan struct{}) error // thread t's feed is feeds[t-1]
	done    chan struct{}
	errs    []error
	panics  []any
	stop    chan struct{} // the current run's; replaced only after it closed
	tripped atomic.Bool
	wg      sync.WaitGroup
}

// NewTeam starts a team of n executor threads.
func NewTeam(n int) *Team {
	n = max(n, 1)
	tm := &Team{done: make(chan struct{}), errs: make([]error, n), panics: make([]any, n),
		stop: make(chan struct{})}
	tm.feeds = make([]chan func(int, <-chan struct{}) error, n-1)
	for i := range tm.feeds {
		feed := make(chan func(int, <-chan struct{}) error)
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

// call runs fn on thread t, recording its error or panic; either closes
// the run's stop channel.
func (tm *Team) call(t int, fn func(int, <-chan struct{}) error) {
	defer func() {
		if r := recover(); r != nil {
			tm.panics[t] = r
			tm.trip()
		}
	}()
	if err := fn(t, tm.stop); err != nil {
		tm.errs[t] = err
		tm.trip()
	}
}

func (tm *Team) trip() {
	if tm.tripped.CompareAndSwap(false, true) {
		close(tm.stop)
	}
}

// Run calls fn(t, stop) on every thread t of the team and waits for all of
// them. stop closes when any thread of this run returns an error or
// panics, so bodies that block outside the engine — a streaming sink's
// exchange send waiting out backpressure — can select on it and bail with
// ErrAborted instead of deadlocking the barrier. The first panic re-raises
// on the caller after the barrier; otherwise Run returns the first error
// that is not ErrAborted, in thread order.
func (tm *Team) Run(fn func(t int, stop <-chan struct{}) error) error {
	if tm.tripped.Load() {
		tm.stop = make(chan struct{})
		tm.tripped.Store(false)
	}
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
			panic(p)
		}
	}
	var err error
	for t, e := range tm.errs {
		if e != nil && err == nil && !errors.Is(e, ErrAborted) {
			err = fmt.Errorf("executor thread %d: %w", t, e)
		}
	}
	clear(tm.errs)
	return err
}

// Close stops the team's threads and waits for them to exit.
func (tm *Team) Close() {
	for _, feed := range tm.feeds {
		close(feed)
	}
	tm.wg.Wait()
}

// ParallelThreads runs body(t, stop) for every t in [0, n) as a one-shot
// Team and waits for all of them, with Run's stop, error and panic rules.
// With n <= 1 the body runs inline with a nil stop channel (it has no
// siblings to fail) and nothing is allocated.
func ParallelThreads(n int, body func(t int, stop <-chan struct{}) error) error {
	switch {
	case n <= 0:
		return nil
	case n == 1:
		return body(0, nil)
	}
	tm := NewTeam(n)
	defer tm.Close()
	return tm.Run(body)
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
// Otherwise a team of threads+1 runs it: thread 0, the caller, dispatches
// (so next runs on the backend goroutine), and team thread t+1 folds
// consumer t's pages. A panic in body (user combine/key code) or in next
// re-raises on the caller once every thread is done. A body error stops the
// dispatch and is returned, naming its consumer thread; the stream itself
// is abandoned — the caller is expected to cancel the exchange, unblocking
// producers. The source's error is returned as it is.
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

	// Four pages of slack per thread let the dispatcher run ahead of a
	// slow fold without a handoff per page.
	feeds := make([]chan *object.Page, threads)
	for c := range feeds {
		feeds[c] = make(chan *object.Page, 4)
	}
	var srcErr error
	tm := NewTeam(threads + 1)
	defer tm.Close()
	err := tm.Run(func(t int, stop <-chan struct{}) error {
		if t > 0 {
			for p := range feeds[t-1] {
				if err := body(t-1, p); err != nil {
					return fmt.Errorf("stream consumer thread %d: %w", t-1, err)
				}
			}
			return nil
		}
		defer func() {
			for _, feed := range feeds {
				close(feed)
			}
		}()
		for delivered := 0; ; delivered++ {
			select {
			case <-stop:
				return nil
			default:
			}
			p, ok, err := next()
			if err != nil || !ok {
				srcErr = err
				return nil
			}
			for c, feed := range feeds {
				if !broadcast && c != delivered%threads {
					continue
				}
				select {
				case feed <- p:
				case <-stop:
					return nil
				}
			}
		}
	})
	if err != nil {
		return errors.Unwrap(err) // the consumer's error, without the team's thread number
	}
	return srcErr
}

// StreamPages is the fan-out for a consumer whose state keeps referencing
// delivered pages (the join build's tables): page i goes to thread
// i%threads, and a crashed consumer replays its stream from the start.
func StreamPages(next func() (*object.Page, bool, error), threads int, body func(t int, p *object.Page) error) error {
	return streamPages(next, threads, false, body)
}
