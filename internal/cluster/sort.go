package cluster

// Distributed ORDER BY / top-k / window as a merge network over the
// exchange (the sort half of "finish the relational surface"): every
// worker sorts its partition into per-thread runs and streams their pages,
// in thread order, to a single merge consumer on worker 0, which merges
// every delivered page as a lane of one tournament into the global stable
// order (and folds a window computation's running aggregate over the merged
// stream). The pair runs as runExchangeGroup's step, whose exchange has
// that one consumer: delivery order is (worker, thread, page), which is
// source order, so the merger's lowest-lane tie-break reproduces the global
// stable order. The consumer keeps every run page until the merge ends: a
// crash anywhere re-gathers the retained stream from page 0 and re-merges
// it, bit-for-bit.

import (
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
)

// runSortStreamOnWorker is the producer half of the merge network on one
// worker: the stage pipeline runs across Config.Threads executor threads
// into per-thread SortSinks (bounded-heap top-k when the spec has a limit,
// the whole thread chunk buffered otherwise), and after the stage barrier
// every thread run's pages stream to consumer 0. There is no worker-level
// merge: the consumer's tournament takes each page as a lane at
// O(log lanes) a row, so merging here would only copy the run. With a limit
// a worker therefore ships Threads × Limit rows, not Limit; the consumer
// applies the limit. A crash-retried producer re-runs deterministically and
// re-sends identical tags for the sender-side dedup to drop.
func (e *workerEnv) runSortStreamOnWorker(res *core.CompileResult, stage *physical.JobStage, end shuffleEnd) error {
	pages, err := e.sourcePages(stage)
	if err != nil {
		return err
	}

	// A worker with no input still streams its (empty) close marker,
	// honoring the exchange's lane contract.
	art, err := e.RunPipeline(res, stage, pages, nil, nil)
	if err != nil {
		return err
	}

	// Thread t's run travels lane t to consumer 0, closed before the next
	// run starts, so delivery order is (worker, thread, page): source order,
	// because thread chunks are contiguous (SplitRanges) — the consumer's
	// stability tie-break. Run pages are self-contained (AppendSortRow
	// deep-copied each row onto them), so they ship as they are, and no run
	// page is read once sent: the exchange returns the original of a page
	// copied to worker 0 to the pool, and worker 0's own pages travel by
	// reference. (In a pcworker session end holds the runs and streams them
	// thread-major down the relay's one lane: the same delivery order.)
	for t, run := range art.Runs {
		for seq, p := range run {
			e.Fault.Hit(fault.PageSeal, e.ID)
			if err := end.send(exchange.Tag{Producer: e.ID, Thread: t, Seq: seq}, exchange.Every, p, nil); err != nil {
				return err
			}
		}
		if err := end.closeThread(t, nil); err != nil {
			return err
		}
	}
	return nil
}

// consumeSortStream is the consumer half: gather every producer's run pages
// off its end of the exchange from page 0, then merge them into the global
// order (core.StageEnv.MergeSort) — each delivered page is its own merge
// lane. It keeps no recovery record: a crash-retried attempt runs the same
// code over the exchange's retained stream and writes the same pages.
func (e *workerEnv) consumeSortStream(res *core.CompileResult, stage *physical.JobStage, end consumerEnd) ([]*object.Page, error) {
	// Each delivered page is a sorted contiguous chunk of one thread's run,
	// delivery order is (worker, thread, page), and the merger breaks key
	// ties by lowest lane index — together that reproduces the stable
	// global order.
	end.rewind()
	next := e.deliveries(end)
	var runs [][]*object.Page
	for {
		p, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		runs = append(runs, []*object.Page{p})
	}
	return e.MergeSort(res, stage, runs)
}
