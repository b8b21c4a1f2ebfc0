package cluster

// Distributed ORDER BY / top-k / window as a merge network over the
// exchange (the sort half of "finish the relational surface"): every
// worker sorts its partition into per-thread runs and streams their pages,
// in thread order, to a single merge consumer on worker 0, which merges
// every delivered page as a lane of one tournament into the global stable
// order (and folds a window computation's running aggregate over the merged
// stream). The consumer keeps every run page until the merge ends: a crash
// anywhere re-gathers the retained stream from page 0 and re-merges it,
// bit-for-bit.

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
)

// runSortGroup executes a sort-producer / sort-merge-consumer stage pair:
// every worker runs the producer pipeline into per-thread SortSinks and
// streams each thread run's pages down that thread's lane to the single
// consumer (worker 0) of the step's exchange (newShuffleExchange, like every
// other step's); the consumer merges every delivered page as its own
// lane — each page is a sorted contiguous chunk of one thread's run, and
// delivery order is (worker, thread, page), which is source order, so the
// merger's lowest-lane tie-break reproduces the global stable order. Crash
// retries follow the shuffle's pattern: producers re-send identical tags
// (sender-side dedup drops duplicates), and the consumer rewinds its end to
// page 0 and merges again onto a fresh sink.
func (c *Cluster) runSortGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (StageShip, error) {
	nw := len(c.Workers)

	// Register the SortRow carrier with the master first and pin its code
	// on every worker: worker registries assign codes locally, so a lazy
	// SortRowType(w.Reg()) would mint a code already taken by a
	// master-registered user type and shipped pages would resolve to the
	// wrong TypeInfo.
	carrier := engine.SortRowType(c.Catalog.Registry())
	for _, w := range c.Workers {
		w.Reg().PinCode(engine.SortRowTypeName, carrier.Code)
	}

	// No release: the consumer owns delivered run pages — the merge reads
	// rows off them in place. Only consumer 0 reads.
	ex := c.newShuffleExchange(nil, nil)
	end := &exchangeEnd{ex: ex, worker: 0}
	// All sorted output concentrates on worker 0; the other workers still
	// get the artifact key so downstream scans find (empty) partitions.
	arts := make([]core.Artifact, nw)
	roles := make([]role, nw+1)
	for i, w := range c.Workers {
		env := c.env(w)
		roles[i] = role{w: w, name: roleProducer, what: prod.Produces,
			onRetry: stats.noteRetry(roleProducer, false),
			body:    func() error { return env.runSortStreamOnWorker(res, prod, ex) },
			closes:  ex}
	}
	roles[nw] = role{w: c.Workers[0], name: roleConsumer, what: cons.Produces,
		onRetry: stats.noteRetry(roleConsumer, true),
		body: func() (err error) { // the merge consumer, on worker 0's backend
			arts[0].Pages, err = c.env(c.Workers[0]).consumeSortStream(res, cons, end)
			return err
		}}
	ship, err := c.runStep(roles, nil, ex)
	if err != nil {
		return ship, err
	}
	return ship, c.commitArtifacts(cons, arts)
}

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
func (e *workerEnv) runSortStreamOnWorker(res *core.CompileResult, stage *physical.JobStage, ex *exchange.Exchange) error {
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
	// reference.
	for t, run := range art.Runs {
		for seq, p := range run {
			e.Fault.Hit(fault.PageSeal, e.ID)
			if err := streamErr(ex.Send(exchange.Tag{Producer: e.ID, Thread: t, Seq: seq}, 0, p, nil)); err != nil {
				return err
			}
		}
		if err := streamErr(ex.CloseThread(e.ID, t, nil)); err != nil {
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
