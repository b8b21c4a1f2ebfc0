package cluster

// Distributed ORDER BY / top-k / window as a merge network over the
// exchange (the sort half of "finish the relational surface"): every
// worker sorts its partition into per-thread runs and streams their pages,
// in thread order, to a single merge consumer on worker 0, which merges
// every delivered page as a lane of one tournament into the global stable
// order (and folds a window computation's running aggregate over the merged
// stream). The consumer checkpoints both its delivery cut and its merge
// cursor, so a crash anywhere resumes bit-for-bit from at most one interval
// back.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
)

// sortRecovery is the scheduler-side recovery record for one sort-merge
// consumer. It survives backend crashes (the front end re-forks the
// backend, the record stays): delivered run pages committed at delivery
// cuts, then — once gathering is done — the merge cursor, emit count, and
// window accumulator at the last sealed-output-page boundary. The merge
// checkpoints only at seal boundaries because the row that rides a page
// seal lands entirely on the fresh live page: the committed sealed prefix
// then holds exactly the rows before the snapshot cursor, so a retry with
// a fresh sink and a restored cursor reproduces byte-identical pages.
type sortRecovery struct {
	pages      []*object.Page // delivered run pages, committed at cuts, in Recv order
	cut        int            // committed (acknowledged) delivery cursor
	gatherDone bool

	merging      bool // merge cursor fields below are valid
	mergePos     []engine.RunPos
	mergeEmitted int
	window       engine.WindowState // window accumulator at the cursor
	outPages     []*object.Page     // committed sealed output pages

	saves int
}

// runSortGroup executes a sort-producer / sort-merge-consumer stage pair:
// every worker runs the producer pipeline into per-thread SortSinks and
// streams each thread run's pages down that thread's lane to the single
// consumer (worker 0) of the step's exchange (newShuffleExchange, like every
// other step's); the consumer merges every delivered page as its own
// lane — each page is a sorted contiguous chunk of one thread's run, and
// delivery order is (worker, thread, page), which is source order, so the
// merger's lowest-lane tie-break reproduces the global stable order. Crash
// retries follow the shuffle's pattern: producers re-send identical tags
// (sender-side dedup drops duplicates), the consumer positions its end at its
// last committed cut (hello) and restores its merge cursor.
func (c *Cluster) runSortGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (StageShip, error) {
	nw := len(c.Workers)
	interval := c.checkpointEvery()

	// Register the SortRow carrier with the master first and pin its code
	// on every worker: worker registries assign codes locally, so a lazy
	// SortRowType(w.Reg()) would mint a code already taken by a
	// master-registered user type and shipped pages would resolve to the
	// wrong TypeInfo.
	carrier := engine.SortRowType(c.Catalog.Registry())
	for _, w := range c.Workers {
		w.Reg().PinCode(engine.SortRowTypeName, carrier.Code)
	}

	// No release on acknowledgement: the consumer owns delivered run pages —
	// the merge reads rows off them in place. Only consumer 0 reads.
	ex := c.newShuffleExchange(interval > 0, nil, nil)

	// The recovery record is in-memory only (run pages, merge cursor): a
	// failed step has nothing durable to drop beyond runStep's discard.
	rec := &sortRecovery{}
	end := &exchangeEnd{ex: ex, worker: 0, replayable: interval > 0}
	// All sorted output concentrates on worker 0; the other workers still
	// get the artifact key so downstream scans find (empty) partitions.
	arts := make([]*workerArtifacts, nw)
	roles := make([]role, nw+1)
	for i, w := range c.Workers {
		env := c.env(w)
		arts[i] = &workerArtifacts{pagesKey: cons.Produces}
		roles[i] = role{w: w, name: roleProducer, what: prod.Produces,
			onRetry: stats.noteRetry(roleProducer, false),
			body:    func() error { return env.runSortStreamOnWorker(res, prod, ex) },
			closes:  ex}
	}
	roles[nw] = role{w: c.Workers[0], name: roleConsumer, what: cons.Produces, noRetry: interval <= 0,
		onRetry: stats.noteRetry(roleConsumer, true),
		saves:   &rec.saves,
		body: func() (err error) { // the merge consumer, on worker 0's backend
			arts[0], err = c.env(c.Workers[0]).consumeSortStream(res, cons, end, interval, rec)
			return err
		}}
	ship, err := c.runStep(roles, nil, ex)
	if err != nil {
		return ship, err
	}
	return ship, c.commitArtifacts(arts)
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
	pt, err := e.drivePipeline(res, stage, pages, stage.SinkStmt,
		func(_ int, stats *engine.Stats, _ <-chan struct{}) (engine.Sink, error) {
			return core.NewStageSink(res, stage, e.reg, e.pageSize, e.workers, e.pool, stats)
		}, nil)
	if err != nil {
		return err
	}

	// Thread t's run travels lane t to consumer 0, closed before the next
	// run starts, so delivery order is (worker, thread, page): source order,
	// because thread chunks are contiguous (SplitRanges) — the consumer's
	// stability tie-break. Run pages are self-contained (AppendSortRow
	// deep-copied each row onto them), so they ship as they are.
	for t, sink := range pt.Sinks {
		for seq, p := range sink.Pages() {
			e.fault.Hit(fault.PageSeal, e.id)
			if err := streamErr(ex.Send(exchange.Tag{Producer: e.id, Thread: t, Seq: seq}, 0, p, nil)); err != nil {
				return err
			}
		}
		if err := streamErr(ex.CloseThread(e.id, t, nil)); err != nil {
			return err
		}
	}
	return nil
}

// consumeSortStream is the consumer half: gather every producer's run pages
// off its end of the exchange (acknowledging delivery cuts every interval
// pages so the replay window stays bounded), then merge them into the
// global order — each delivered page is its own merge lane — materializing
// output objects onto fresh pages, with the window fold riding the merged
// stream. With interval > 0 both phases checkpoint into rec, and a
// crash-retried attempt positions the end at the committed cut and restores
// the merge cursor; with interval <= 0 the same code takes no cut (no
// Checkpoint site, no CheckpointIO consult, no counted save).
func (e *workerEnv) consumeSortStream(res *core.CompileResult, stage *physical.JobStage, end consumerEnd,
	interval int, rec *sortRecovery) (*workerArtifacts, error) {
	spec := res.SortSpecs[stage.AggList]
	if spec == nil {
		return nil, fmt.Errorf("no sort spec for %q", stage.AggList)
	}
	ws := res.WindowSpecs[stage.AggList]
	if spec.Window && ws == nil {
		return nil, fmt.Errorf("no window spec for %q", stage.AggList)
	}

	if !rec.gatherDone {
		if err := end.hello(rec.cut); err != nil {
			return nil, err
		}
		var pending []*object.Page
		commit := func() error {
			if len(pending) == 0 {
				return nil
			}
			if interval > 0 {
				e.fault.Hit(fault.Checkpoint, e.id)
				if err := e.fault.ErrAt(fault.CheckpointIO, e.id); err != nil {
					return err
				}
				rec.saves++
			}
			rec.pages = append(rec.pages, pending...)
			rec.cut += len(pending)
			pending = nil
			return end.ack(rec.cut) // a no-op on an end that retains nothing
		}
		for {
			p, ok, err := end.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			e.fault.Hit(fault.Delivery, e.id)
			pending = append(pending, p)
			if interval > 0 && len(pending) >= interval {
				if err := commit(); err != nil {
					return nil, err
				}
			}
		}
		if err := commit(); err != nil {
			return nil, err
		}
		rec.gatherDone = true
	}

	// Merge phase. Every delivered page is one lane: each is a sorted
	// contiguous chunk of one thread's run, delivery order is (worker,
	// thread, page), and the merger breaks key ties by lowest lane index —
	// together that reproduces the stable global order.
	runs := make([][]*object.Page, len(rec.pages))
	for i, p := range rec.pages {
		runs[i] = []*object.Page{p}
	}
	m := engine.NewSortMerger(e.reg, runs, spec.Limit)
	if rec.merging {
		if err := m.Restore(rec.mergePos, rec.mergeEmitted); err != nil {
			return nil, err
		}
	}
	var stats engine.Stats
	sink, err := engine.NewOutputSink(e.reg, e.pageSize, e.pool, &stats)
	if err != nil {
		return nil, err
	}
	out := sink.Out
	window := rec.window
	committed := 0 // sealed pages already committed into rec by THIS attempt
	sealsSinceCut := 0
	for {
		windowBefore := window
		_, obj, val, ok := m.NextRow()
		if !ok {
			break
		}
		sealedBefore := len(out.Sealed)
		if err := engine.EmitMerged(out, ws, &window, obj, val); err != nil {
			return nil, err
		}
		if interval <= 0 || len(out.Sealed) == sealedBefore {
			continue
		}
		sealsSinceCut += len(out.Sealed) - sealedBefore
		if sealsSinceCut < interval {
			continue
		}
		// Seal-boundary checkpoint: the row that rode the seal landed
		// entirely on the fresh live page, so the sealed prefix holds
		// exactly the rows before this one. The snapshot is the cursor as
		// it stood before the row (the merger remembers the one lane that
		// moved, so nothing is copied on the rows that seal nothing) — a
		// retry restores it and re-emits this row first onto a fresh
		// (empty) live page, reproducing identical page boundaries.
		e.fault.Hit(fault.Checkpoint, e.id)
		if err := e.fault.ErrAt(fault.CheckpointIO, e.id); err != nil {
			return nil, err
		}
		rec.outPages = append(rec.outPages, out.Sealed[committed:]...)
		committed = len(out.Sealed)
		rec.mergePos, rec.mergeEmitted = m.CursorBeforeLast()
		rec.window = windowBefore
		rec.merging = true
		rec.saves++
		sealsSinceCut = 0
	}
	e.fault.Hit(fault.Finalize, e.id)
	final := append(append([]*object.Page{}, rec.outPages...), out.Pages()[committed:]...)
	e.noteStats(stats)
	return &workerArtifacts{pages: final, pagesKey: stage.Produces}, nil
}
