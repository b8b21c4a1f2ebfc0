package cluster

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// StageShip reports one scheduled step's shuffle traffic, measured at the
// transport.
type StageShip struct {
	// Stage is the step's physical stage ID (for an exchange-linked pair,
	// the producing stage's).
	Stage int
	// Bytes and Pages count transport traffic during the step: exchange
	// streams, broadcast-join ships, and output loading alike.
	Bytes int64
	Pages int
	// MaxBytesInFlight is the step's exchange bytes-in-flight high-water
	// mark (zero for steps without a streaming shuffle).
	MaxBytesInFlight int64
	// MaxReorderPages is the largest undelivered-page backlog any
	// consumer's exchange lanes reached during the step — hard-bounded by
	// ShuffleCapacity × Threads per producer.
	MaxReorderPages int64
	// Checkpoints counts the consumer-side recovery checkpoints taken
	// during the step (zero for steps without a streaming shuffle, or
	// with recovery disabled).
	Checkpoints int
	// SpilledPages counts the page images the step's memory governor
	// (Config.MemoryBudget) moved to spill files — lane pages, retained
	// replay pages, and checkpoint snapshots alike; zero when governance
	// is off.
	SpilledPages int64
	// SpilledBytes is SpilledPages' byte volume.
	SpilledBytes int64
	// MaxBufferedBytes is the largest resident governed-byte footprint
	// any single consumer backend reached during the step (lane pages +
	// replay retention + in-memory snapshots). With a budget set it never
	// exceeds Config.MemoryBudget, excluding the single page being
	// delivered.
	MaxBufferedBytes int64
}

// ExecStats reports one distributed execution.
type ExecStats struct {
	Optimizer optimizer.Stats
	Stages    int
	Retries   int // backend crash retries, all roles
	// RoleRetries breaks Retries out per role ("pipeline", "producer",
	// "consumer") — which half of a streaming step absorbed the crashes.
	RoleRetries map[string]int
	// ConsumerRecoveries counts backend crashes inside consuming merges
	// that were recovered by checkpoint restore + stream replay (a subset
	// of Retries).
	ConsumerRecoveries int
	// ConsumerResumes counts consumers that resumed from recovery state a
	// previous cluster persisted under DataDir (Config.ResumeOnRestart):
	// the merge restored the on-disk checkpoint and fast-forwarded the
	// exchange past the already-merged prefix instead of starting over.
	ConsumerResumes int
	// Threads is the per-worker executor-thread budget pipeline stages
	// ran with (Config.Threads after defaulting).
	Threads int
	// Ships records per-stage shuffle traffic in schedule order.
	Ships []StageShip
}

// Execute is the distributed query path: the client compiles the
// computation graph to TCAP, the master's optimizer improves it, the
// distributed query scheduler breaks it into job stages and runs each
// schedulable step across all worker backends (paper §2, Appendix D.1).
// Exchange-linked stage pairs — a pre-aggregation producer and its
// aggregation consumer — run as one step with the shuffle streaming
// between them; all other stages run with the classic all-workers barrier.
func (c *Cluster) Execute(writes ...*core.Write) (*ExecStats, error) {
	res, err := core.Compile(writes...)
	if err != nil {
		return nil, err
	}
	opt, ostats, err := optimizer.Optimize(res.Prog)
	if err != nil {
		return nil, err
	}
	res.Prog = opt
	plan, err := physical.Build(opt)
	if err != nil {
		return nil, err
	}
	c.jobFP = jobFingerprint(opt.Print(), c.Cfg.Workers, c.Cfg.Threads, c.Cfg.PageSize)
	if c.Cfg.ProcBin != "" {
		if err := c.prepareProcs(plan.Stages); err != nil {
			return nil, err
		}
	}
	stats := &ExecStats{Optimizer: *ostats, Stages: len(plan.Stages), Threads: c.Cfg.Threads, RoleRetries: map[string]int{}}

	// Reset per-job worker artifacts, recycling the previous job's
	// transient pages through the page pool (buffer-pool reuse, §3).
	for _, w := range c.Workers {
		for _, pages := range w.artPages {
			for _, p := range pages {
				c.pool.Put(p)
			}
		}
		w.artPages = map[string][]*object.Page{}
		w.artTables = map[string]*engine.JoinTable{}
	}
	done := map[*physical.JobStage]bool{}
	for _, stage := range plan.Stages {
		if done[stage] {
			continue
		}
		beforeBytes, beforePages := c.Transport.Stats().Counters()
		var tel exchangeTelemetry
		if stage.ExchangeTo != nil {
			switch {
			case stage.ExchangeTo.Kind == physical.StageSortMerge:
				// Sort plans never reach proc mode (prepareProcs rejects
				// them), so the in-process merge network is the only path.
				tel, err = c.runSortGroup(res, stage, stage.ExchangeTo, stats)
			case c.Cfg.ProcBin != "":
				tel, err = c.procExchangeGroup(res, stage, stage.ExchangeTo, stats)
			default:
				tel, err = c.runExchangeGroup(res, stage, stage.ExchangeTo, stats)
			}
			done[stage.ExchangeTo] = true
		} else {
			err = c.runStage(res, stage, stats)
		}
		afterBytes, afterPages := c.Transport.Stats().Counters()
		stats.Ships = append(stats.Ships, StageShip{
			Stage: stage.ID,
			Bytes: afterBytes - beforeBytes,
			Pages: afterPages - beforePages,

			MaxBytesInFlight: tel.hwm,
			MaxReorderPages:  tel.reorderPages,
			Checkpoints:      tel.checkpoints,
			SpilledPages:     tel.spilledPages,
			SpilledBytes:     tel.spilledBytes,
			MaxBufferedBytes: tel.maxBuffered,
		})
		if err != nil {
			return stats, fmt.Errorf("cluster: stage %d (%s): %w", stage.ID, stage.Produces, err)
		}
	}
	return stats, nil
}

// workerArtifacts is one worker's stage result, committed to the worker's
// artifact maps only after every worker finishes (so concurrent goroutines
// never write a map a peer is reading).
type workerArtifacts struct {
	pages     []*object.Page
	pagesKey  string
	table     *engine.JoinTable
	tableKey  string
	outputDb  string
	outputSet string
}

// commitArtifacts installs every worker's stage results after the barrier.
func (c *Cluster) commitArtifacts(arts []*workerArtifacts) error {
	for i, w := range c.Workers {
		a := arts[i]
		if a == nil {
			continue
		}
		if a.pagesKey != "" {
			w.artPages[a.pagesKey] = a.pages
		}
		if a.tableKey != "" {
			w.artTables[a.tableKey] = a.table
		}
		if a.outputSet != "" {
			if err := w.Front.Store.Append(a.outputDb, a.outputSet, a.pages); err != nil {
				return err
			}
			for _, p := range a.pages {
				c.Catalog.UpdateSetStats(a.outputDb, a.outputSet, 1, int64(p.Used()))
			}
		}
	}
	return nil
}

// noteRetry builds a runRole onRetry callback accounting one crash retry
// under mu.
func noteRetry(mu *sync.Mutex, stats *ExecStats, role string, consumerRecovery bool) func() {
	return func() {
		mu.Lock()
		stats.Retries++
		if stats.RoleRetries == nil {
			stats.RoleRetries = map[string]int{}
		}
		stats.RoleRetries[role]++
		if consumerRecovery {
			stats.ConsumerRecoveries++
		}
		mu.Unlock()
	}
}

// runStage executes one barrier job stage on every worker in parallel,
// retrying a worker's share within Config.MaxRetries if its backend
// crashes (the front end re-forks it — paper §2's crash-proof front end).
func (c *Cluster) runStage(res *core.CompileResult, stage *physical.JobStage, stats *ExecStats) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.Workers))
	arts := make([]*workerArtifacts, len(c.Workers))
	var mu sync.Mutex

	for i, w := range c.Workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = c.runRole(w, rolePipeline, stage.Produces, nil,
				noteRetry(&mu, stats, rolePipeline, false), func() error {
					out, err := c.runStageOnWorker(res, stage, w)
					if err != nil {
						return err
					}
					arts[i] = out
					return nil
				})
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return c.commitArtifacts(arts)
}

// sourcePagesFor resolves a stage's input pages on one worker.
func (c *Cluster) sourcePagesFor(stage *physical.JobStage, w *Worker) ([]*object.Page, error) {
	if stage.Scan != nil {
		pages, err := w.Front.Store.Pages(stage.Scan.Db, stage.Scan.Set)
		if err != nil {
			// A worker may simply hold no pages of this set.
			return nil, nil
		}
		return pages, nil
	}
	return w.artPages["mat:"+stage.SourceList], nil
}

func (c *Cluster) runStageOnWorker(res *core.CompileResult, stage *physical.JobStage, w *Worker) (*workerArtifacts, error) {
	switch {
	case stage.Kind == physical.StagePipeline && stage.Sink != physical.SinkPreAgg:
		return c.runPipelineOnWorker(res, stage, w)
	default:
		// Pre-aggregation producers and aggregation consumers are
		// exchange-linked and scheduled by runExchangeGroup.
		return nil, fmt.Errorf("stage kind %d/sink %v must run through the exchange", stage.Kind, stage.Sink)
	}
}

// newStageSink builds one executor thread's private sink for a barrier
// pipeline stage, charging page counters to the thread's stats.
func (c *Cluster) newStageSink(res *core.CompileResult, stage *physical.JobStage, w *Worker, stats *engine.Stats) (engine.Sink, error) {
	switch stage.Sink {
	case physical.SinkOutput, physical.SinkMaterialize:
		return engine.NewOutputSink(w.Reg(), c.Cfg.PageSize, c.pool, stats)
	case physical.SinkJoinBuild:
		if jt := stage.SinkStmt.Info["joinType"]; jt == "semi" || jt == "anti" {
			// Semi/anti joins build an exact key-value set from the raw
			// key column — no hash table.
			return engine.NewKeySetBuildSink(stage.SinkStmt.Applied2.Cols[0]), nil
		}
		return engine.NewJoinBuildSink(stage.SinkStmt.Applied2.Cols[0], stage.SinkStmt.Copied2.Cols[0]), nil
	default:
		return nil, fmt.Errorf("unknown sink %v", stage.Sink)
	}
}

// runPipelineOnWorker executes a barrier pipeline stage on one worker
// across Config.Threads executor threads via the engine's shared stage
// driver: the worker's source batches are split into contiguous chunks,
// each driven through a private Pipeline/Ctx/sink (per-thread output pages,
// per-thread stats — nothing shared on the hot path), and the per-thread
// results are combined after the barrier:
//
//   - OUTPUT / materialize sinks: per-thread pages are concatenated in
//     thread order, which is source order because chunks are contiguous.
//   - Join-build sinks: per-thread hash tables are merged bucket-wise in
//     thread order.
//
// (Pre-aggregation sinks stream through the exchange instead; see
// runExchangeGroup.)
func (c *Cluster) runPipelineOnWorker(res *core.CompileResult, stage *physical.JobStage, w *Worker) (*workerArtifacts, error) {
	pages, err := c.sourcePagesFor(stage, w)
	if err != nil {
		return nil, err
	}

	// Broadcast join build: every worker needs the complete build input,
	// so pages from the other workers are shipped over (the scheduler
	// chose broadcast because the build side is small; see
	// HashPartitionJoin for the large-side strategy). The inputs are
	// already materialized — there is no production to overlap — so this
	// stays a batch ship, not an exchange.
	if stage.Sink == physical.SinkJoinBuild {
		for _, other := range c.Workers {
			if other == w {
				continue
			}
			otherPages, err := c.sourcePagesFor(stage, other)
			if err != nil {
				return nil, err
			}
			shipped, err := c.Transport.ShipAll(otherPages, w.Reg())
			if err != nil {
				return nil, err
			}
			pages = append(pages, shipped...)
		}
	}

	sinkStmt := stage.SinkStmt
	if stage.Sink == physical.SinkMaterialize {
		last := stage.Stmts[len(stage.Stmts)-1]
		col := last.Out.Cols[0]
		if len(last.Out.Cols) > 1 {
			if nc := last.NewColumns(); len(nc) == 1 {
				col = nc[0]
			}
		}
		sinkStmt = &tcap.Stmt{
			Op:      tcap.OpOutput,
			Applied: tcap.ColumnsRef{Name: last.Out.Name, Cols: []string{col}},
		}
	}

	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), c.Cfg.Threads)
	if len(chunks) == 0 {
		// No input on this worker: a single empty chunk still builds
		// the sink, so the stage's artifact contract (possibly empty
		// pages, an empty join table) is honored.
		chunks = [][]engine.PageRange{nil}
	}

	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, sinkStmt,
		func(t int, stats *engine.Stats, _ <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := c.newStageSink(res, stage, w, stats)
			if err != nil {
				return nil, nil, err
			}
			ctx, err := engine.NewSinkCtx(sink, w.Reg(), w.artTables, c.Cfg.PageSize, c.pool, stats)
			if err != nil {
				return nil, nil, err
			}
			return sink, ctx, nil
		}, nil)
	// Fold per-thread counters into the backend even on error, matching
	// the sequential path's incremental accounting.
	for t := range pt.Stats {
		w.mergeStats(&pt.Stats[t])
	}
	if err != nil {
		return nil, err
	}

	switch stage.Sink {
	case physical.SinkOutput, physical.SinkMaterialize:
		out := pt.OutputPages()
		if stage.Sink == physical.SinkOutput {
			return &workerArtifacts{pages: out, outputDb: stage.SinkStmt.Db, outputSet: stage.SinkStmt.Set}, nil
		}
		return &workerArtifacts{pages: out, pagesKey: stage.Produces}, nil
	case physical.SinkJoinBuild:
		table := pt.MergeJoinTables(c.pool)
		return &workerArtifacts{table: table, tableKey: stage.SinkStmt.Applied2.Name}, nil
	}
	return nil, nil
}

// newShuffleExchange wires an exchange to the simulated transport: one lane
// per (producer, executor thread, consumer) so ShuffleCapacity is a hard
// per-thread bound; shipping copies the page into the consumer's registry
// (a worker's own pages pass by reference); and retry duplicates, dropped
// at the sender, recycle through the page pool. replayable turns on
// delivered-page retention for consumer crash recovery; releaseDelivered
// receives pages once a consumer's checkpoint acknowledges them (nil when
// the consumer's state keeps referencing them, as the join-table build
// does). govs, when non-nil, attach the step's per-worker memory governors
// (Config.MemoryBudget) so over-budget pages spill to disk.
func (c *Cluster) newShuffleExchange(replayable bool, releaseDelivered func(*object.Page),
	govs []*exchange.Governor) *exchange.Exchange {
	return exchange.New(exchange.Config{
		Producers:  len(c.Workers),
		Consumers:  len(c.Workers),
		Threads:    c.Cfg.Threads,
		Capacity:   c.Cfg.ShuffleCapacity,
		Replayable: replayable,
		Ship: func(p *object.Page, producer, consumer int) (*object.Page, error) {
			if producer == consumer {
				return p, nil
			}
			return c.Transport.Ship(p, c.Workers[consumer].Reg())
		},
		Release:          func(p *object.Page) { c.pool.Put(p) },
		ReleaseDelivered: releaseDelivered,
		Governors:        govs,
	})
}

// exchangeTelemetry is one exchange-linked step's observability record.
type exchangeTelemetry struct {
	hwm          int64
	reorderPages int64
	checkpoints  int
	spilledPages int64
	spilledBytes int64
	maxBuffered  int64
}

// streamErr translates an exchange send aborted by sibling-thread failure
// into the engine's abort sentinel, so the root cause wins error reporting.
func streamErr(err error) error {
	if errors.Is(err, exchange.ErrProducerStopped) {
		return engine.ErrAborted
	}
	return err
}

// runExchangeGroup executes an exchange-linked stage pair — a
// pre-aggregation producer and its aggregation consumer (paper Appendix
// D.2, Figure 5) — concurrently on every worker. Each producer thread's
// AggSink streams sealed map pages into the exchange tagged (worker,
// thread, sequence); every consumer merges its own hash partition out of
// the stream as pages arrive, in deterministic tag order
// (engine.MergeAggMapsStream across Config.Threads hash-range
// sub-partitions), then finalizes the disjoint sub-maps concurrently.
//
// A producer whose backend crashes mid-stream is re-forked and retried
// (within Config.MaxRetries); the deterministic re-run re-sends the same
// tagged pages and the exchange drops the duplicates at the sender. A
// consumer whose backend crashes mid-merge is also re-forked and retried:
// the merge checkpoints its sub-maps every interval pages (acknowledging
// each cut so the exchange's replay retention stays bounded), and the
// retry restores the last checkpoint, rewinds the exchange to its cut, and
// re-consumes only the replayed suffix — bit-for-bit identical to a
// crash-free run. When the step fails anyway (retries exhausted, a
// deterministic crash, or an injected I/O error), the failure path
// releases everything the step still holds: undelivered and retained
// exchange pages (Exchange.Discard), checkpoint snapshots, spill slots.
func (c *Cluster) runExchangeGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (exchangeTelemetry, error) {
	nw := len(c.Workers)
	interval := c.checkpointEvery(cons)
	govs, closeGovs := c.stepGovernors()
	defer closeGovs()
	ex := c.newShuffleExchange(interval > 0, func(p *object.Page) { c.pool.Put(p) }, govs)
	arts := make([]*workerArtifacts, nw)
	errs := make([]error, 2*nw)
	recs := make([]*aggRecovery, nw)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, w := range c.Workers {
		wg.Add(1)
		go func(i int, w *Worker) { // producer role
			defer wg.Done()
			err := c.runRole(w, roleProducer, prod.Produces, nil,
				noteRetry(&mu, stats, roleProducer, false), func() error {
					return c.runPreAggStreamOnWorker(res, prod, w, ex)
				})
			if err != nil {
				errs[i] = err
				ex.Cancel(err)
				return
			}
			ex.CloseProducer(i)
		}(i, w)
		wg.Add(1)
		go func(i int, w *Worker) { // consumer role
			defer wg.Done()
			rec := &aggRecovery{produces: cons.Produces}
			recs[i] = rec
			err := c.runRole(w, roleConsumer, cons.Produces,
				func() bool { return interval > 0 },
				noteRetry(&mu, stats, roleConsumer, true), func() error {
					var gov *exchange.Governor
					if govs != nil {
						gov = govs[w.ID]
					}
					a, err := c.consumeAggStream(res, cons, w, ex, interval, rec, gov)
					if err != nil {
						return err
					}
					arts[i] = a
					return nil
				})
			if err != nil {
				errs[nw+i] = err
				ex.Cancel(err)
			}
		}(i, w)
	}
	wg.Wait()
	tel := exchangeTelemetry{hwm: ex.MaxBytesInFlight(), reorderPages: ex.MaxReorderPages()}
	for _, rec := range recs {
		if rec != nil {
			tel.checkpoints += rec.saves
			if rec.resumed {
				stats.ConsumerResumes++
			}
		}
	}
	c.Transport.Stats().NoteExchange(tel.hwm, tel.reorderPages, tel.checkpoints)
	for _, err := range errs {
		if err != nil {
			// Failure cleanup: both roles have returned, so nothing
			// touches the exchange or the recovery records anymore.
			// Release every page the step still holds — undelivered lane
			// messages, replay retention — and every worker's checkpoint
			// snapshots, so the step's governors and spill pools close
			// with zero live slots and no _ckpt sets survive.
			ex.Discard()
			// A crash-type failure on a ResumeOnRestart cluster keeps the
			// durable recovery state (_ckpt snapshot sets and resume
			// metadata) on disk: that state is exactly what lets a restarted
			// cluster resume this job mid-stream. Every other failure — and
			// every cluster without the opt-in — cleans up as always.
			keep := c.Cfg.ResumeOnRestart && c.Cfg.DataDir != "" &&
				(errors.Is(err, errBackendCrashed) || errors.Is(err, errBackendDead))
			for j, w := range c.Workers {
				if recs[j] == nil {
					continue
				}
				var gov *exchange.Governor
				if govs != nil {
					gov = govs[j]
				}
				if keep {
					// Governor bookkeeping still closes (DataDir snapshots
					// hold no slots or reservations); the disk state stays.
					recs[j].releaseSnapshots(gov)
					continue
				}
				c.dropAggCheckpoint(w, recs[j], gov)
			}
			tel.spilledPages, tel.spilledBytes, tel.maxBuffered = c.spillTelemetry(govs)
			return tel, err
		}
	}
	tel.spilledPages, tel.spilledBytes, tel.maxBuffered = c.spillTelemetry(govs)
	return tel, c.commitArtifacts(arts)
}

// runPreAggStreamOnWorker is the producer half of a streaming shuffle: the
// pre-aggregation pipeline runs across Config.Threads executor threads, and
// each thread's AggSink broadcasts every sealed page to all consumers the
// moment it fills (each consumer owns one hash partition of every page).
// The thread flushes its final live page and sends its close marker on the
// way out, so each channel carries the thread's stream in sequence order.
func (c *Cluster) runPreAggStreamOnWorker(res *core.CompileResult, stage *physical.JobStage, w *Worker, ex *exchange.Exchange) error {
	spec := res.AggSpecs[stage.SinkStmt.Out.Name]
	if spec == nil {
		return fmt.Errorf("no aggregation spec for %q", stage.SinkStmt.Out.Name)
	}
	pages, err := c.sourcePagesFor(stage, w)
	if err != nil {
		return err
	}
	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), c.Cfg.Threads)
	if len(chunks) == 0 {
		// A worker with no input still streams one page of empty
		// partition maps, honoring the shuffle's artifact contract.
		chunks = [][]engine.PageRange{nil}
	}
	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, stage.SinkStmt,
		func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := engine.NewAggSink(w.Reg(), c.Cfg.PageSize, len(c.Workers),
				spec.KeyKind, spec.ValKind, spec.Combine,
				stage.SinkStmt.Applied.Cols[0], stage.SinkStmt.Applied.Cols[1], c.pool, stats)
			if err != nil {
				return nil, nil, err
			}
			ctx, err := engine.NewSinkCtx(sink, w.Reg(), w.artTables, c.Cfg.PageSize, c.pool, stats)
			if err != nil {
				return nil, nil, err
			}
			seq := 0
			sink.Out.OnSeal = func(p *object.Page) error {
				c.Cfg.Fault.Hit(fault.PageSeal, w.ID)
				tag := exchange.Tag{Producer: w.ID, Thread: t, Seq: seq}
				seq++
				return streamErr(ex.Broadcast(tag, p, stop))
			}
			return sink, ctx, nil
		},
		func(t int, stop <-chan struct{}) error {
			return streamErr(ex.CloseThread(w.ID, t, stop))
		})
	for t := range pt.Stats {
		w.mergeStats(&pt.Stats[t])
	}
	return err
}

// consumeAggStream is the consumer half: worker w owns hash partition w and
// merges it incrementally from the exchange, then finalizes the sub-maps
// into this worker's share of the result (its "mat:" artifact).
//
// With interval > 0 the merge is replayable: it rewinds the exchange to
// rec's last cut (a no-op on a fresh first attempt), restores the
// checkpointed sub-maps if any, and snapshots + acknowledges a new cut
// every interval pages plus once at stream end — so a crash anywhere in
// the merge or finalize resumes from at most one interval back. Delivered
// pages recycle through the exchange's acknowledge path instead of a
// per-fold release, since the replay window still needs them.
func (c *Cluster) consumeAggStream(res *core.CompileResult, stage *physical.JobStage, w *Worker,
	ex *exchange.Exchange, interval int, rec *aggRecovery, gov *exchange.Governor) (*workerArtifacts, error) {
	spec := res.AggSpecs[stage.AggList]
	if spec == nil {
		return nil, fmt.Errorf("no aggregation spec for %q", stage.AggList)
	}
	release := func(p *object.Page) { c.pool.Put(p) }
	var ckptr *engine.MergeCheckpointer
	cut := 0
	if interval > 0 {
		if rec.ckpt == nil && c.Cfg.DataDir != "" {
			// Fresh record on a disk-backed cluster: a previous cluster may
			// have left durable cut metadata for this very job (resume.go).
			c.loadAggResume(w, rec, stage.Produces)
		}
		resume, err := c.loadAggCheckpoint(w, rec, gov)
		if err != nil {
			return nil, err
		}
		if resume != nil {
			cut = resume.Cut
		}
		if rec.restored {
			// Cross-restart resume: this exchange never delivered the cut —
			// the producers are re-streaming the job from page zero. The
			// first cut pages are already merged into the restored
			// snapshots, so receive and discard them (retention owns the
			// refs), then acknowledge the cut to empty the replay window.
			// Rewinding to zero first makes a crash mid-fast-forward
			// harmless: the retry replays and drains the same prefix.
			if err := ex.Rewind(w.ID, 0); err != nil {
				return nil, err
			}
			for i := 0; i < cut; i++ {
				if _, ok, err := ex.Recv(w.ID); err != nil {
					return nil, err
				} else if !ok {
					return nil, fmt.Errorf("cluster: resume cut %d is past the stream's end (page %d)", cut, i)
				}
			}
			if err := ex.Ack(w.ID, cut); err != nil {
				return nil, err
			}
			rec.restored = false
			rec.resumed = true
		} else if err := ex.Rewind(w.ID, cut); err != nil {
			return nil, err
		}
		release = nil
		ckptr = &engine.MergeCheckpointer{
			Interval: interval,
			Resume:   resume,
			Save: func(ck *engine.MergeCheckpoint) error {
				if err := c.persistAggCheckpoint(w, rec, stage.Produces, ck, gov); err != nil {
					return err
				}
				return ex.Ack(w.ID, ck.Cut)
			},
		}
	}
	next := func() (*object.Page, bool, error) {
		p, ok, err := ex.Recv(w.ID)
		if ok {
			c.Cfg.Fault.Hit(fault.Delivery, w.ID)
		}
		return p, ok, err
	}
	finals, mergePages, err := engine.MergeAggMapsStream(w.Reg(), next, w.ID, len(c.Workers),
		spec, c.Cfg.PageSize, c.pool, c.Cfg.Threads, release, ckptr)
	if err != nil {
		return nil, err
	}
	c.Cfg.Fault.Hit(fault.Finalize, w.ID)
	var fstats engine.Stats
	out, err := engine.FinalizeAggParallel(w.Reg(), finals, spec, c.Cfg.PageSize, c.pool, &fstats)
	w.mergeStats(&fstats)
	if err != nil {
		return nil, err
	}
	// The merge pages' contents were finalized into out; recycle them and
	// discard the recovery snapshots — the artifact is about to commit.
	for _, pg := range mergePages {
		c.pool.Put(pg)
	}
	if interval > 0 {
		c.dropAggCheckpoint(w, rec, gov)
	}
	return &workerArtifacts{pages: out, pagesKey: stage.Produces}, nil
}
