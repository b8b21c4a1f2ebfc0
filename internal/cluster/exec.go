package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/procwork"
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
	// exchange.DefaultCapacity × Threads per producer, plus the page being
	// delivered (exchange.MaxReorderPages).
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
	// ConsumerResumes counts consumers that resumed from a durable cut a
	// dead process left under DataDir for this very job (same program,
	// cluster shape and input sets): the merge restored the on-disk
	// checkpoint and fast-forwarded the exchange past the already-merged
	// prefix instead of starting over.
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
	c.jobFP = c.jobFingerprint(opt.Print(), plan.Stages)
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
		var ship StageShip
		if stage.ExchangeTo != nil {
			if stage.ExchangeTo.Kind == physical.StageSortMerge {
				// Sort plans never reach proc mode (prepareProcs rejects
				// them), so the in-process merge network is the only path.
				ship, err = c.runSortGroup(res, stage, stage.ExchangeTo, stats)
			} else {
				ship, err = c.runExchangeGroup(res, stage, stage.ExchangeTo, stats)
			}
			done[stage.ExchangeTo] = true
		} else {
			err = c.runStage(res, stage, stats)
		}
		afterBytes, afterPages := c.Transport.Stats().Counters()
		ship.Stage, ship.Bytes, ship.Pages = stage.ID, afterBytes-beforeBytes, afterPages-beforePages
		stats.Ships = append(stats.Ships, ship)
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

// noteRetry builds a role's onRetry callback accounting one crash retry
// (runStep serializes the calls).
func (s *ExecStats) noteRetry(role string, consumerRecovery bool) func() {
	return func() {
		s.Retries++
		s.RoleRetries[role]++
		if consumerRecovery {
			s.ConsumerRecoveries++
		}
	}
}

// runStage executes one barrier job stage on every worker in parallel,
// retrying a worker's share within Config.MaxRetries if its backend
// crashes (the front end re-forks it — paper §2's crash-proof front end).
func (c *Cluster) runStage(res *core.CompileResult, stage *physical.JobStage, stats *ExecStats) error {
	if stage.Kind != physical.StagePipeline || stage.Sink == physical.SinkPreAgg {
		// Pre-aggregation producers and aggregation consumers are
		// exchange-linked and scheduled by runExchangeGroup.
		return fmt.Errorf("stage kind %d/sink %v must run through the exchange", stage.Kind, stage.Sink)
	}
	arts := make([]*workerArtifacts, len(c.Workers))
	roles := make([]role, len(c.Workers))
	for i, w := range c.Workers {
		roles[i] = role{w: w, name: rolePipeline, what: stage.Produces,
			onRetry: stats.noteRetry(rolePipeline, false),
			body: func() (err error) {
				arts[i], err = c.runPipelineOnWorker(res, stage, w)
				return err
			}}
	}
	if _, err := c.runStep(roles, nil); err != nil {
		return err
	}
	return c.commitArtifacts(arts)
}

// runPipelineOnWorker executes a barrier pipeline stage on one worker
// across Config.Threads executor threads (workerEnv.drivePipeline) and
// combines the per-thread results after the barrier:
//
//   - OUTPUT / materialize sinks: per-thread pages are concatenated in
//     thread order, which is source order because chunks are contiguous.
//   - Join-build sinks: per-thread hash tables are merged bucket-wise in
//     thread order.
//
// (Pre-aggregation sinks stream through the exchange instead; see
// runExchangeGroup.)
func (c *Cluster) runPipelineOnWorker(res *core.CompileResult, stage *physical.JobStage, w *Worker) (*workerArtifacts, error) {
	env := c.env(w)
	pages, err := env.sourcePages(stage)
	if err != nil {
		return nil, err
	}

	// Broadcast join build: every worker needs the complete build input,
	// so pages from the other workers are shipped over (a planned
	// core.Join always broadcasts; a caller with a large build side calls
	// HashPartitionJoinKind instead). The inputs are already materialized
	// — there is no production to overlap — so this stays a batch ship,
	// not an exchange.
	if stage.Sink == physical.SinkJoinBuild {
		for _, other := range c.Workers {
			if other == w {
				continue
			}
			otherPages, err := c.env(other).sourcePages(stage)
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

	sinkStmt, err := core.StageSinkStmt(stage)
	if err != nil {
		return nil, err
	}
	pt, err := env.drivePipeline(res, stage, pages, sinkStmt,
		func(_ int, stats *engine.Stats, _ <-chan struct{}) (engine.Sink, error) {
			return core.NewStageSink(res, stage, env.reg, env.pageSize, env.workers, env.pool, stats)
		}, nil)
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

// newShuffleExchange builds every step's exchange and wires it to the
// simulated transport: one lane per (producer, executor thread, consumer),
// each holding exchange.DefaultCapacity pages, so the in-flight bound is per
// thread; shipping copies the page into the consumer's registry (a worker's
// own pages pass by reference); and retry duplicates, dropped at the sender,
// recycle through the page pool. replayable turns on delivered-page
// retention for consumer crash recovery; releaseDelivered receives pages
// once a consumer's checkpoint acknowledges them (nil when the consumer's
// state keeps referencing them, as the join-table build and the sort merge
// do). govs, when non-nil, attach the step's per-worker memory governors
// (Config.MemoryBudget) so over-budget pages spill to disk.
func (c *Cluster) newShuffleExchange(replayable bool, releaseDelivered func(*object.Page),
	govs []*exchange.Governor) *exchange.Exchange {
	return exchange.New(exchange.Config{
		Producers:  len(c.Workers),
		Consumers:  len(c.Workers),
		Threads:    c.Cfg.Threads,
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
// exchange pages (runStep), checkpoint snapshots, spill slots.
//
// In proc mode (Config.ProcBin) the step is the same — same exchange, same
// roles, same retry accounting — with each role's body a session that has
// the worker's pcworker process run the role function and relays its end
// of the stream (procrun.go).
func (c *Cluster) runExchangeGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (StageShip, error) {
	nw := len(c.Workers)
	interval := c.checkpointEvery()
	govs, closeGovs := c.stepGovernors()
	defer closeGovs()
	proc := c.procs != nil
	var opener *procwork.Msg
	if proc {
		// No governors: the exchange lives in the master, whose memory a
		// per-backend budget does not describe.
		govs, opener = nil, c.sessionOpener(res)
	}
	ex := c.newShuffleExchange(interval > 0, func(p *object.Page) { c.pool.Put(p) }, govs)
	arts := make([]*workerArtifacts, nw)
	recs := make([]*aggRecovery, nw)
	ends := make([]*exchangeEnd, nw)
	roles := make([]role, 2*nw)
	for i, w := range c.Workers {
		env, gov := c.env(w), governorOf(govs, i)
		end := &exchangeEnd{ex: ex, worker: i, replayable: interval > 0}
		rec := &aggRecovery{produces: cons.Produces}
		ends[i], recs[i] = end, rec
		produce := func() error { return env.runPreAggStream(res, prod, end) }
		consume := func() ([]*object.Page, error) { return env.consumeAggStream(res, cons, end, interval, rec, gov) }
		if proc {
			produce = func() error { return c.procProduce(w, opener, prod, end) }
			consume = func() ([]*object.Page, error) { return c.procConsume(w, opener, cons, end, interval, rec) }
		}
		roles[i] = role{w: w, proc: proc, name: roleProducer, what: prod.Produces,
			onRetry: stats.noteRetry(roleProducer, false),
			body:    produce,
			closes:  ex}
		roles[nw+i] = role{w: w, proc: proc, name: roleConsumer, what: cons.Produces, noRetry: interval <= 0,
			onRetry: stats.noteRetry(roleConsumer, true),
			saves:   &rec.saves,
			body: func() error {
				pages, err := consume()
				if err != nil {
					return err
				}
				// The artifact is about to commit: discard the recovery
				// snapshots (a worker process has dropped its own).
				arts[i] = &workerArtifacts{pages: pages, pagesKey: cons.Produces}
				env.dropAggCheckpoint(rec, gov)
				return nil
			}}
	}
	ship, err := c.runStep(roles, govs, ex)
	for _, end := range ends {
		if end.resumed {
			stats.ConsumerResumes++
		}
	}
	if err != nil {
		// Proc mode leaves its workers' durable recovery state alone: it
		// is theirs to keep — exactly what lets a new cluster (or a
		// respawned worker) resume this job — and a successful future
		// consume drops it. A live in-process cluster drops every worker's
		// snapshots, so the step's governors and spill pools close with
		// zero live slots and no _ckpt set or resume file survives.
		if !proc {
			for j, w := range c.Workers {
				c.env(w).dropAggCheckpoint(recs[j], governorOf(govs, j))
			}
		}
		return ship, err
	}
	return ship, c.commitArtifacts(arts)
}

// runPreAggStream is the producer half of a streaming shuffle: the
// pre-aggregation pipeline runs across the worker's executor threads, and
// each thread's AggSink hands every sealed page to end — every consumer
// owns one hash partition of every page — the moment it fills. The thread
// flushes its final live page and sends its close marker on the way out, so
// each lane carries the thread's stream in sequence order.
func (e *workerEnv) runPreAggStream(res *core.CompileResult, stage *physical.JobStage, end shuffleEnd) error {
	pages, err := e.sourcePages(stage)
	if err != nil {
		return err
	}
	_, err = e.drivePipeline(res, stage, pages, stage.SinkStmt,
		func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, error) {
			sink, err := core.NewStageSink(res, stage, e.reg, e.pageSize, e.workers, e.pool, stats)
			if err != nil {
				return nil, err
			}
			seq := 0
			sink.(*engine.AggSink).Out.OnSeal = func(p *object.Page) error {
				e.fault.Hit(fault.PageSeal, e.id)
				tag := exchange.Tag{Producer: e.id, Thread: t, Seq: seq}
				seq++
				return end.send(tag, p, stop)
			}
			return sink, nil
		}, end.closeThread)
	return err
}

// consumeAggStream is the consumer half: the worker owns hash partition
// e.id and merges it incrementally from end's stream, then finalizes the
// sub-maps into its share of the result (the stage's "mat:" artifact
// pages). The caller drops rec's snapshots (dropAggCheckpoint) once the
// pages are handed on.
//
// With interval > 0 the merge is replayable: it restores rec's checkpointed
// sub-maps if any — rec's own, or on a disk-backed worker the durable cut a
// dead process left for this very job (resume.go) — tells end the cut
// it starts from, and snapshots + acknowledges a new cut every interval
// pages plus once at stream end — so a crash anywhere in the merge or
// finalize resumes from at most one interval back. Delivered pages recycle
// through the exchange's acknowledge path instead of a per-fold release,
// since the replay window still needs them.
func (e *workerEnv) consumeAggStream(res *core.CompileResult, stage *physical.JobStage, end shuffleEnd,
	interval int, rec *aggRecovery, gov *exchange.Governor) ([]*object.Page, error) {
	spec := res.AggSpecs[stage.AggList]
	if spec == nil {
		return nil, fmt.Errorf("no aggregation spec for %q", stage.AggList)
	}
	var ckptr *engine.MergeCheckpointer
	cut := 0
	if interval > 0 {
		var err error
		if ckptr, err = e.aggCheckpointer(rec, gov, interval, end.ack); err != nil {
			return nil, err
		}
		if ckptr.Resume != nil {
			cut = ckptr.Resume.Cut
		}
	}
	if err := end.hello(cut); err != nil {
		return nil, err
	}
	next := func() (*object.Page, bool, error) {
		p, ok, err := end.next()
		if ok {
			e.fault.Hit(fault.Delivery, e.id)
		}
		return p, ok, err
	}
	// MergeAggMapsStream ignores the per-fold release when it checkpoints.
	finals, mergePages, err := engine.MergeAggMapsStream(e.reg, next, e.id, e.workers,
		spec, e.pageSize, e.pool, e.threads, e.pool.Put, ckptr)
	if err != nil {
		return nil, err
	}
	e.fault.Hit(fault.Finalize, e.id)
	var fstats engine.Stats
	out, err := engine.FinalizeAggParallel(e.reg, finals, spec, e.pageSize, e.pool, &fstats)
	e.noteStats(fstats)
	if err != nil {
		return nil, err
	}
	// The merge pages' contents were finalized into out; recycle them.
	for _, pg := range mergePages {
		e.pool.Put(pg)
	}
	return out, nil
}

// aggCheckpointer is a replayable merge's checkpointer over rec: it resumes
// from rec's installed cut if any — rec's own, or on a disk-backed worker
// the durable cut a dead process left for this very job (resume.go) — has
// the merge write its cuts into rec's generations, and installs each one
// (persistAggCheckpoint) before ack acknowledges it.
func (e *workerEnv) aggCheckpointer(rec *aggRecovery, gov *exchange.Governor, interval int,
	ack func(cut int) error) (*engine.MergeCheckpointer, error) {
	if rec.ckpt == nil && e.store.Dir() != "" && !e.loadAggResume(rec) {
		e.dropAggCheckpoint(rec, gov)
	}
	resume, err := e.loadAggCheckpoint(rec, gov)
	if err != nil {
		return nil, err
	}
	return &engine.MergeCheckpointer{
		Interval: interval,
		Resume:   resume,
		Gens:     &rec.gens,
		Save: func(ck *engine.MergeCheckpoint) error {
			if err := e.persistAggCheckpoint(rec, ck, gov); err != nil {
				return err
			}
			if e.afterSave != nil {
				e.afterSave()
			}
			return ack(ck.Cut)
		},
	}, nil
}
