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
	// DeliveredPages counts the pages the step's exchanges delivered to
	// their consumers, each once however often a replay re-read it; a
	// successful step returns the resident ones to the page pool (zero for
	// steps without a streaming shuffle).
	DeliveredPages int
	// SpilledPages counts the page images the step's memory governor
	// (Config.MemoryBudget) moved to spill files — lane pages and retained
	// replay pages alike; zero when governance is off.
	SpilledPages int64
	// SpilledBytes is SpilledPages' byte volume.
	SpilledBytes int64
	// MaxBufferedBytes is the largest resident governed-byte footprint
	// any single consumer backend reached during the step (lane pages +
	// replay retention). With a budget set it never
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
	// ConsumerRecoveries counts backend crashes inside consumers that were
	// recovered by replaying the retained stream from page 0 (a subset of
	// Retries).
	ConsumerRecoveries int
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
// aggregation consumer, a sort producer and its merge consumer — run as one
// step with the shuffle streaming between them; all other stages run with
// the classic all-workers barrier.
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
		var ship StageShip
		if stage.ExchangeTo != nil {
			ship, err = c.runExchangeGroup(res, stage, stage.ExchangeTo, stats)
			done[stage.ExchangeTo] = true
		} else {
			ship, err = c.runStage(res, stage, stats)
		}
		ship.Stage = stage.ID
		stats.Ships = append(stats.Ships, ship)
		if err != nil {
			return stats, fmt.Errorf("cluster: stage %d (%s): %w", stage.ID, stage.Produces, err)
		}
	}
	return stats, nil
}

// commitArtifacts installs every worker's share of stage's result — its
// entry in arts — after the barrier (so concurrent goroutines never write a
// map a peer is reading): the pages of a stage that writes a set (an OUTPUT
// pipeline's, or a merge's whose only consumer is an OUTPUT) into the
// worker's stored set, a join table under its build list, any other pages
// under the stage's artifact name.
func (c *Cluster) commitArtifacts(stage *physical.JobStage, arts []core.Artifact) error {
	for i, w := range c.Workers {
		switch {
		case stage.Output != nil:
			db, set := stage.Output.Db, stage.Output.Set
			if err := w.Front.Store.Append(db, set, arts[i].Pages); err != nil {
				return err
			}
			for _, p := range arts[i].Pages {
				if err := c.noteAppend(db, set, 1, int64(p.Used()), ""); err != nil {
					return err
				}
			}
		case stage.Kind == physical.StagePipeline && stage.Sink == physical.SinkJoinBuild:
			w.artTables[stage.SinkStmt.Applied2.Name] = arts[i].Table
		default:
			w.artPages[stage.Produces] = arts[i].Pages
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
// retrying a worker's share once if its backend crashes (the front end
// re-forks it — paper §2's crash-proof front end).
func (c *Cluster) runStage(res *core.CompileResult, stage *physical.JobStage, stats *ExecStats) (StageShip, error) {
	if stage.Kind != physical.StagePipeline || stage.Sink == physical.SinkPreAgg {
		// Pre-aggregation producers and aggregation consumers are
		// exchange-linked and scheduled by runExchangeGroup.
		return StageShip{}, fmt.Errorf("stage kind %d/sink %v must run through the exchange", stage.Kind, stage.Sink)
	}
	arts := make([]core.Artifact, len(c.Workers))
	roles := make([]role, len(c.Workers))
	for i, w := range c.Workers {
		roles[i] = role{w: w, name: rolePipeline, what: stage.Produces,
			onRetry: stats.noteRetry(rolePipeline, false),
			body: func() (err error) {
				arts[i], err = c.runPipelineOnWorker(res, stage, w)
				return err
			}}
	}
	ship, err := c.runStep(roles, nil)
	if err != nil {
		return ship, err
	}
	return ship, c.commitArtifacts(stage, arts)
}

// runPipelineOnWorker executes a barrier pipeline stage on one worker
// across Config.Threads executor threads (core.StageEnv.RunPipeline): its
// OUTPUT or materialized pages in source order, or its join table.
// (Pre-aggregation sinks stream through the exchange instead; see
// runExchangeGroup.)
func (c *Cluster) runPipelineOnWorker(res *core.CompileResult, stage *physical.JobStage, w *Worker) (core.Artifact, error) {
	env := c.env(w)
	pages, err := env.sourcePages(stage)
	if err != nil {
		return core.Artifact{}, err
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
				return core.Artifact{}, err
			}
			shipped, err := c.Transport.ShipAll(otherPages, w.Reg())
			if err != nil {
				return core.Artifact{}, err
			}
			pages = append(pages, shipped...)
		}
	}
	return env.RunPipeline(res, stage, pages, nil, nil)
}

// newExchange builds every step's exchange and wires it to the simulated
// transport: one lane per (producer, executor thread, consumer), each
// holding exchange.DefaultCapacity pages, so the in-flight bound is per
// thread; shipping copies the page into the consumer's registry (a worker's
// own pages pass by reference); and retry duplicates, dropped at the sender,
// and the originals of copied pages recycle through the page pool. Every
// worker produces; consumers are workers 0…consumers-1. Delivered pages
// stay retained for consumer crash recovery until the step ends, and when
// the step succeeds every resident one recycles through the page pool too,
// for every step kind alike. inPlace marks a consumer whose state reads
// delivered pages in place until then (the join-table build, the sort
// merge), so the governor leaves its retained pages unmetered. govs, when
// non-nil, attach the step's per-worker memory governors
// (Config.MemoryBudget) so over-budget pages spill to disk.
func (c *Cluster) newExchange(consumers int, inPlace bool, govs []*exchange.Governor) *exchange.Exchange {
	return exchange.New(exchange.Config{
		Producers: len(c.Workers),
		Consumers: consumers,
		Threads:   c.Cfg.Threads,
		Ship: func(p *object.Page, producer, consumer int) (*object.Page, error) {
			if producer == consumer {
				return p, nil
			}
			return c.Transport.Ship(p, c.Workers[consumer].Reg())
		},
		Release:   func(p *object.Page) { c.pool.Put(p) },
		InPlace:   inPlace,
		Governors: govs,
	})
}

// runExchangeGroup executes an exchange-linked stage pair concurrently on
// every worker: a pre-aggregation producer and its aggregation consumer
// (paper Appendix D.2, Figure 5), or a sort producer and its merge consumer
// (sort.go). Each producer thread streams its sealed pages into the
// exchange tagged (worker, thread, sequence), and each consumer reads its
// stream in deterministic tag order: an aggregation consumer merges its own
// hash partition out of every page as pages arrive (engine.MergeAggMapsStream
// across Config.Threads hash-range sub-partitions), then finalizes the
// disjoint sub-maps concurrently; the sort's single consumer merges every
// run page into the global order.
//
// A producer whose backend crashes mid-stream is re-forked and retried
// once; the deterministic re-run re-sends the same tagged pages and the
// exchange drops the duplicates at the sender. A consumer whose backend
// crashes mid-merge or in finalize is also re-forked and retried: the
// exchange retains every delivered page, so the retry rewinds it to page 0
// and merges the whole stream again from a fresh state — bit-for-bit
// identical to a crash-free run. When the step succeeds, the retained
// pages return to the page pool (runStep); when it fails anyway
// (retries exhausted, a deterministic crash, or an injected I/O error),
// runStep drops everything the step still holds: undelivered and retained
// exchange pages, spill slots.
//
// In proc mode (Config.ProcBin) the step is the same — same exchange, same
// roles, same retry accounting — with each role's body a session that has
// the worker's pcworker process run the role function and relays its end
// of the stream (procrun.go).
func (c *Cluster) runExchangeGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (StageShip, error) {
	nw := len(c.Workers)
	proc := c.procs != nil
	// The pairs differ in a few values, each read off the consumer's kind.
	// Every aggregation worker consumes its hash partition, copying each
	// entry out of the delivered pages, and in-process each backend's
	// budget governs its lanes and retention (not in proc mode: the
	// exchange lives in the master, whose memory a per-backend budget does
	// not describe).
	consumers, inPlace := nw, false
	var govs []*exchange.Governor
	closeGovs := func() {}
	if cons.Kind == physical.StageSortMerge {
		// The sort's one consumer, worker 0, merges rows off the delivered
		// pages in place until its output is written, and no governor
		// meters its stream. Its SortRow carrier registers with the master
		// and has its code pinned on every worker before any run page
		// exists or a session opener captures the types: worker registries
		// assign codes locally, so a lazy SortRowType(w.Reg()) would mint a
		// code a master-registered user type already holds, and shipped
		// pages would resolve to the wrong TypeInfo.
		consumers, inPlace = 1, true
		carrier := engine.SortRowType(c.Catalog.Registry())
		for _, w := range c.Workers {
			w.Reg().PinCode(engine.SortRowTypeName, carrier.Code)
		}
	} else if !proc {
		govs, closeGovs = c.stepGovernors()
	}
	defer closeGovs()
	var opener *procwork.Msg
	if proc {
		opener = c.sessionOpener(res)
	}
	ex := c.newExchange(consumers, inPlace, govs)
	arts := make([]core.Artifact, nw)
	roles := make([]role, nw, nw+consumers)
	for i, w := range c.Workers {
		env := c.env(w)
		end := &exchangeEnd{ex: ex, worker: i}
		roles[i] = role{w: w, name: roleProducer, what: prod.Produces,
			onRetry: stats.noteRetry(roleProducer, false),
			body:    func() error { return env.produce(res, prod, end) },
			closes:  ex}
		if proc {
			roles[i].session = func(in *incarnation) error { return c.procProduce(w, in, opener, prod, end) }
		}
		if i < consumers {
			r := role{w: w, name: roleConsumer, what: cons.Produces,
				onRetry: stats.noteRetry(roleConsumer, true),
				body: func() (err error) {
					arts[i].Pages, err = env.consume(res, cons, end)
					return err
				}}
			if proc {
				r.session = func(in *incarnation) (err error) {
					arts[i].Pages, err = c.procConsume(w, in, opener, cons, end)
					return err
				}
			}
			roles = append(roles, r)
		}
	}
	ship, err := c.runStep(roles, govs, ex)
	if err != nil {
		return ship, err
	}
	return ship, c.commitArtifacts(cons, arts)
}

// produce is a producer role's body, the same in-process and in a pcworker
// produce session: the stage's pipeline streams its pages into end — an
// aggregation's sealed map pages or the sort's thread runs.
func (e *workerEnv) produce(res *core.CompileResult, stage *physical.JobStage, end shuffleEnd) error {
	switch stage.Sink {
	case physical.SinkPreAgg:
		return e.runPreAggStream(res, stage, end)
	case physical.SinkSort:
		return e.runSortStreamOnWorker(res, stage, end)
	}
	return fmt.Errorf("cluster: stage %q is not an exchange producer", stage.Produces)
}

// consume is a consumer role's body, the same in-process and in a pcworker
// consume session: the stage's merge reads end's stream from page 0 and
// returns the worker's share of the result — its aggregation partition, or
// the whole sorted output on the sort's one consumer.
func (e *workerEnv) consume(res *core.CompileResult, stage *physical.JobStage, end consumerEnd) ([]*object.Page, error) {
	switch stage.Kind {
	case physical.StageAggregation:
		return e.consumeAggStream(res, stage, end)
	case physical.StageSortMerge:
		return e.consumeSortStream(res, stage, end)
	}
	return nil, fmt.Errorf("cluster: stage %q is not an exchange consumer", stage.Produces)
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
	_, err = e.RunPipeline(res, stage, pages, func(t int, sink engine.Sink, stop <-chan struct{}) {
		seq := 0
		sink.(*engine.AggSink).Out.OnSeal = func(p *object.Page) error {
			e.Fault.Hit(fault.PageSeal, e.ID)
			tag := exchange.Tag{Producer: e.ID, Thread: t, Seq: seq}
			seq++
			return end.send(tag, exchange.Every, p, stop)
		}
	}, end.closeThread)
	return err
}

// consumeAggStream is the consumer half: the worker owns hash partition
// e.ID and merges it incrementally from end's stream — rewound to page 0
// on every attempt — then finalizes the sub-maps into its share of the
// result: the stage's "mat:" artifact pages, or its share of the stored set
// when the stage writes one.
func (e *workerEnv) consumeAggStream(res *core.CompileResult, stage *physical.JobStage, end consumerEnd) ([]*object.Page, error) {
	end.rewind()
	return e.MergeAggregation(res, stage, e.deliveries(end), e.ID)
}
