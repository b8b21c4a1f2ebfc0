package cluster

// The step runner (package doc, "Step runner"): runStep, the stream ends
// the consumer roles talk to, positionConsumer, and the per-worker
// environment with its producer scaffold. runRole lives in retry.go.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/tcap"
)

// role is one worker's share of a step: a unit of user-code work that
// runs, crashes and retries on its own.
type role struct {
	w    *Worker
	name string // retry-accounting label (rolePipeline, roleProducer, …)
	what string // names the work in errors ("aggmaps:…", "join build/probe")
	// proc marks a body that is a session with w's pcworker process, not
	// code on w's in-process backend: its crash is the process dying.
	proc bool
	// noRetry fails the step on the role's first crash (a consumer with
	// checkpoints off has nothing to restore).
	noRetry bool
	// onRetry accounts one crash retry before the recovery attempt starts;
	// runStep serializes the calls across a step's roles.
	onRetry func()
	body    func() error
	// closes, for a producer, is the exchange whose lanes the worker closes
	// once the role has succeeded.
	closes *exchange.Exchange
	// saves, for a consumer, counts the recovery cuts taken — the step's
	// checkpoint telemetry.
	saves *int
}

// runStep runs one step's roles concurrently, each under runRole's crash
// policy. The first role to fail cancels the step's exchanges, so blocked
// siblings return instead of waiting on a stream that will never finish.
// Once every role has returned — nothing touches the exchanges or the
// recovery records anymore — a failed step discards every page the
// exchanges still hold (undelivered lane messages, replay retention), so
// the step's governors and spill pools close with zero live slots, and the
// step's error is that of the first role in list order that failed on its
// own — not of a sibling that only observed the cancellation. The
// returned StageShip carries the step's exchange, checkpoint and spill
// telemetry, also recorded on the transport; the caller adds its own
// failure cleanup and commit.
func (c *Cluster) runStep(roles []role, govs []*exchange.Governor, exs ...*exchange.Exchange) (StageShip, error) {
	var mu sync.Mutex // serializes onRetry accounting
	var wg sync.WaitGroup
	errs := make([]error, len(roles))
	for i := range roles {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &roles[i]
			if errs[i] = c.runRole(r, &mu); errs[i] != nil {
				for _, ex := range exs {
					ex.Cancel(errs[i])
				}
			} else if r.closes != nil {
				r.closes.CloseProducer(r.w.ID)
			}
		}()
	}
	wg.Wait()
	var ship StageShip
	for _, ex := range exs {
		ship.MaxBytesInFlight = max(ship.MaxBytesInFlight, ex.MaxBytesInFlight())
		ship.MaxReorderPages = max(ship.MaxReorderPages, ex.MaxReorderPages())
	}
	for i := range roles {
		if roles[i].saves != nil {
			ship.Checkpoints += *roles[i].saves
		}
	}
	if len(exs) > 0 {
		c.Transport.Stats().NoteExchange(ship.MaxBytesInFlight, ship.MaxReorderPages, ship.Checkpoints)
	}
	var err error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if !errors.Is(e, exchange.ErrCancelled) {
			err = e
			break
		}
		if err == nil {
			err = e
		}
	}
	if err != nil {
		for _, ex := range exs {
			ex.Discard()
		}
	}
	if govs != nil {
		ship.SpilledPages, ship.SpilledBytes, ship.MaxBufferedBytes = c.spillTelemetry(govs)
	}
	return ship, err
}

// shuffleEnd is one worker's end of a step's shuffle stream, as the
// aggregation roles see it. In-process it is the exchange itself
// (exchangeEnd); in a pcworker process it is the session's control socket
// (socketEnd, procserve.go), and the master's relay carries each call to
// the exchangeEnd on the far side.
type shuffleEnd interface {
	// send hands a sealed page to every consumer; closeThread ends executor
	// thread t's stream. Both return early when stop closes.
	send(tag exchange.Tag, p *object.Page, stop <-chan struct{}) error
	closeThread(t int, stop <-chan struct{}) error
	consumerEnd
}

// consumerEnd is the consuming half of a stream end: all the join and sort
// consumers need of one.
type consumerEnd interface {
	// hello announces the cut a consumer (re)starts from — the pages its
	// restored state already holds, 0 for a fresh merge — before its first
	// next. next yields the stream from there; ack reports a durable cut.
	hello(cut int) error
	next() (*object.Page, bool, error)
	ack(cut int) error
}

// exchangeEnd is worker's end of an exchange. It lives on the scheduler
// side, so delivered survives backend crashes and retried attempts.
type exchangeEnd struct {
	ex         *exchange.Exchange
	worker     int
	replayable bool // the exchange retains delivered pages (recovery on)
	// delivered counts the pages this exchange has handed the consumer in
	// this cluster life — what positionConsumer classifies a cut against.
	delivered int
	// resumed records a cross-restart resume (ExecStats.ConsumerResumes).
	resumed bool
}

func (x *exchangeEnd) send(tag exchange.Tag, p *object.Page, stop <-chan struct{}) error {
	return streamErr(x.ex.Broadcast(tag, p, stop))
}

func (x *exchangeEnd) closeThread(t int, stop <-chan struct{}) error {
	return streamErr(x.ex.CloseThread(x.worker, t, stop))
}

func (x *exchangeEnd) hello(cut int) error {
	if !x.replayable {
		// Recovery disabled: the exchange cannot rewind, no cut was ever
		// saved, and a first attempt is already at the stream's start.
		return nil
	}
	resumed, err := positionConsumer(x.ex, x.worker, cut, x.delivered)
	if err != nil {
		return err
	}
	x.delivered = max(cut, 0)
	x.resumed = x.resumed || resumed
	return nil
}

func (x *exchangeEnd) next() (*object.Page, bool, error) {
	p, ok, err := x.ex.Recv(x.worker)
	if ok {
		x.delivered++
	}
	return p, ok, err
}

func (x *exchangeEnd) ack(cut int) error {
	if !x.replayable {
		return nil // nothing is retained, so there is nothing to release
	}
	return x.ex.Ack(x.worker, cut)
}

// storedEnd is a consumerEnd over pages the worker stores (CoPartitionedJoin's
// zero-shuffle inputs). They are durable and owned by the front end, so
// positioning is an index and an acknowledgement releases nothing.
type storedEnd struct {
	pages []*object.Page
	pos   int
}

func (s *storedEnd) hello(cut int) error {
	s.pos = cut
	return nil
}

func (s *storedEnd) next() (*object.Page, bool, error) {
	if s.pos >= len(s.pages) {
		return nil, false, nil
	}
	s.pos++
	return s.pages[s.pos-1], true, nil
}

func (s *storedEnd) ack(int) error { return nil }

// streamErr translates an exchange send aborted by sibling-thread failure
// into the engine's abort sentinel, so the root cause wins error reporting.
func streamErr(err error) error {
	if errors.Is(err, exchange.ErrProducerStopped) {
		return engine.ErrAborted
	}
	return err
}

// positionConsumer points a replayable exchange's delivery cursor at the
// cut a consumer (re)starts from; delivered is how many pages this exchange
// has handed that consumer so far. Three cases:
//
//   - cut ≤ 0, a fresh merge: replay from the stream's start — retention
//     still holds everything unacknowledged (a no-op on a first attempt).
//   - cut ≤ delivered, a mid-job restart (re-forked backend, respawned
//     worker process): this exchange already delivered the cut. Rewind to it
//     and release the prefix — the cut is durable, but its ack may have died
//     with the consumer.
//   - cut > delivered, a cross-restart resume: this exchange never delivered
//     the cut — the producers are re-streaming the job from page zero, and
//     the first cut pages are already merged into the restored state. Receive
//     and discard them (retention owns the refs), then acknowledge the cut so
//     the replay window empties. Rewinding to zero first makes a crash
//     mid-fast-forward harmless: the retry replays and drains the same
//     prefix.
//
// It reports whether the third case engaged.
func positionConsumer(ex *exchange.Exchange, consumer, cut, delivered int) (resumed bool, err error) {
	switch {
	case cut <= 0:
		return false, ex.Rewind(consumer, 0)
	case cut <= delivered:
		if err := ex.Rewind(consumer, cut); err != nil {
			return false, err
		}
		return false, ex.Ack(consumer, cut)
	}
	if err := ex.Rewind(consumer, 0); err != nil {
		return false, err
	}
	for i := 0; i < cut; i++ {
		if _, ok, err := ex.Recv(consumer); err != nil {
			return false, err
		} else if !ok {
			return false, fmt.Errorf("cluster: worker %d resume cut %d is past the stream's end (page %d)", consumer, cut, i)
		}
	}
	return true, ex.Ack(consumer, cut)
}

// workerEnv is what the role functions need of the worker they run on —
// and nothing of the Cluster or Worker around it, so a pcworker process
// builds one from a session opener and runs the very same functions
// (procserve.go).
type workerEnv struct {
	id, workers, threads, pageSize int

	reg *object.Registry
	// store is the worker's storage server: input sets and, when it is
	// disk-backed (store.Dir() != ""), durable cuts — checkpoint snapshots
	// and resume files — in both modes.
	store *storage.Server
	pool  *object.PagePool
	fault *fault.Plan

	// Earlier stages' artifacts and the backend's stats fold. A pcworker
	// process has none: its shippable plans scan stored sets only.
	artPages  map[string][]*object.Page
	artTables map[string]*engine.JoinTable
	noteStats func(...engine.Stats)

	// jobFP fingerprints the running job; resume files carry it.
	jobFP string
	// afterSave, when set, runs after each cut is durable and before it is
	// acknowledged — where a shipped fault.ProcKill takes the process down.
	afterSave func()
}

// env builds w's role environment for the step about to run.
func (c *Cluster) env(w *Worker) *workerEnv {
	return &workerEnv{
		id: w.ID, workers: len(c.Workers), threads: c.Cfg.Threads, pageSize: c.Cfg.PageSize,
		reg: w.Reg(), store: w.Front.Store, pool: c.pool, fault: c.Cfg.Fault,
		artPages: w.artPages, artTables: w.artTables, noteStats: w.mergeStats,
		jobFP: c.jobFP,
	}
}

// storedPages reads one worker's pages of a stored set. A worker may simply
// hold no pages of a set (storage.ErrUnknownSet): that is an empty
// partition. Every other error — a failed read, a corrupt page file — fails
// the caller, and is not a crash to retry: taking it for "no pages here"
// would silently drop the partition's rows from the answer.
func storedPages(store *storage.Server, db, set string) ([]*object.Page, error) {
	pages, err := store.Pages(db, set)
	if errors.Is(err, storage.ErrUnknownSet) {
		return nil, nil
	}
	return pages, err
}

// sourcePages resolves a stage's input pages on this worker.
func (e *workerEnv) sourcePages(stage *physical.JobStage) ([]*object.Page, error) {
	if stage.Scan != nil {
		return storedPages(e.store, stage.Scan.Db, stage.Scan.Set)
	}
	return e.artPages["mat:"+stage.SourceList], nil
}

// threadChunks is the worker's pages → per-thread chunks step (pipeline
// scaffold, repartition producer, join probe): batch ranges split into one
// contiguous chunk per executor thread, so thread order is source order.
func (e *workerEnv) threadChunks(pages []*object.Page) [][]engine.PageRange {
	return engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), e.threads)
}

// drivePipeline is the producer scaffold every pipeline-running role
// shares: pages are split into one contiguous chunk per executor thread,
// each chunk is driven through a private Pipeline/Ctx into the sink mk
// builds for it (per-thread output pages, per-thread stats — nothing shared
// on the hot path), and done, when set, ends the thread's stream. A worker
// with no input still runs one empty chunk, so the sink is built and the
// stage's contract — possibly empty pages, an empty join table, one page of
// empty partition maps, a lone close marker — is honored. Per-thread
// counters fold into the backend even on error.
func (e *workerEnv) drivePipeline(res *core.CompileResult, stage *physical.JobStage, pages []*object.Page, sinkStmt *tcap.Stmt,
	mk func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, error),
	done func(t int, stop <-chan struct{}) error) (*engine.PipelineThreads, error) {
	chunks := e.threadChunks(pages)
	if len(chunks) == 0 {
		chunks = [][]engine.PageRange{nil}
	}
	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, sinkStmt,
		func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := mk(t, stats, stop)
			if err != nil {
				return nil, nil, err
			}
			ctx, err := engine.NewSinkCtx(sink, e.reg, e.artTables, e.pageSize, e.pool, stats)
			if err != nil {
				return nil, nil, err
			}
			return sink, ctx, nil
		}, done)
	e.noteStats(pt.Stats...)
	return pt, err
}
