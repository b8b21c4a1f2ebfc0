package cluster

// The step runner (package doc, "Step runner"): runStep, the stream ends
// the consumer roles talk to, and the per-worker environment with its
// producer scaffold. runRole lives in retry.go.

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/storage"
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
	// onRetry accounts one crash retry before the recovery attempt starts;
	// runStep serializes the calls across a step's roles.
	onRetry func()
	body    func() error
	// closes, for a producer, is the exchange whose lanes the worker closes
	// once the role has succeeded.
	closes *exchange.Exchange
}

// runStep runs one step's roles concurrently, each under runRole's crash
// policy. The first role to fail cancels the step's exchanges, so blocked
// siblings return instead of waiting on a stream that will never finish.
// Once every role has returned — nothing reads a delivered page anymore —
// a successful step hands every resident retained page to its exchange's
// ReleaseDelivered (exchange.Recycle: the aggregation's pages return to the
// page pool; the join's and the sort's, which tables, emitted refs and
// output reference, are never released). Then the step discards every
// page the exchanges still hold, failed or not (a failed step's
// undelivered lane messages, and its retention, left to the garbage
// collector), so the step's governors and spill pools close with zero live
// slots, and the step's error is that of the first role in list order that
// failed on its own — not of a sibling that only observed the
// cancellation. The returned StageShip carries the step's exchange and
// spill telemetry, also recorded on the transport; the caller adds its own
// commit.
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
	if len(exs) > 0 {
		c.Transport.Stats().NoteExchange(ship.MaxBytesInFlight, ship.MaxReorderPages)
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
	for _, ex := range exs {
		if err == nil {
			ex.Recycle()
		}
		ex.Discard()
	}
	if govs != nil {
		ship.SpilledPages, ship.SpilledBytes, ship.MaxBufferedBytes = c.spillTelemetry(govs)
	}
	return ship, err
}

// shuffleEnd is a producer's end of a step's shuffle stream. In-process it
// is the exchange itself (exchangeEnd); in a pcworker process it is the
// session's control socket (socketEnd, procserve.go), and the master's
// relay carries each call to the exchangeEnd on the far side.
type shuffleEnd interface {
	// send hands a sealed page to every consumer; closeThread ends executor
	// thread t's stream. Both return early when stop closes.
	send(tag exchange.Tag, p *object.Page, stop <-chan struct{}) error
	closeThread(t int, stop <-chan struct{}) error
}

// consumerEnd is a consumer's end of a stream. Every consumer rewinds it
// itself: each attempt replays from page 0.
type consumerEnd interface {
	rewind()
	next() (*object.Page, bool, error)
}

// exchangeEnd is a worker's end of an exchange.
type exchangeEnd struct {
	ex     *exchange.Exchange
	worker int
}

func (x *exchangeEnd) send(tag exchange.Tag, p *object.Page, stop <-chan struct{}) error {
	return streamErr(x.ex.Broadcast(tag, p, stop))
}

func (x *exchangeEnd) closeThread(t int, stop <-chan struct{}) error {
	return streamErr(x.ex.CloseThread(x.worker, t, stop))
}

func (x *exchangeEnd) rewind() { x.ex.Rewind(x.worker) }

func (x *exchangeEnd) next() (*object.Page, bool, error) { return x.ex.Recv(x.worker) }

// streamErr translates an exchange send aborted by sibling-thread failure
// into the engine's abort sentinel, so the root cause wins error reporting.
func streamErr(err error) error {
	if errors.Is(err, exchange.ErrProducerStopped) {
		return engine.ErrAborted
	}
	return err
}

// workerEnv is what the role functions need of the worker they run on —
// and nothing of the Cluster or Worker around it, so a pcworker process
// builds one from a session opener and runs the very same functions
// (procserve.go). The stage work itself is core.StageEnv's; the joins and
// the exchange wiring add the worker's storage server and earlier stages'
// materialized pages.
type workerEnv struct {
	core.StageEnv
	// store is the worker's storage server, holding its input sets.
	store *storage.Server
	// artPages holds earlier stages' materialized pages. A pcworker
	// process has none: its shippable plans scan stored sets only.
	artPages map[string][]*object.Page
}

// env builds w's role environment for the step about to run.
func (c *Cluster) env(w *Worker) *workerEnv {
	return &workerEnv{
		StageEnv: core.StageEnv{ID: w.ID, Partitions: len(c.Workers), Threads: c.Cfg.Threads,
			PageSize: c.Cfg.PageSize, Reg: w.Reg(), Pool: c.pool, Fault: c.Cfg.Fault,
			Tables: w.artTables, NoteStats: w.mergeStats},
		store: w.Front.Store, artPages: w.artPages,
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

// deliveries is end's stream as a consumer reads it, with the Delivery
// fault site at every delivered page.
func (e *workerEnv) deliveries(end consumerEnd) func() (*object.Page, bool, error) {
	return func() (*object.Page, bool, error) {
		p, ok, err := end.next()
		if ok {
			e.Fault.Hit(fault.Delivery, e.ID)
		}
		return p, ok, err
	}
}
