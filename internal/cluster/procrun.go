package cluster

// Proc-mode scheduling: the exchange-linked aggregation step run against
// real pcworker OS processes (Config.ProcBin). The topology is a star —
// the master owns the Exchange and relays both halves of the shuffle over
// per-session control connections (internal/procwork), while the worker
// processes run the actual produce and consume pipelines:
//
//	producer relay: dial worker, send "produce", read its streamed map
//	  pages, Broadcast each into the exchange under the single-lane tag
//	  discipline (worker, 0, seq), close the lanes at its eof.
//	consumer relay: dial worker, send "consume", read its {hello, cut}
//	  (the worker's durable resume position), position the exchange —
//	  rewind for a mid-job respawn, drain-and-ack for a cross-restart
//	  resume — then pump Recv'd pages down the socket; a concurrent
//	  reader turns the worker's {ack, cut} into Exchange.Ack (releasing
//	  replay retention only after the cut is durable on the worker's
//	  disk), collects the finalized result pages, and ends on done/error.
//
// A killed worker process severs exactly its two sessions; runProcRole
// respawns the process and retries the role, and the exchange's replay
// retention plus the worker's local checkpoint make the retry resume
// mid-stream — the same recovery contract the in-process scheduler has,
// with the process boundary real. fault.ProcKill executes across that
// boundary: the master extracts the injection (fault.Plan.Take) and ships
// it in the consume request, and the worker exits hard right after its
// (K+1)-th durable checkpoint save — deterministically past a durable
// cut, before the ack leaves its process.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/procwork"
	"repro/internal/wire"
)

// prepareProcs validates that the planned job is shippable and spawns any
// worker process not already running. Proc mode currently ships only
// aggregation jobs — scan → pre-aggregate → merge → write: the exchange-
// linked pair runs on the worker processes, and any other stage must be a
// pure artifact commit (the OUTPUT stage), which runs master-side.
func (c *Cluster) prepareProcs(stages []*physical.JobStage) error {
	for _, stage := range stages {
		if stage.Kind == physical.StageSortMerge {
			return fmt.Errorf("cluster: proc mode does not ship sort/window jobs yet (stage %d produces %q)",
				stage.ID, stage.Produces)
		}
		if stage.ExchangeTo != nil || stage.ExchangeFrom != nil {
			continue
		}
		if stage.Scan != nil || len(stage.Stmts) > 0 {
			return fmt.Errorf("cluster: proc mode currently ships only aggregation jobs (stage %d produces %q with a local pipeline)",
				stage.ID, stage.Produces)
		}
	}
	for _, pw := range c.procs.workers {
		if err := pw.revive(); err != nil {
			return err
		}
	}
	return nil
}

// runProcRole is runRole's process-boundary twin: body talks to worker
// pw's process over a session connection; if body fails and the process is
// found dead, the failure is a worker crash — respawn and retry within
// Config.MaxRetries (gated by recoverable, accounted by onRetry). A body
// failure with the process still alive is a protocol or job error and
// fails immediately. Crash detection is incarnation-aware: the session
// ran against one spawn generation, and a sibling role's retry may have
// respawned the worker already — a changed generation is a lost process
// even though something is alive now. Same-generation death gets a short
// grace window, since a session error races the kernel reaping the
// dying process.
func (c *Cluster) runProcRole(pw *procWorker, role, what string, recoverable func() bool, onRetry func(), body func() error) error {
	max := c.maxRetries()
	attempt := 0
	for {
		if err := pw.revive(); err != nil {
			return err
		}
		gen := pw.generation()
		err := body()
		if err == nil {
			return nil
		}
		if pw.generation() == gen && !pw.deadWithin(2*time.Second) {
			return err
		}
		err = fmt.Errorf("%w (worker %d): process died: %v", errBackendCrashed, pw.id, err)
		if recoverable != nil && !recoverable() {
			return err
		}
		if attempt >= max {
			return fmt.Errorf("cluster: %s role (%s) on worker %d exhausted %d crash retries: %w", role, what, pw.id, max, err)
		}
		attempt++
		if onRetry != nil {
			onRetry()
		}
	}
}

// procConsumeRec is the master-side recovery record for one proc-mode
// consumer — the process-boundary analogue of aggRecovery, except the
// durable state itself lives on the worker's disk; the master only tracks
// how the exchange and the worker's reported cut relate.
type procConsumeRec struct {
	// delivered counts pages relayed to the worker in this cluster life —
	// how a hello cut is classified: cut ≤ delivered is a mid-job respawn
	// (rewind), cut > delivered is a cross-restart resume (drain and ack).
	delivered int
	// saves counts acked cuts (checkpoint telemetry).
	saves int
	// resumed records a cross-restart resume (ExecStats.ConsumerResumes).
	resumed bool
}

// procExchangeGroup is runExchangeGroup against worker processes: same
// exchange, same role concurrency, same retry accounting — the produce
// and consume pipelines just run across the process boundary.
func (c *Cluster) procExchangeGroup(res *core.CompileResult, prod, cons *physical.JobStage, stats *ExecStats) (exchangeTelemetry, error) {
	nw := len(c.Workers)
	interval := c.checkpointEvery(cons)
	ex := c.newShuffleExchange(interval > 0, func(p *object.Page) { c.pool.Put(p) }, nil)
	base := &procwork.Msg{
		Prog:        res.Prog.Print(),
		Fingerprint: c.jobFP,
		Workers:     nw,
		Threads:     c.Cfg.Threads,
		PageSize:    c.Cfg.PageSize,
		Types:       procwork.SchemasOf(c.Catalog.Registry()),
	}
	arts := make([]*workerArtifacts, nw)
	errs := make([]error, 2*nw)
	recs := make([]*procConsumeRec, nw)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range c.procs.workers {
		pw := c.procs.workers[i]
		wg.Add(1)
		go func(i int, pw *procWorker) { // producer relay
			defer wg.Done()
			err := c.runProcRole(pw, roleProducer, prod.Produces, nil,
				noteRetry(&mu, stats, roleProducer, false), func() error {
					return c.procProduce(pw, base, prod, ex)
				})
			if err != nil {
				errs[i] = err
				ex.Cancel(err)
				return
			}
			ex.CloseProducer(i)
		}(i, pw)
		wg.Add(1)
		go func(i int, pw *procWorker) { // consumer relay
			defer wg.Done()
			rec := &procConsumeRec{}
			recs[i] = rec
			err := c.runProcRole(pw, roleConsumer, cons.Produces,
				func() bool { return interval > 0 },
				noteRetry(&mu, stats, roleConsumer, true), func() error {
					a, err := c.procConsume(pw, base, cons, ex, interval, rec)
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
		}(i, pw)
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
			// Failure cleanup: both roles have returned. The exchange's
			// pages go back to the pool; the workers' durable recovery
			// state is theirs to keep — it is exactly what lets a new
			// cluster (or a respawned worker) resume this job, and a
			// successful future consume drops it.
			ex.Discard()
			return tel, err
		}
	}
	return tel, c.commitArtifacts(arts)
}

// procProduce relays one worker process's produce session into the
// exchange: every streamed map page is decoded into the master-side view
// of that worker and broadcast under the single-lane tag discipline; the
// worker's eof closes all of the producer's lanes. A retried session
// re-streams the same deterministic pages and the exchange drops the
// duplicate tags at the sender, exactly like an in-process producer retry.
func (c *Cluster) procProduce(pw *procWorker, base *procwork.Msg, prod *physical.JobStage, ex *exchange.Exchange) error {
	conn, err := pw.dial()
	if err != nil {
		return err
	}
	defer conn.Close()
	req := *base
	req.Op = "produce"
	req.Produces = prod.Produces
	req.Worker = pw.id
	if err := procwork.WriteMsg(conn, &req); err != nil {
		return fmt.Errorf("cluster: worker %d produce request: %w", pw.id, err)
	}
	w := c.Workers[pw.id]
	seq := 0
	for {
		f, err := procwork.ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("cluster: worker %d produce stream: %w", pw.id, err)
		}
		if f.Kind == wire.KindControl {
			m, err := procwork.DecodeMsg(f)
			if err != nil {
				return err
			}
			switch m.Op {
			case "eof":
				for t := 0; t < c.Cfg.Threads; t++ {
					if err := streamErr(ex.CloseThread(pw.id, t, nil)); err != nil {
						return err
					}
				}
				return nil
			case "error":
				return fmt.Errorf("cluster: worker %d produce: %s", pw.id, m.Err)
			default:
				return fmt.Errorf("cluster: worker %d produce: unexpected %q", pw.id, m.Op)
			}
		}
		p, err := procwork.DecodePage(f, w.Reg())
		if err != nil {
			return err
		}
		c.Transport.Stats().NoteShip(int64(len(f.Payload)))
		tag := exchange.Tag{Producer: pw.id, Thread: 0, Seq: seq}
		seq++
		if err := streamErr(ex.Broadcast(tag, p, nil)); err != nil {
			return err
		}
	}
}

// procConsume relays one worker process's consume session. The hello cut
// positions the exchange; then the relay pumps the exchange stream down
// the socket while a reader goroutine handles everything coming back up:
// durable-cut acks (forwarded to Exchange.Ack), the finalized result
// pages, and the terminal done/error.
func (c *Cluster) procConsume(pw *procWorker, base *procwork.Msg, cons *physical.JobStage,
	ex *exchange.Exchange, interval int, rec *procConsumeRec) (*workerArtifacts, error) {
	conn, err := pw.dial()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	req := *base
	req.Op = "consume"
	req.Produces = cons.Produces
	req.AggList = cons.AggList
	req.Worker = pw.id
	req.Interval = interval
	if k, ok := c.Cfg.Fault.Take(fault.ProcKill, pw.id); ok {
		// Ship the injected worker loss into the process that must suffer
		// it: the worker dies right after its (k+1)-th durable save.
		req.KillAfterSaves = k + 1
	}
	if err := procwork.WriteMsg(conn, &req); err != nil {
		return nil, fmt.Errorf("cluster: worker %d consume request: %w", pw.id, err)
	}
	f, err := procwork.ReadFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %d consume handshake: %w", pw.id, err)
	}
	m, err := procwork.DecodeMsg(f)
	if err != nil {
		return nil, err
	}
	switch m.Op {
	case "hello":
	case "error":
		return nil, fmt.Errorf("cluster: worker %d consume: %s", pw.id, m.Err)
	default:
		return nil, fmt.Errorf("cluster: worker %d consume: expected hello, got %q", pw.id, m.Op)
	}
	cut := m.Cut

	// Position the exchange against the worker's durable cut.
	switch {
	case cut <= 0:
		// Fresh merge: replay from the stream's start — retention still
		// holds everything unacked. With recovery disabled the exchange is
		// not replayable and a first attempt is already at the start.
		if interval > 0 {
			if err := ex.Rewind(pw.id, 0); err != nil {
				return nil, err
			}
		}
		rec.delivered = 0
	case cut <= rec.delivered:
		// Mid-job respawn: this exchange already delivered (at least) the
		// cut. Rewind to it and release the acked prefix.
		if err := ex.Rewind(pw.id, cut); err != nil {
			return nil, err
		}
		if err := ex.Ack(pw.id, cut); err != nil {
			return nil, err
		}
		rec.delivered = cut
	default:
		// Cross-restart resume: this exchange never delivered the cut —
		// the producers are re-streaming the job from page zero, and the
		// first cut pages are already merged into the worker's restored
		// snapshots. Receive and discard them, then acknowledge the cut
		// so the replay window empties.
		if err := ex.Rewind(pw.id, 0); err != nil {
			return nil, err
		}
		for i := 0; i < cut; i++ {
			if _, ok, err := ex.Recv(pw.id); err != nil {
				return nil, err
			} else if !ok {
				return nil, fmt.Errorf("cluster: worker %d resume cut %d is past the stream's end (page %d)", pw.id, cut, i)
			}
		}
		if err := ex.Ack(pw.id, cut); err != nil {
			return nil, err
		}
		rec.delivered = cut
		rec.resumed = true
	}

	w := c.Workers[pw.id]
	type consResult struct {
		arts *workerArtifacts
		err  error
	}
	done := make(chan consResult, 1)

	// The exchange's per-consumer cursor state is single-goroutine by
	// design (an in-proc consumer Recvs and Acks from its own merge loop),
	// so the reader goroutine below never touches the exchange: it records
	// the worker's latest durable cut here, and the relay loop — or, for a
	// cut that lands with the final done, the main goroutine after it —
	// applies the Ack. Cuts are monotonic, so the latest subsumes the rest;
	// delaying an Ack only lengthens replay retention, never correctness.
	var pendingAck atomic.Int64
	acked := rec.delivered // cuts already applied by the classification above
	applyAck := func() error {
		cut := int(pendingAck.Load())
		if cut <= acked {
			return nil
		}
		// The cut is durable on the worker's disk: only now may the
		// exchange release its retained replay pages.
		if err := ex.Ack(pw.id, cut); err != nil {
			return err
		}
		acked = cut
		return nil
	}
	go func() {
		var pages []*object.Page
		for {
			f, err := procwork.ReadFrame(conn)
			if err != nil {
				done <- consResult{err: fmt.Errorf("cluster: worker %d consume stream: %w", pw.id, err)}
				return
			}
			if f.Kind == wire.KindPage {
				p, err := procwork.DecodePage(f, w.Reg())
				if err != nil {
					done <- consResult{err: err}
					return
				}
				c.Transport.Stats().NoteShip(int64(len(f.Payload)))
				pages = append(pages, p)
				continue
			}
			m, err := procwork.DecodeMsg(f)
			if err != nil {
				done <- consResult{err: err}
				return
			}
			switch m.Op {
			case "ack":
				pendingAck.Store(int64(m.Cut))
				rec.saves++
			case "done":
				done <- consResult{arts: &workerArtifacts{pages: pages, pagesKey: cons.Produces}}
				return
			case "error":
				done <- consResult{err: fmt.Errorf("cluster: worker %d consume: %s", pw.id, m.Err)}
				return
			default:
				done <- consResult{err: fmt.Errorf("cluster: worker %d consume: unexpected %q", pw.id, m.Op)}
				return
			}
		}
	}()

	relay := func() error {
		for {
			if err := applyAck(); err != nil {
				return err
			}
			p, ok, err := ex.Recv(pw.id)
			if err != nil {
				return err
			}
			if !ok {
				if err := applyAck(); err != nil {
					return err
				}
				return procwork.WriteMsg(conn, &procwork.Msg{Op: "eof"})
			}
			tag := wire.Tag{Producer: uint32(pw.id), Thread: 0, Seq: uint32(rec.delivered)}
			if err := procwork.WritePage(conn, tag, p, w.Reg()); err != nil {
				return fmt.Errorf("cluster: worker %d consume relay: %w", pw.id, err)
			}
			c.Transport.Stats().NoteShip(int64(len(p.Bytes())))
			rec.delivered++
		}
	}
	if err := relay(); err != nil {
		conn.Close() // sever the session so the reader unblocks
		<-done
		return nil, err
	}
	r := <-done
	if r.err != nil {
		return nil, r.err
	}
	// The final checkpoint's cut can arrive with the done; the relay has
	// returned, so applying it here is race-free.
	if err := applyAck(); err != nil {
		return nil, err
	}
	return r.arts, nil
}
