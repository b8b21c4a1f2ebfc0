package cluster

// Proc-mode scheduling: the exchange-linked aggregation step run against
// real pcworker OS processes (Config.ProcBin). The step is runExchangeGroup's
// — same exchange, same roles under runStep and runRole, same recovery
// contract — and the worker processes run the same role functions
// (procserve.go); this file is the master's half of each role session. The
// topology is a star: the master owns the Exchange and relays both halves of
// the shuffle over per-session control connections (internal/procwork):
//
//	producer relay: dial worker, send "produce", read its streamed map
//	  pages, send each into the exchange under the single-lane tag
//	  discipline (worker, 0, seq), close the lanes at its eof.
//	consumer relay: dial worker, send "consume", rewind the exchange to
//	  page 0, then pump the stream's pages down the socket while a
//	  concurrent reader collects the finalized result pages and ends on
//	  done/error.
//
// A killed worker process severs exactly its two sessions; runRole
// respawns the process and retries the role, and the exchange's replay
// retention lets the retried consume session re-stream the whole shuffle
// from page 0. fault.ProcKill executes across the boundary: the master
// extracts the injection (fault.Plan.Take) and ships it in the consume
// request, and the worker exits hard right after its (K+1)-th delivered
// page — deterministically mid-merge.

import (
	"fmt"
	"net"

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

// sessionOpener is the part of a role session's opening request every
// session of one job shares: the job as optimized TCAP text plus type
// schemas, and the cluster shape.
func (c *Cluster) sessionOpener(res *core.CompileResult) *procwork.Msg {
	return &procwork.Msg{
		Prog:     res.Prog.Print(),
		Workers:  len(c.Workers),
		Threads:  c.Cfg.Threads,
		PageSize: c.Cfg.PageSize,
		Types:    procwork.SchemasOf(c.Catalog.Registry()),
	}
}

// openSession dials w's worker process and sends req as the opener of a
// fresh role session. Each session runs on its own connection, so a
// mid-stream kill severs exactly the sessions that were talking to the
// dead process.
func (c *Cluster) openSession(w *Worker, req *procwork.Msg) (net.Conn, error) {
	conn, err := c.procs.workers[w.ID].dial()
	if err != nil {
		return nil, err
	}
	req.Worker = w.ID
	if err := procwork.WriteMsg(conn, req); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: worker %d %s request: %w", w.ID, req.Op, err)
	}
	return conn, nil
}

// unexpected turns a control message a relay did not expect at this point
// of a session into the session's error: the worker's own "error" report,
// or a protocol violation.
func unexpected(w *Worker, session string, m *procwork.Msg) error {
	if m.Op == "error" {
		return fmt.Errorf("cluster: worker %d %s: %s", w.ID, session, m.Err)
	}
	return fmt.Errorf("cluster: worker %d %s: unexpected %q", w.ID, session, m.Op)
}

// procProduce relays one worker process's produce session into the
// exchange: every streamed map page is decoded into the master-side view
// of that worker and sent under the single-lane tag discipline; the
// worker's eof closes all of the producer's lanes. A retried session
// re-streams the same deterministic pages and the exchange drops the
// duplicate tags at the sender, exactly like an in-process producer retry.
func (c *Cluster) procProduce(w *Worker, opener *procwork.Msg, prod *physical.JobStage, end *exchangeEnd) error {
	req := *opener
	req.Op, req.Produces = "produce", prod.Produces
	conn, err := c.openSession(w, &req)
	if err != nil {
		return err
	}
	defer conn.Close()
	for seq := 0; ; seq++ {
		f, err := procwork.ReadFrame(conn)
		if err != nil {
			return fmt.Errorf("cluster: worker %d produce stream: %w", w.ID, err)
		}
		if f.Kind == wire.KindControl {
			m, err := procwork.DecodeMsg(f)
			if err != nil {
				return err
			}
			if m.Op != "eof" {
				return unexpected(w, "produce", m)
			}
			for t := 0; t < c.Cfg.Threads; t++ {
				if err := end.closeThread(t, nil); err != nil {
					return err
				}
			}
			return nil
		}
		p, err := procwork.DecodePage(f, w.Reg())
		if err != nil {
			return err
		}
		c.Transport.Stats().NoteShip(int64(len(f.Payload)))
		if err := end.send(exchange.Tag{Producer: w.ID, Seq: seq}, p, nil); err != nil {
			return err
		}
	}
}

// procConsume relays one worker process's consume session: the relay
// rewinds the exchange and pumps its stream down the socket from page 0
// while a reader goroutine collects everything coming back up — the
// finalized result pages and the terminal done/error.
func (c *Cluster) procConsume(w *Worker, opener *procwork.Msg, cons *physical.JobStage, end *exchangeEnd) ([]*object.Page, error) {
	req := *opener
	req.Op, req.Produces, req.AggList = "consume", cons.Produces, cons.AggList
	if k, ok := c.Cfg.Fault.Take(fault.ProcKill, w.ID); ok {
		// Ship the injected worker loss into the process that must suffer
		// it: the worker dies right after its (k+1)-th delivered page.
		req.KillAfterPages = k + 1
	}
	conn, err := c.openSession(w, &req)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	end.rewind()

	var pages []*object.Page
	var readErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		pages, readErr = c.collectConsume(conn, w)
	}()

	relay := func() error {
		for seq := 0; ; seq++ {
			p, ok, err := end.next()
			if err != nil {
				return err
			}
			if !ok {
				return procwork.WriteMsg(conn, &procwork.Msg{Op: "eof"})
			}
			tag := wire.Tag{Producer: uint32(w.ID), Seq: uint32(seq)}
			if err := procwork.WritePage(conn, tag, p, w.Reg()); err != nil {
				return fmt.Errorf("cluster: worker %d consume relay: %w", w.ID, err)
			}
			c.Transport.Stats().NoteShip(int64(len(p.Bytes())))
		}
	}
	if err := relay(); err != nil {
		conn.Close() // sever the session so the reader unblocks
		<-done
		return nil, err
	}
	<-done
	return pages, readErr
}

// collectConsume reads everything a consume session sends back up until its
// terminal done or error: the finalized result pages.
func (c *Cluster) collectConsume(conn net.Conn, w *Worker) ([]*object.Page, error) {
	var pages []*object.Page
	for {
		f, err := procwork.ReadFrame(conn)
		if err != nil {
			return nil, fmt.Errorf("cluster: worker %d consume stream: %w", w.ID, err)
		}
		if f.Kind == wire.KindPage {
			p, err := procwork.DecodePage(f, w.Reg())
			if err != nil {
				return nil, err
			}
			c.Transport.Stats().NoteShip(int64(len(f.Payload)))
			pages = append(pages, p)
			continue
		}
		m, err := procwork.DecodeMsg(f)
		if err != nil {
			return nil, err
		}
		if m.Op != "done" {
			return nil, unexpected(w, "consume", m)
		}
		return pages, nil
	}
}
