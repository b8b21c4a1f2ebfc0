package cluster

// The worker-process half of proc mode: cmd/pcworker's serving loop. A role
// session rebuilds the job from the opener, wraps the process's own
// registry, storage server and page pool in a workerEnv, and runs the very
// role functions an in-process backend runs — runPreAggStream,
// consumeAggStream — with the session's control socket as its end of the
// shuffle. Same code, so same crash policy and replay policy in both
// modes.

import (
	"fmt"
	"net"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/procwork"
	"repro/internal/storage"
	"repro/internal/wire"
)

// ServeWorker runs a worker process's accept loop: one goroutine per control
// connection, one role session per connection, for worker workerID over its
// data directory (the cluster's DataDir/worker-N — the same directory the
// master's storage view writes input sets to). It returns when the listener
// closes. A session that fails reports the error back to the master as an
// "error" message and closes its connection; the process survives — a
// genuine panic in user code, by contrast, kills the whole process, which
// is exactly the crash model the master's respawn path recovers from.
func ServeWorker(ln net.Listener, workerID int, dataDir string) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil // listener closed: clean shutdown
		}
		go func(conn net.Conn) {
			defer conn.Close()
			if err := session(conn, workerID, dataDir); err != nil {
				_ = procwork.WriteMsg(conn, &procwork.Msg{Op: "error", Err: err.Error()})
			}
		}(conn)
	}
}

// session reads the opener, reconstructs the session's execution state — a
// fresh registry carrying the shipped type schemas, the job rebuilt from its
// TCAP text, the worker's storage server over its data directory — and runs
// the requested role on the stage the opener names by its artifact, the
// same identifier the master's scheduler keys on.
func session(conn net.Conn, workerID int, dataDir string) error {
	f, err := procwork.ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("cluster: reading session opener: %w", err)
	}
	req, err := procwork.DecodeMsg(f)
	if err != nil {
		return err
	}
	if req.Worker != workerID {
		return fmt.Errorf("cluster: session for worker %d reached worker %d", req.Worker, workerID)
	}
	reg := object.NewRegistry()
	if err := procwork.RegisterSchemas(reg, req.Types); err != nil {
		return err
	}
	res, err := core.Rebuild(req.Prog, reg)
	if err != nil {
		return err
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		return err
	}
	var stage *physical.JobStage
	for _, st := range plan.Stages {
		if st.Produces == req.Produces {
			stage = st
			break
		}
	}
	if stage == nil {
		return fmt.Errorf("cluster: shipped plan has no stage producing %q", req.Produces)
	}
	store, err := storage.NewServer(dataDir, reg)
	if err != nil {
		return err
	}
	env := &workerEnv{
		id: workerID, workers: req.Workers, threads: req.Threads, pageSize: req.PageSize,
		reg: reg, store: store, pool: object.NewPagePool(req.PageSize),
		noteStats: func(...engine.Stats) {},
	}
	end := &socketEnd{conn: conn, env: env, held: make([][]*object.Page, req.Threads), killAfter: req.KillAfterPages}
	switch req.Op {
	case "produce":
		if stage.Kind != physical.StagePipeline || stage.Sink != physical.SinkPreAgg {
			return fmt.Errorf("cluster: stage %q is not a pre-aggregation producer", req.Produces)
		}
		if err := env.runPreAggStream(res, stage, end); err != nil {
			return err
		}
		return end.flush()
	case "consume":
		if stage.AggList != req.AggList {
			return fmt.Errorf("cluster: stage %q aggregates %q, not %q", req.Produces, stage.AggList, req.AggList)
		}
		out, err := env.consumeAggStream(res, stage, end)
		if err != nil {
			return err
		}
		for _, p := range out {
			if err := end.writePage(p); err != nil {
				return fmt.Errorf("cluster: streaming result page: %w", err)
			}
		}
		return procwork.WriteMsg(conn, &procwork.Msg{Op: "done"})
	default:
		return fmt.Errorf("cluster: unknown session opener %q", req.Op)
	}
}

// socketEnd is a role session's end of the shuffle: the control socket to
// the master, whose relay (procrun.go) forwards each call to the worker's
// exchangeEnd. A consume session reads and writes from its single merge
// goroutine; a produce session's executor threads each touch only their own
// entry of held, and the socket not at all.
type socketEnd struct {
	conn net.Conn
	env  *workerEnv

	// A produce session holds every sealed page, per executor thread in
	// seal order, until its pipeline has finished, and only then streams
	// them — thread-major, the order the exchange delivers a producer's
	// stream in, since the master relays the frames down one lane in arrival
	// order. Streaming at seal would put the pipeline under that lane's
	// backpressure, and delivery is producer-major: every worker's pipeline
	// would stall until the consumers were through with all lower-numbered
	// producers (measured: agg_wide_proc +8 %). Holding lets all workers'
	// pipelines run in parallel, at the price of an unbounded buffer.
	held [][]*object.Page
	seq  int // frames written, the wire tag's sequence

	// killAfter, when > 0, is a shipped fault.ProcKill: the process exits
	// hard on its killAfter-th delivered page.
	killAfter, delivered int
}

// writePage frames p up the socket and recycles it.
func (s *socketEnd) writePage(p *object.Page) error {
	tag := wire.Tag{Producer: uint32(s.env.id), Seq: uint32(s.seq)}
	s.seq++
	if err := procwork.WritePage(s.conn, tag, p, s.env.reg); err != nil {
		return err
	}
	s.env.pool.Put(p)
	return nil
}

func (s *socketEnd) send(tag exchange.Tag, p *object.Page, _ <-chan struct{}) error {
	s.held[tag.Thread] = append(s.held[tag.Thread], p)
	return nil
}

func (s *socketEnd) closeThread(int, <-chan struct{}) error { return nil }

// flush streams a finished produce session's held pages and its eof.
func (s *socketEnd) flush() error {
	for _, pages := range s.held {
		for _, p := range pages {
			if err := s.writePage(p); err != nil {
				return fmt.Errorf("cluster: streaming produced page %d: %w", s.seq-1, err)
			}
		}
	}
	return procwork.WriteMsg(s.conn, &procwork.Msg{Op: "eof"})
}

func (s *socketEnd) next() (*object.Page, bool, error) {
	f, err := procwork.ReadFrame(s.conn)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: consume stream: %w", err)
	}
	if f.Kind == wire.KindControl {
		m, err := procwork.DecodeMsg(f)
		if err != nil {
			return nil, false, err
		}
		if m.Op == "eof" {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("cluster: unexpected %q mid-stream", m.Op)
	}
	if s.delivered++; s.killAfter > 0 && s.delivered >= s.killAfter {
		// A shipped fault.ProcKill: die hard mid-merge, as a real crash
		// would, for the master's respawn and replay to recover from.
		os.Exit(137)
	}
	p, err := procwork.DecodePage(f, s.env.reg)
	return p, err == nil, err
}
