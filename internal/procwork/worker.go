package procwork

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Serve runs a worker process's accept loop: one goroutine per control
// connection, one session per connection. It returns when the listener
// closes. A session that fails reports the error back to the master as an
// "error" message and closes its connection; the process survives — a
// genuine panic in user code, by contrast, kills the whole process, which
// is exactly the crash model the master's respawn path recovers from.
func Serve(ln net.Listener, workerID int, dataDir string) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return nil // listener closed: clean shutdown
		}
		go func(conn net.Conn) {
			defer conn.Close()
			if err := session(conn, workerID, dataDir); err != nil {
				_ = WriteMsg(conn, &Msg{Op: "error", Err: err.Error()})
			}
		}(conn)
	}
}

// session reads the opener and dispatches the role.
func session(conn net.Conn, workerID int, dataDir string) error {
	f, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("procwork: reading session opener: %w", err)
	}
	req, err := DecodeMsg(f)
	if err != nil {
		return err
	}
	if req.Worker != workerID {
		return fmt.Errorf("procwork: session for worker %d reached worker %d", req.Worker, workerID)
	}
	switch req.Op {
	case "produce":
		return produce(conn, req, dataDir)
	case "consume":
		return consume(conn, req, dataDir)
	default:
		return fmt.Errorf("procwork: unknown session opener %q", req.Op)
	}
}

// rebuildSession reconstructs a session's execution state: a fresh
// registry carrying the shipped type schemas, the job rebuilt from its
// TCAP text, and the worker's storage server over its DataDir subtree
// (the same directory the master's storage view writes input sets to).
func rebuildSession(req *Msg, dataDir string) (*object.Registry, *core.CompileResult, []*physical.JobStage, *storage.Server, error) {
	reg := object.NewRegistry()
	if err := RegisterSchemas(reg, req.Types); err != nil {
		return nil, nil, nil, nil, err
	}
	res, err := core.Rebuild(req.Prog, reg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	plan, err := physical.Build(res.Prog)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	store, err := storage.NewServer(dataDir, reg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return reg, res, plan.Stages, store, nil
}

// findStage resolves the stage a session was asked to run by its artifact
// name — the same identifier the master's scheduler keys on.
func findStage(stages []*physical.JobStage, produces string) (*physical.JobStage, error) {
	for _, st := range stages {
		if st.Produces == produces {
			return st, nil
		}
	}
	return nil, fmt.Errorf("procwork: shipped plan has no stage producing %q", produces)
}

// produce runs the pre-aggregation producer half of a shuffle: scan the
// local partition of the input set, run the stage pipeline across Threads
// executor threads into buffered AggSinks (one hash partition per cluster
// worker), and stream every sealed map page back to the master in thread
// order under a single global sequence, so the master relays each frame
// as exchange tag (worker, 0, seq).
func produce(conn net.Conn, req *Msg, dataDir string) error {
	reg, res, stages, store, err := rebuildSession(req, dataDir)
	if err != nil {
		return err
	}
	stage, err := findStage(stages, req.Produces)
	if err != nil {
		return err
	}
	if stage.Kind != physical.StagePipeline || stage.Sink != physical.SinkPreAgg {
		return fmt.Errorf("procwork: stage %q is not a pre-aggregation producer", req.Produces)
	}
	spec := res.AggSpecs[stage.SinkStmt.Out.Name]
	if spec == nil {
		return fmt.Errorf("procwork: no aggregation spec for %q", stage.SinkStmt.Out.Name)
	}
	var pages []*object.Page
	if stage.Scan != nil {
		// This worker may simply hold no pages of the input set.
		if p, err := store.Pages(stage.Scan.Db, stage.Scan.Set); err == nil {
			pages = p
		}
	}
	pool := object.NewPagePool(req.PageSize)
	ranges := engine.BatchRanges(pages, engine.BatchSize)
	chunks := engine.SplitRanges(ranges, req.Threads)
	if len(chunks) == 0 {
		// A worker with no input still streams one page of empty partition
		// maps, honoring the shuffle's artifact contract.
		chunks = [][]engine.PageRange{nil}
	}
	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, stage.SinkStmt,
		func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := engine.NewAggSink(reg, req.PageSize, req.Workers,
				spec.KeyKind, spec.ValKind, spec.Combine,
				stage.SinkStmt.Applied.Cols[0], stage.SinkStmt.Applied.Cols[1], pool, stats)
			if err != nil {
				return nil, nil, err
			}
			ctx, err := engine.NewSinkCtx(sink, reg, nil, req.PageSize, pool, stats)
			if err != nil {
				return nil, nil, err
			}
			return sink, ctx, nil
		}, nil)
	if err != nil {
		return err
	}
	for seq, p := range pt.OutputPages() {
		tag := wire.Tag{Producer: uint32(req.Worker), Thread: 0, Seq: uint32(seq)}
		if err := WritePage(conn, tag, p, reg); err != nil {
			return fmt.Errorf("procwork: streaming produced page %d: %w", seq, err)
		}
	}
	return WriteMsg(conn, &Msg{Op: "eof"})
}

// procResume is the worker-local durable cut metadata, persisted next to
// the local _ckpt snapshot set at every checkpoint. Proc-mode consumers
// always persist when a checkpoint interval is set: process memory never
// survives a kill, so the local disk state is the only recovery state
// there is — it serves both a mid-job respawn and a whole-cluster restart
// through the same hello-cut handshake.
type procResume struct {
	Fingerprint  string `json:"fingerprint"`
	Produces     string `json:"produces"`
	Cut          int    `json:"cut"`
	SubPageSizes []int  `json:"subPageSizes"`
}

// checkpointDb mirrors the cluster's reserved snapshot database name.
const checkpointDb = "_ckpt"

// ckptSet names the consumer's local snapshot set for one stage artifact.
func ckptSet(produces string, worker int) string {
	s := strings.NewReplacer(":", "-", "/", "-", ".", "-").Replace(produces)
	return fmt.Sprintf("proc-%s-w%d", s, worker)
}

// resumePath is where the cut metadata lives in the worker's data dir.
func resumePath(dataDir, set string) string {
	return filepath.Join(dataDir, "resume-"+set+".json")
}

// loadResume restores the local checkpoint a previous incarnation of this
// worker persisted, if it matches the requested job exactly. Any mismatch
// or damage means "start over" — the first new checkpoint overwrites it.
func loadResume(store *storage.Server, reg *object.Registry, req *Msg, set, path string) *engine.MergeCheckpoint {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var r procResume
	if json.Unmarshal(b, &r) != nil {
		return nil
	}
	if r.Fingerprint != req.Fingerprint || r.Produces != req.Produces || r.Cut <= 0 {
		return nil
	}
	if len(r.SubPageSizes) != req.Threads {
		return nil // different merge fan-out: snapshots unusable
	}
	pages, err := store.Pages(checkpointDb, set)
	if err != nil || len(pages) != len(r.SubPageSizes) {
		return nil // snapshots missing or torn
	}
	ck := &engine.MergeCheckpoint{Cut: r.Cut, Subs: make([]engine.SubMapSnapshot, len(pages))}
	for i, pg := range pages {
		ck.Subs[i] = engine.SubMapSnapshot{
			PageSize: r.SubPageSizes[i],
			Data:     append([]byte(nil), pg.Bytes()...),
		}
	}
	return ck
}

// saveCheckpoint persists a cut: snapshot pages through the local storage
// server, then the metadata atomically (temp file + rename) — the same
// write discipline the in-process DataDir checkpoint path uses.
func saveCheckpoint(store *storage.Server, reg *object.Registry, req *Msg, set, path string,
	ck *engine.MergeCheckpoint) error {
	_ = store.Drop(checkpointDb, set) // first checkpoint: nothing to drop
	pages := make([]*object.Page, len(ck.Subs))
	for i, sub := range ck.Subs {
		pg, err := object.FromBytes(append([]byte(nil), sub.Data...), reg)
		if err != nil {
			return err
		}
		pages[i] = pg
	}
	if err := store.Append(checkpointDb, set, pages); err != nil {
		return err
	}
	sizes := make([]int, len(ck.Subs))
	for i := range ck.Subs {
		sizes[i] = ck.Subs[i].PageSize
	}
	b, err := json.Marshal(&procResume{
		Fingerprint:  req.Fingerprint,
		Produces:     req.Produces,
		Cut:          ck.Cut,
		SubPageSizes: sizes,
	})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("procwork: persisting resume metadata: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("procwork: persisting resume metadata: %w", err)
	}
	return nil
}

// consume runs the aggregation-consumer half of a shuffle. Handshake:
// the worker loads any matching local checkpoint and answers the opener
// with {hello, cut}; the master positions the exchange accordingly and
// relays the stream from the cut on. Every Interval pages the merge
// persists a local checkpoint and sends {ack, cut} up the same connection
// — only then may the master release the exchange's retained pages, so a
// kill at any moment leaves a cut the next incarnation can restart from.
// After the master's {eof}, the worker finalizes, streams its result
// pages back, drops its durable state, and reports done.
func consume(conn net.Conn, req *Msg, dataDir string) error {
	reg, res, _, store, err := rebuildSession(req, dataDir)
	if err != nil {
		return err
	}
	spec := res.AggSpecs[req.AggList]
	if spec == nil {
		return fmt.Errorf("procwork: no aggregation spec for %q", req.AggList)
	}
	set := ckptSet(req.Produces, req.Worker)
	path := resumePath(dataDir, set)
	var resume *engine.MergeCheckpoint
	if req.Interval > 0 {
		resume = loadResume(store, reg, req, set, path)
	}
	cut := 0
	if resume != nil {
		cut = resume.Cut
	}
	if err := WriteMsg(conn, &Msg{Op: "hello", Cut: cut}); err != nil {
		return err
	}

	next := func() (*object.Page, bool, error) {
		f, err := ReadFrame(conn)
		if err != nil {
			return nil, false, fmt.Errorf("procwork: consume stream: %w", err)
		}
		if f.Kind == wire.KindControl {
			m, err := DecodeMsg(f)
			if err != nil {
				return nil, false, err
			}
			if m.Op == "eof" {
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("procwork: unexpected %q mid-stream", m.Op)
		}
		p, err := DecodePage(f, reg)
		if err != nil {
			return nil, false, err
		}
		return p, true, nil
	}
	var ckptr *engine.MergeCheckpointer
	if req.Interval > 0 {
		saves := 0
		ckptr = &engine.MergeCheckpointer{
			Interval: req.Interval,
			Resume:   resume,
			Save: func(ck *engine.MergeCheckpoint) error {
				if err := saveCheckpoint(store, reg, req, set, path, ck); err != nil {
					return err
				}
				saves++
				if req.KillAfterSaves > 0 && saves >= req.KillAfterSaves {
					// A shipped fault.ProcKill: die hard with the cut
					// durable on disk but the ack never sent — the
					// worst-ordered real crash a respawned (or restarted)
					// incarnation must recover from.
					os.Exit(137)
				}
				return WriteMsg(conn, &Msg{Op: "ack", Cut: ck.Cut})
			},
		}
	}
	pool := object.NewPagePool(req.PageSize)
	finals, mergePages, err := engine.MergeAggMapsStream(reg, next, req.Worker, req.Workers,
		spec, req.PageSize, pool, req.Threads, nil, ckptr)
	if err != nil {
		return err
	}
	var fstats engine.Stats
	out, err := engine.FinalizeAggParallel(reg, finals, spec, req.PageSize, pool, &fstats)
	if err != nil {
		return err
	}
	for _, pg := range mergePages {
		pool.Put(pg)
	}
	for seq, p := range out {
		tag := wire.Tag{Producer: uint32(req.Worker), Thread: 0, Seq: uint32(seq)}
		if err := WritePage(conn, tag, p, reg); err != nil {
			return fmt.Errorf("procwork: streaming result page %d: %w", seq, err)
		}
	}
	// The result is streamed; the job no longer needs this worker's
	// recovery state. (If the master dies before committing, the restarted
	// job simply replays the whole stream — resume is an optimization,
	// never a correctness dependency.)
	if req.Interval > 0 {
		_ = store.Drop(checkpointDb, set)
		os.Remove(path)
	}
	return WriteMsg(conn, &Msg{Op: "done"})
}
