package cluster

// Consumer-side crash-recovery state (paper §2's crash-proof front end,
// extended to consuming merges): each streaming consumer's recovery record
// is owned by the scheduler goroutine — the front-end side of the worker —
// so it survives backend crashes. The checkpoint callback running inside
// the backend only writes through it at consistent cuts, and the re-forked
// backend reads it back to resume.
//
// A cut copies each sub-map page once, into one of two snapshot
// generations the recovery record owns; the next cut but one reuses the
// same buffers, so a merge whose pages have stopped growing cuts without
// allocating. With Config.DataDir those bytes are handed to the worker's
// storage server as they are and become ordinary page files under
// <worker>/_ckpt/<set>/ (the same single-write persistence every stored
// set uses — no serialization step exists to pay for), and the restore
// path reads them back through storage.Server.Pages, exercising the real
// page-file machinery, and restores from the bytes read. Memory-only
// clusters restore from the installed generation itself.
//
// The aggregation's store is workerEnv methods: a pcworker process keeps
// its cuts through the same code, set names and resume files. On disk a
// cut is durable in both modes (resume.go).

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
)

// checkpointDb is the reserved storage database holding consumer-recovery
// snapshot sets (transient: dropped when the consuming step commits).
const checkpointDb = "_ckpt"

// checkpointEvery resolves the recovery checkpoint interval every streaming
// consumer runs with: Config.CheckpointInterval overrides (>0) or disables
// (<0); zero is the planner default, physical.DefaultCheckpointInterval.
func (c *Cluster) checkpointEvery() int {
	switch {
	case c.Cfg.CheckpointInterval < 0:
		return 0
	case c.Cfg.CheckpointInterval > 0:
		return c.Cfg.CheckpointInterval
	default:
		return physical.DefaultCheckpointInterval
	}
}

// aggRecovery is one worker's consumer-recovery record for a streaming
// aggregation merge. The merge writes every cut into one of the record's
// two generations (gens, engine.MergeCheckpointer.Gens), reusing their
// buffers; ckpt is the installed cut, one of them unless it was read back
// from a resume file. A restore reads the installed cut's bytes from
// exactly one of three places: ckpt itself (memory mode, within budget),
// the worker's storage server (DataDir mode, diskSet), or the step's spill
// pool (memory mode over Config.MemoryBudget, slots), whose cut gives its
// buffers up.
type aggRecovery struct {
	gens     [2]engine.MergeCheckpoint
	ckpt     *engine.MergeCheckpoint
	saves    int
	diskSet  string // the last cut's snapshot set on the worker's storage server (DataDir mode)
	slots    []int  // spill slots holding the snapshots (over-budget memory mode)
	resident int64  // bytes the in-memory snapshot reserved with the governor

	// produces names the consuming stage's artifact — the key the snapshot
	// sets and the durable resume metadata (resume.go) file under.
	produces string
}

// releaseSnapshots returns the previous checkpoint's snapshot bytes to the
// governor — spill slots freed, in-memory reservation released.
func (rec *aggRecovery) releaseSnapshots(gov *exchange.Governor) {
	if gov == nil {
		return
	}
	for _, slot := range rec.slots {
		gov.Free(slot)
	}
	rec.slots = nil
	if rec.resident > 0 {
		gov.ReleaseBytes(rec.resident)
		rec.resident = 0
	}
}

// ckptName derives the storage-safe name a stage artifact's recovery state
// files under on one worker: each cut's snapshot set is ckptName-sN (N the
// cut's save number), the resume file resume-ckptName.json (resume.go).
func ckptName(produces string, worker int) string {
	return fmt.Sprintf("agg-%s-w%d", fileSafe.Replace(produces), worker)
}

// fileSafe makes an artifact or set name usable inside a file name.
var fileSafe = strings.NewReplacer(":", "-", "/", "-", ".", "-")

// persistAggCheckpoint installs ck — one of rec's generations — as the
// worker's recovery point. On a disk-backed worker the cut is durable: the
// snapshot bytes themselves are written through its storage server, which
// keeps no reference to them, under a fresh set name — the restore reads
// them back, proving the round trip — then the resume file is switched
// atomically to name that set, and only then is the superseded set
// dropped, so a death between any two writes leaves the resume file naming
// a complete set of its own cut. Memory-only clusters keep the snapshot
// bytes in the recovery record, unless the worker's memory governor
// (Config.MemoryBudget) refuses them: then the snapshots go straight to
// the step's spill pool and only their slots stay resident. The governor
// meters only an installed in-memory cut: the generation the next cut
// overwrites — and on a disk-backed worker both — are outside the budget,
// as the cut being written always was.
func (e *workerEnv) persistAggCheckpoint(rec *aggRecovery, ck *engine.MergeCheckpoint, gov *exchange.Governor) error {
	e.fault.Hit(fault.Checkpoint, e.id)
	if err := e.fault.ErrAt(fault.CheckpointIO, e.id); err != nil {
		return fmt.Errorf("cluster: persisting consumer checkpoint: %w", err)
	}
	if e.store.Dir() != "" {
		prev := rec.diskSet
		set := fmt.Sprintf("%s-s%d", ckptName(rec.produces, e.id), rec.saves+1)
		_ = e.store.Drop(checkpointDb, set) // left by a process that died before a resume file named it
		pages := make([]*object.Page, len(ck.Subs))
		for i, sub := range ck.Subs {
			pg, err := object.FromBytes(sub.Data, e.reg)
			if err != nil {
				return err
			}
			pages[i] = pg
		}
		if err := e.store.Append(checkpointDb, set, pages); err != nil {
			return err
		}
		rec.ckpt, rec.diskSet = ck, set
		rec.saves++
		if err := e.saveAggResume(rec, ck); err != nil {
			return err
		}
		if prev != "" {
			_ = e.store.Drop(checkpointDb, prev) // a set left over goes with the final drop
		}
		return nil
	}
	if gov != nil {
		// The new cut supersedes the previous one; its snapshot bytes
		// return to the budget before the new snapshot claims room.
		rec.releaseSnapshots(gov)
		var total int64
		for _, sub := range ck.Subs {
			total += int64(len(sub.Data))
		}
		if gov.TryReserve(total) {
			rec.resident = total
		} else {
			slots := make([]int, len(ck.Subs))
			for i := range ck.Subs {
				slot, err := gov.SpillSnapshot(ck.Subs[i].Data)
				if err != nil {
					return err
				}
				slots[i] = slot
				ck.Subs[i].Data = nil // the refused bytes leave memory; restore re-reads them from the pool
			}
			rec.slots = slots
		}
	}
	rec.ckpt = ck
	rec.saves++
	return nil
}

// loadAggCheckpoint returns the checkpoint a restarted consumer resumes
// from (nil when no cut was ever saved — full replay): the installed cut
// itself, so the restored merge writes its next cut into the other
// generation. On a disk-backed worker its snapshot bytes are the pages the
// storage server reads back; snapshots the governor spilled are read back
// from the step's spill pool. Either way the bytes read are the bytes
// restored, with no copy in between.
func (e *workerEnv) loadAggCheckpoint(rec *aggRecovery, gov *exchange.Governor) (*engine.MergeCheckpoint, error) {
	ck := rec.ckpt
	switch {
	case ck == nil:
		return nil, nil
	case rec.slots != nil:
		for i, slot := range rec.slots {
			b, err := gov.LoadSnapshot(slot)
			if err != nil {
				return nil, fmt.Errorf("cluster: restoring spilled consumer checkpoint: %w", err)
			}
			ck.Subs[i].Data = b
		}
	case rec.diskSet != "":
		pages, err := e.store.Pages(checkpointDb, rec.diskSet)
		if err != nil {
			return nil, fmt.Errorf("cluster: restoring consumer checkpoint: %w", err)
		}
		if len(pages) != len(ck.Subs) {
			return nil, fmt.Errorf("cluster: checkpoint holds %d snapshot pages, want %d",
				len(pages), len(ck.Subs))
		}
		for i, pg := range pages {
			ck.Subs[i].Data = pg.Bytes()
		}
	}
	return ck, nil
}

// dropAggCheckpoint discards a consumer's snapshots — on a disk-backed
// worker the resume file and every _ckpt set of the artifact, whichever
// life wrote it; spill slots and budget reservation under a governor. The
// resume file goes first, so a death mid-drop leaves only sets no file
// names, which the next drop removes.
func (e *workerEnv) dropAggCheckpoint(rec *aggRecovery, gov *exchange.Governor) {
	if e.store.Dir() != "" {
		os.Remove(e.resumePath(rec.produces))
		prefix := checkpointDb + "." + ckptName(rec.produces, e.id) + "-s"
		for _, key := range e.store.Sets() {
			if n, ok := strings.CutPrefix(key, prefix); ok {
				if _, err := strconv.Atoi(n); err == nil {
					_ = e.store.Drop(checkpointDb, strings.TrimPrefix(key, checkpointDb+"."))
				}
			}
		}
		rec.diskSet = ""
	}
	rec.releaseSnapshots(gov)
}

// joinRecovery is one worker's consumer-recovery record for the streaming
// hash-partition join — both phases. The build phase checkpoints the
// per-thread tables cloned at the last cut (tables reference shipped build
// pages, which stay alive through the clones themselves, so the in-memory
// snapshot is complete; build pages past the cut replay from the
// exchange's retained window). The probe/emit phase checkpoints a probe
// cursor (probe-side pages fully probed and emitted) plus the total
// matches emitted, so a re-forked consumer rewinds the probe exchange to
// the cursor, replays the suffix, and skips the first emitted matches —
// match order is page order, so the skip prefix is exactly what user code
// already observed, making emit exactly-once across crashes.
type joinRecovery struct {
	cut    int                 // build-side pages consumed at the last build cut
	tables []*engine.JoinTable // per-thread table clones at that cut
	saves  int
	built  bool // build finished; tables is the complete table set

	probeCursor  int // probe-side pages fully probed and emitted
	emitted      int // matches handed to user emit (exactly-once skip cursor)
	emittedAtCut int // matches emitted within pages before probeCursor

	// Outer-kind state (HashPartitionJoinKind with a right/full kind).
	// buildRows lists every build-side row in exchange delivery order —
	// the global index space of the match bitmap — appended as pages
	// deliver and committed at build cuts (buildRowsCut), so a build-phase
	// replay truncates the uncommitted suffix before re-appending it.
	// bitmapAtCut is the match bitmap's committed snapshot, taken at every
	// probe cut alongside the probe cursor: a probe-phase replay restarts
	// from the snapshot and re-marks the replayed window's matches
	// (marking is idempotent), keeping emit exactly-once while the bitmap
	// still converges to the crash-free run's. tailCursor is the
	// unmatched-build-row sweep's committed position.
	buildRows    []object.Ref
	buildRowsCut int
	bitmapAtCut  []uint64
	tailCursor   int
}

// CheckpointSets counts live consumer-recovery snapshot sets (the _ckpt
// database) across all workers — zero after any job, success or failure;
// the chaos campaign's leak check.
func (c *Cluster) CheckpointSets() int {
	n := 0
	for _, w := range c.Workers {
		for _, key := range w.Front.Store.Sets() {
			if strings.HasPrefix(key, checkpointDb+".") {
				n++
			}
		}
	}
	return n
}
