package cluster

// Cross-restart consumer resume (Config.ResumeOnRestart; always on in a
// pcworker process, whose memory outlives no kill): the recovery
// record that lets a re-forked backend resume a mid-stream merge already
// lives on the scheduler side; this file makes its cut metadata durable,
// so a whole-cluster restart — not just a backend re-fork — can resume
// the job. The snapshot bytes themselves already persist as ordinary
// storage pages under <worker>/_ckpt (checkpoint.go); what a restart was
// missing is the metadata describing them: which cut they capture, how
// many saves preceded it, and each sub-map snapshot's page size. That
// metadata is a few dozen bytes of JSON written atomically
// (writeJSONAtomic) next to the snapshot set at every cut.
//
// On restart, the job's producers re-run from their deterministic
// sources, so the fresh exchange re-streams the same tagged pages; the
// consumer restores the persisted checkpoint, receives-and-discards the
// first Cut pages (they are already merged into the restored state), and
// acknowledges the cut so the exchange's replay retention empties. From
// there the merge proceeds exactly as a crash-free run would from that
// point — the result is bit-for-bit identical.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/engine"
)

// aggResume is the durable cut metadata persisted next to a consumer's
// _ckpt snapshot set.
type aggResume struct {
	// Fingerprint ties the record to one job on one cluster shape; a
	// restarted cluster resumes only when it re-executes the same job.
	Fingerprint string `json:"fingerprint"`
	// Produces names the consuming stage's artifact (sanity check).
	Produces string `json:"produces"`
	// Cut is the acked cut: shuffled pages already merged into the
	// persisted snapshots.
	Cut int `json:"cut"`
	// Saves counts the checkpoints taken before (and including) this cut,
	// so resumed telemetry continues instead of restarting at zero.
	Saves int `json:"saves"`
	// SubPageSizes records each sub-map snapshot's page size — the only
	// part of the snapshot layout the _ckpt pages do not carry themselves.
	SubPageSizes []int `json:"subPageSizes"`
}

// jobFingerprint hashes the optimized program text and the cluster shape
// that determine a job's exchange stream.
func jobFingerprint(progText string, workers, threads, pageSize int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|w%d|t%d|p%d", progText, workers, threads, pageSize)
	return fmt.Sprintf("%016x", h.Sum64())
}

// resumePath is where the worker's durable cut metadata for a consuming
// stage lives: in its storage directory (DataDir/worker-N), next to _ckpt.
func (e *workerEnv) resumePath(produces string) string {
	return filepath.Join(e.store.Dir(), "resume-"+ckptSetName(produces, e.id)+".json")
}

// saveAggResume atomically persists the cut metadata for the checkpoint
// persistAggCheckpoint just wrote.
func (e *workerEnv) saveAggResume(rec *aggRecovery, ck *engine.MergeCheckpoint) error {
	sizes := make([]int, len(ck.Subs))
	for i := range ck.Subs {
		sizes[i] = ck.Subs[i].PageSize
	}
	return writeJSONAtomic(e.resumePath(rec.produces), &aggResume{
		Fingerprint:  e.jobFP,
		Produces:     rec.produces,
		Cut:          ck.Cut,
		Saves:        rec.saves,
		SubPageSizes: sizes,
	})
}

// loadAggResume pre-populates a fresh recovery record from durable cut
// metadata a previous process left in the worker's directory, if it
// matches this job. Any mismatch or damage means "no resume" — the job
// simply starts over (and its first cut overwrites the stale state).
func (e *workerEnv) loadAggResume(rec *aggRecovery) {
	b, err := os.ReadFile(e.resumePath(rec.produces))
	if err != nil {
		return
	}
	var r aggResume
	if json.Unmarshal(b, &r) != nil {
		return
	}
	if r.Fingerprint != e.jobFP || r.Produces != rec.produces || r.Cut <= 0 {
		return
	}
	set := ckptSetName(rec.produces, e.id)
	pages, err := e.store.Pages(checkpointDb, set)
	if err != nil || len(pages) != len(r.SubPageSizes) {
		return // snapshots missing or torn: start over
	}
	subs := make([]engine.SubMapSnapshot, len(r.SubPageSizes))
	for i, ps := range r.SubPageSizes {
		subs[i] = engine.SubMapSnapshot{PageSize: ps}
	}
	rec.ckpt = &engine.MergeCheckpoint{Cut: r.Cut, Subs: subs}
	rec.diskSet = set
	rec.saves = r.Saves
}

// joinResume is the durable cut metadata for a hash-partition join's
// probe/emit phase. The build phase has no durable state — its tables
// reference in-memory pages, and the build stream replays determinist-
// ically from storage on restart — so a restarted join rebuilds in full
// and resumes the probe from this cut. Matches emitted after the last
// durable cut re-emit on restart: the join is exactly-once within a
// cluster lifetime and at-least-once across restarts, with the window
// bounded by the checkpoint interval.
type joinResume struct {
	Fingerprint  string `json:"fingerprint"`
	ProbeCursor  int    `json:"probeCursor"`
	EmittedAtCut int    `json:"emittedAtCut"`
	Saves        int    `json:"saves"`
}

// joinResumePath is where worker's durable probe cut for one join job
// lives under DataDir.
func (c *Cluster) joinResumePath(dbL, setL, dbR, setR string, worker int) string {
	s := fileSafe.Replace
	return c.workerSubdir(worker,
		fmt.Sprintf("resume-join-%s-%s-%s-%s-w%d.json", s(dbL), s(setL), s(dbR), s(setR), worker))
}

// saveJoinResume atomically persists the probe cut rec just checkpointed.
func saveJoinResume(rec *joinRecovery) error {
	return writeJSONAtomic(rec.resumePath, &joinResume{
		Fingerprint:  rec.resumeFP,
		ProbeCursor:  rec.probeCursor,
		EmittedAtCut: rec.emittedAtCut,
		Saves:        rec.saves,
	})
}

// loadJoinResume pre-populates a fresh join recovery record from durable
// probe-cut metadata a previous cluster left behind, if it matches this
// job's fingerprint. Mismatch or damage means the join starts over.
func loadJoinResume(rec *joinRecovery) {
	b, err := os.ReadFile(rec.resumePath)
	if err != nil {
		return
	}
	var r joinResume
	if json.Unmarshal(b, &r) != nil {
		return
	}
	if r.Fingerprint != rec.resumeFP || r.ProbeCursor <= 0 {
		return
	}
	rec.probeCursor = r.ProbeCursor
	rec.emitted = r.EmittedAtCut
	rec.emittedAtCut = r.EmittedAtCut
	rec.saves = r.Saves
}
