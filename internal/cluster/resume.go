package cluster

// Cross-restart consumer resume. Durable cuts follow the disk: a worker
// whose storage is on disk (Config.DataDir, which every pcworker process
// has) makes every aggregation cut durable, in both modes. The snapshot
// bytes persist as ordinary storage pages under <worker>/_ckpt
// (checkpoint.go); this file persists the metadata describing them —
// which job and which cut they capture, the set holding them, how many
// saves preceded it, and each sub-map snapshot's page size — as a few
// dozen bytes of JSON written atomically (writeJSONAtomic) at every cut.
// A step that fails on a live in-process cluster drops that state with
// the rest of its recovery record; what a dead process left behind is what
// the next run of the same job resumes from.
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
	"repro/internal/physical"
)

// aggResume is the durable cut metadata persisted next to a consumer's
// _ckpt snapshot sets.
type aggResume struct {
	// Fingerprint ties the record to one job over one input on one cluster
	// shape; a restarted cluster resumes only when it re-executes the same
	// job over the same sets.
	Fingerprint string `json:"fingerprint"`
	// Produces names the consuming stage's artifact (sanity check).
	Produces string `json:"produces"`
	// Set is the _ckpt set holding this cut's snapshots.
	Set string `json:"set"`
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

// jobFingerprint hashes what determines a job's exchange stream: the
// optimized program text, the cluster shape, and the version of every set
// the plan scans — its generation and page count — so a set reloaded,
// appended to, or dropped and recreated between two runs refuses the
// resume.
func (c *Cluster) jobFingerprint(progText string, stages []*physical.JobStage) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|w%d|t%d|p%d", progText, c.Cfg.Workers, c.Cfg.Threads, c.Cfg.PageSize)
	for _, st := range stages {
		if st.Scan != nil {
			gen, pages := c.Catalog.SetVersion(st.Scan.Db, st.Scan.Set)
			fmt.Fprintf(h, "|%s.%s@%d/%d", st.Scan.Db, st.Scan.Set, gen, pages)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// resumePath is where the worker's durable cut metadata for a consuming
// stage lives: in its storage directory (DataDir/worker-N), next to _ckpt.
func (e *workerEnv) resumePath(produces string) string {
	return filepath.Join(e.store.Dir(), "resume-"+ckptName(produces, e.id)+".json")
}

// saveAggResume atomically points the durable cut metadata at the
// checkpoint persistAggCheckpoint just wrote.
func (e *workerEnv) saveAggResume(rec *aggRecovery, ck *engine.MergeCheckpoint) error {
	sizes := make([]int, len(ck.Subs))
	for i := range ck.Subs {
		sizes[i] = ck.Subs[i].PageSize
	}
	return writeJSONAtomic(e.resumePath(rec.produces), &aggResume{
		Fingerprint:  e.jobFP,
		Produces:     rec.produces,
		Set:          rec.diskSet,
		Cut:          ck.Cut,
		Saves:        rec.saves,
		SubPageSizes: sizes,
	})
}

// loadAggResume pre-populates a fresh recovery record from durable cut
// metadata a previous process left in the worker's directory, and reports
// whether it did: only when the file matches this job and names a
// complete snapshot set. Anything else means "no resume" — the job starts
// over, and the caller drops whatever was left for the artifact first, so
// none of it can mix with this job's own cuts.
func (e *workerEnv) loadAggResume(rec *aggRecovery) bool {
	b, err := os.ReadFile(e.resumePath(rec.produces))
	if err != nil {
		return false
	}
	var r aggResume
	if json.Unmarshal(b, &r) != nil {
		return false
	}
	if r.Fingerprint != e.jobFP || r.Produces != rec.produces || r.Cut <= 0 {
		return false
	}
	pages, err := e.store.Pages(checkpointDb, r.Set)
	if err != nil || len(pages) != len(r.SubPageSizes) {
		return false
	}
	subs := make([]engine.SubMapSnapshot, len(r.SubPageSizes))
	for i, ps := range r.SubPageSizes {
		subs[i] = engine.SubMapSnapshot{PageSize: ps}
	}
	rec.ckpt = &engine.MergeCheckpoint{Cut: r.Cut, Subs: subs}
	rec.diskSet = r.Set
	rec.saves = r.Saves
	return true
}
