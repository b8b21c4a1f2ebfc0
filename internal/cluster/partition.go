package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/object"
)

// Pre-partitioned sets: the paper's §8.3.3 future-work item, implemented.
//
// "PC cannot make use of pre-partitioning of the data stored in a set. If
// the MatrixBlock objects making up a distributed matrix could be
// pre-partitioned based upon the row/column at load time, it would mean
// that the expensive join ... could completely avoid a runtime partitioning
// of the data, which requires shuffling each input matrix."
//
// SendDataPartitioned routes each object to the worker owning its key's
// hash partition at load time and records the partition key label in the
// catalog; CoPartitionedJoin then joins two sets sharing a label with zero
// shuffle: every worker builds and probes purely locally.

// SendDataPartitioned loads pages into a set, placing each object on the
// worker that owns hash(key(obj)) % workers, and records keyLabel as the
// set's partition key. The client runs the join's repartition sink
// (engine.RepartitionSink, one page set per worker), so objects are
// deep-copied onto per-worker pages at load time — a one-time cost the
// paper's remark anticipates.
func (c *Cluster) SendDataPartitioned(db, set string, pages []*object.Page,
	keyLabel string, key func(object.Ref) uint64) error {
	if _, err := c.Catalog.LookupSet(db, set); err != nil {
		return err
	}
	sink, err := engine.NewRepartitionSink(c.Catalog.Registry(), c.Cfg.PageSize, len(c.Workers), "h", "obj", nil, nil)
	if err != nil {
		return err
	}
	if err := engine.ScanPages(pages, "obj", engine.BatchSize, repartitionBatch(sink, key, nil)); err != nil {
		return err
	}
	for i, w := range c.Workers {
		for _, p := range sink.PartitionPages(i) {
			if p.ActiveObjects() <= 1 { // only the root vector: empty
				continue
			}
			q, err := c.Transport.Ship(p, w.Reg())
			if err != nil {
				return err
			}
			if err := w.Front.Store.Append(db, set, []*object.Page{q}); err != nil {
				return err
			}
			c.Catalog.UpdateSetStats(db, set, 1, int64(p.Used()))
		}
	}
	c.Catalog.SetPartitionKey(db, set, keyLabel)
	return c.saveManifest()
}

// CoPartitionedJoin joins two sets that were loaded with
// SendDataPartitioned under the same key label: no repartition stages, no
// shuffle — each worker builds a table from its local right-side objects
// and probes with its local left-side objects, through the very consumer
// body HashPartitionJoinKind runs (consumeJoin) with the worker's stored
// pages as both streams, so build threading, probe windows and match order
// are that join's.
//
// A backend crash anywhere in the local build or probe is recovered
// (once per step): the inputs
// are the worker's own stored pages, owned by the crash-proof front end, so
// the re-forked backend replays them like HashPartitionJoinKind replays its
// streams — a build crash rebuilds the table, a probe crash re-probes the
// recorded table from the first page, the recovery record's emitted-match
// count skipping the matches user code already observed: emit stays
// exactly-once across crashes. Each recovered crash counts as a "probe"
// retry in the returned ExecStats.
func (c *Cluster) CoPartitionedJoin(dbL, setL, dbR, setR string,
	keyL, keyR func(object.Ref) uint64,
	eq func(l, r object.Ref) bool,
	emit func(workerID int, l, r object.Ref) error) (*ExecStats, error) {
	ml, err := c.Catalog.LookupSet(dbL, setL)
	if err != nil {
		return nil, err
	}
	mr, err := c.Catalog.LookupSet(dbR, setR)
	if err != nil {
		return nil, err
	}
	if ml.PartitionKey == "" || ml.PartitionKey != mr.PartitionKey {
		return nil, fmt.Errorf("cluster: sets %s.%s and %s.%s are not co-partitioned (%q vs %q)",
			dbL, setL, dbR, setR, ml.PartitionKey, mr.PartitionKey)
	}

	stats := &ExecStats{Threads: c.Cfg.Threads, RoleRetries: map[string]int{}}
	roles := make([]role, len(c.Workers))
	for i, w := range c.Workers {
		env := c.env(w)
		j := &joinSpec{kind: core.JoinInner, keyL: keyL, keyR: keyR, eq: eq,
			emit: func(l, r object.Ref) error { return emit(i, l, r) }}
		rec := &joinRecovery{} // scheduler-owned: survives the role's attempts
		roles[i] = role{w: w, name: roleProbe, what: "co-partitioned join", onRetry: stats.noteRetry(roleProbe, true), body: func() error {
			right, err := storedPages(env.store, dbR, setR)
			if err != nil {
				return err
			}
			left, err := storedPages(env.store, dbL, setL)
			if err != nil {
				return err
			}
			return env.consumeJoin(&storedEnd{pages: right}, &storedEnd{pages: left}, j, rec)
		}}
	}
	ship, err := c.runStep(roles, nil)
	stats.Ships = []StageShip{ship}
	return stats, err
}
