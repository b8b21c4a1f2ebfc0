package cluster

import (
	"fmt"

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
// hash partition at load time and labels the set with the key in the
// catalog. HashPartitionJoinKind reads the labels: two sets sharing one
// join with zero shuffle, every worker building and probing its own stored
// pages (storedEnd), which it checks against the placement as it reads them.

// SendDataPartitioned loads pages into a set, placing each object on the
// worker that owns hash(key(obj)) % workers (engine.PartitionOf). The
// client runs the join's repartition sink (engine.RepartitionSink, one page
// set per worker), so objects are deep-copied onto per-worker pages at load
// time — a one-time cost the paper's remark anticipates. The set takes
// keyLabel as its partition label only if it was empty or already carried
// that label; loading into a set placed any other way leaves it unlabelled
// (catalog.Master.UpdateSetStats).
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
			if object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len() == 0 {
				continue
			}
			if err := c.storePage(w, db, set, p, keyLabel); err != nil {
				return err
			}
		}
	}
	return nil
}

// storedEnd is a join's consumerEnd over one worker's stored pages of a set
// when both join inputs carry the same partition label: nothing is
// shipped. The pages are durable and owned by the front end, so rewinding
// is an index. The first time it hands out a page it checks the label
// holds: every row's key hash must route to this worker, the one
// engine.PartitionOf names, or the join fails instead of missing matches.
type storedEnd struct {
	env      *workerEnv
	db, set  string
	key      func(object.Ref) uint64
	pages    []*object.Page // read on first use; nil for no pages
	pos      int
	verified int // pages[:verified] passed the placement check
}

func (s *storedEnd) rewind() { s.pos = 0 }

func (s *storedEnd) next() (*object.Page, bool, error) {
	if s.pages == nil {
		var err error
		if s.pages, err = storedPages(s.env.store, s.db, s.set); err != nil {
			return nil, false, err
		}
	}
	if s.pos >= len(s.pages) {
		return nil, false, nil
	}
	p := s.pages[s.pos]
	if s.pos == s.verified && p.Root() != 0 { // its first read: check it
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i, n := 0, root.Len(); i < n; i++ {
			if owner := engine.PartitionOf(s.key(root.HandleAt(i)), s.env.Partitions); owner != s.env.ID {
				return nil, false, fmt.Errorf("cluster: set %s.%s is not placed by its partition label's key: worker %d holds a row owned by worker %d",
					s.db, s.set, s.env.ID, owner)
			}
		}
	}
	s.pos++
	s.verified = max(s.verified, s.pos)
	return p, true, nil
}
