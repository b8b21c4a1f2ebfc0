package core

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/physical"
)

// SetStore abstracts the storage layer the executor reads input sets from
// and writes result sets to. The in-process storage server and the
// distributed storage manager both implement it.
type SetStore interface {
	// Pages returns the pages of a stored set (each holding a root
	// Vector<Handle>).
	Pages(db, set string) ([]*object.Page, error)
	// Append adds result pages to a set.
	Append(db, set string, pages []*object.Page) error
}

// Executor runs a compiled query graph's physical plan on a single process
// — one worker of the distributed scheduler, with no shuffle. Its stages
// run through StageEnv (stage.go), the very pipeline driver, aggregation
// merge and sort merge a cluster worker runs, so local runs and tests
// exercise the same sinks and merges at any Threads setting.
type Executor struct {
	Store      SetStore
	Reg        *object.Registry
	PageSize   int
	Partitions int
	// Threads is the executor-thread budget per stage (the single-process
	// analogue of cluster Config.Threads). Zero or one runs sequentially.
	Threads int
	Stats   engine.Stats
}

// NewExecutor creates an executor with the given storage and type registry,
// running stages sequentially (Threads 1); set Threads for intra-stage
// parallelism.
func NewExecutor(store SetStore, reg *object.Registry, pageSize, partitions int) *Executor {
	if pageSize <= 0 {
		pageSize = 1 << 18
	}
	if partitions <= 0 {
		partitions = 4
	}
	return &Executor{Store: store, Reg: reg, PageSize: pageSize, Partitions: partitions}
}

// Run compiles nothing — it executes an already compiled and planned query
// as a barrier schedule: each stage runs to completion and either appends
// its pages to its stored set or leaves its artifacts (materialized
// intermediates, join tables, pre-aggregated maps, sorted runs) in an
// in-memory table the later stages read.
func (e *Executor) Run(res *CompileResult, plan *physical.Plan) error {
	var mu sync.Mutex // the aggregation's partitions fold stats concurrently
	env := &StageEnv{Partitions: e.Partitions, Threads: max(e.Threads, 1), PageSize: e.PageSize, Reg: e.Reg,
		Tables: map[string]*engine.JoinTable{},
		NoteStats: func(stats ...engine.Stats) {
			mu.Lock()
			defer mu.Unlock()
			for i := range stats {
				e.Stats.Merge(&stats[i])
			}
		}}
	pages := map[string][]*object.Page{}  // "mat:X" and "aggmaps:X"
	runs := map[string][][]*object.Page{} // "sortruns:X"
	for _, stage := range plan.Stages {
		if err := e.runStage(env, res, stage, pages, runs); err != nil {
			return fmt.Errorf("core: stage %d (%s): %w", stage.ID, stage.Produces, err)
		}
	}
	return nil
}

// runStage runs one stage and commits its result: a join table or sorted
// runs under their list, any other pages to the stage's stored set, as they
// are, or under its artifact name.
func (e *Executor) runStage(env *StageEnv, res *CompileResult, stage *physical.JobStage,
	pages map[string][]*object.Page, runs map[string][][]*object.Page) error {
	var out []*object.Page
	var err error
	switch stage.Kind {
	case physical.StagePipeline:
		src, ok := pages["mat:"+stage.SourceList]
		if stage.Scan != nil {
			src, err = e.Store.Pages(stage.Scan.Db, stage.Scan.Set)
		} else if !ok {
			err = fmt.Errorf("missing materialized source %q", stage.SourceList)
		}
		if err != nil {
			return err
		}
		art, err := env.RunPipeline(res, stage, src, nil, nil)
		if err != nil {
			return err
		}
		switch stage.Sink {
		case physical.SinkJoinBuild:
			env.Tables[stage.SinkStmt.Applied2.Name] = art.Table
			return nil
		case physical.SinkSort:
			runs[stage.Produces] = art.Runs
			return nil
		}
		out = art.Pages
	case physical.StageAggregation:
		out, err = e.mergeAggregation(env, res, stage, pages)
	case physical.StageSortMerge:
		sorted, ok := runs["sortruns:"+stage.AggList]
		if !ok {
			return fmt.Errorf("missing sorted runs for %q", stage.AggList)
		}
		out, err = env.MergeSort(res, stage, sorted)
	default:
		err = fmt.Errorf("core: unknown stage kind %d", stage.Kind)
	}
	if err != nil {
		return err
	}
	if o := stage.Output; o != nil {
		return e.Store.Append(o.Db, o.Set, out)
	}
	// Materialized objects and pre-aggregated maps in thread order: what a
	// one-worker shuffle delivers to the next stage.
	pages[stage.Produces] = out
	return nil
}

// mergeAggregation merges and finalizes every partition of the
// pre-aggregated maps. At Threads > 1 the partitions run concurrently —
// the analogue of the cluster's workers each merging their own — and
// their pages concatenate in partition order either way, so the result
// matches the sequential schedule exactly.
func (e *Executor) mergeAggregation(env *StageEnv, res *CompileResult, stage *physical.JobStage,
	pages map[string][]*object.Page) ([]*object.Page, error) {
	maps, ok := pages["aggmaps:"+stage.AggList]
	if !ok {
		return nil, fmt.Errorf("missing pre-aggregated maps for %q", stage.AggList)
	}
	perPart := make([][]*object.Page, e.Partitions)
	merge := func(part int, _ <-chan struct{}) (err error) {
		perPart[part], err = env.MergeAggregation(res, stage, engine.SliceSource(maps), part)
		return err
	}
	var err error
	if env.Threads > 1 {
		err = engine.ParallelThreads(e.Partitions, merge)
	} else {
		for part := 0; part < e.Partitions && err == nil; part++ {
			err = merge(part, nil)
		}
	}
	var out []*object.Page
	for _, p := range perPart {
		out = append(out, p...)
	}
	return out, err
}

// MemStore is a simple in-memory SetStore for tests and examples.
type MemStore struct {
	Sets map[string][]*object.Page
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{Sets: map[string][]*object.Page{}} }

// Pages returns the pages of a set.
func (m *MemStore) Pages(db, set string) ([]*object.Page, error) {
	pages, ok := m.Sets[db+"."+set]
	if !ok {
		return nil, fmt.Errorf("core: unknown set %s.%s", db, set)
	}
	return pages, nil
}

// Append adds pages to a set (creating it on first write).
func (m *MemStore) Append(db, set string, pages []*object.Page) error {
	key := db + "." + set
	m.Sets[key] = append(m.Sets[key], pages...)
	return nil
}
