package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
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
// — one worker of the distributed scheduler, with no shuffle. It drives
// pipeline stages through engine.RunPipelineThreads and merges aggregations
// through engine.MergeAggMapsStream, the calls a cluster worker makes, so
// local runs and tests exercise the same sinks and merges at any Threads
// setting.
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

// threads normalizes the configured thread budget.
func (e *Executor) threads() int {
	if e.Threads < 1 {
		return 1
	}
	return e.Threads
}

// Run compiles nothing — it executes an already compiled and planned query.
// Artifacts (materialized intermediates, join tables, pre-aggregated maps)
// flow between stages through an in-memory artifact table.
func (e *Executor) Run(res *CompileResult, plan *physical.Plan) error {
	arts := &artifacts{pages: map[string][]*object.Page{}, tables: map[string]*engine.JoinTable{},
		runs: map[string][][]*object.Page{}}
	for _, stage := range plan.Stages {
		var err error
		switch stage.Kind {
		case physical.StagePipeline:
			err = e.runPipelineStage(res, stage, arts)
		case physical.StageAggregation:
			err = e.runAggregationStage(res, stage, arts)
		case physical.StageSortMerge:
			err = e.runSortMergeStage(res, stage, arts)
		default:
			err = fmt.Errorf("core: unknown stage kind %d", stage.Kind)
		}
		if err != nil {
			return fmt.Errorf("core: stage %d (%s): %w", stage.ID, stage.Produces, err)
		}
	}
	return nil
}

type artifacts struct {
	pages  map[string][]*object.Page // "mat:X" and "aggmaps:X"
	tables map[string]*engine.JoinTable
	runs   map[string][][]*object.Page // "sortruns:X": sorted runs in source order
}

func (e *Executor) sourcePages(stage *physical.JobStage, arts *artifacts) ([]*object.Page, error) {
	if stage.Scan != nil {
		return e.Store.Pages(stage.Scan.Db, stage.Scan.Set)
	}
	pages, ok := arts.pages["mat:"+stage.SourceList]
	if !ok {
		return nil, fmt.Errorf("missing materialized source %q", stage.SourceList)
	}
	return pages, nil
}

// NewStageSink builds one executor thread's private sink for a pipeline
// stage — in the executor or on a cluster worker — splitting a
// pre-aggregation into partitions hash partitions, taking pages from pool
// (nil allocates) and charging page counters to stats.
func NewStageSink(res *CompileResult, stage *physical.JobStage, reg *object.Registry,
	pageSize, partitions int, pool *object.PagePool, stats *engine.Stats) (engine.Sink, error) {
	switch stage.Sink {
	case physical.SinkOutput, physical.SinkMaterialize:
		return engine.NewOutputSink(reg, pageSize, pool, stats)
	case physical.SinkPreAgg:
		spec := res.AggSpecs[stage.SinkStmt.Out.Name]
		if spec == nil {
			return nil, fmt.Errorf("no aggregation spec for %q", stage.SinkStmt.Out.Name)
		}
		return engine.NewAggSink(reg, pageSize, partitions, spec,
			stage.SinkStmt.Applied.Cols[0], stage.SinkStmt.Applied.Cols[1], pool, stats)
	case physical.SinkJoinBuild:
		if jt := stage.SinkStmt.Info["joinType"]; jt == "semi" || jt == "anti" {
			// Semi/anti joins build an exact key-value set from the raw key
			// column — no hash table.
			return engine.NewKeySetBuildSink(stage.SinkStmt.Applied2.Cols[0]), nil
		}
		return engine.NewJoinBuildSink(stage.SinkStmt.Applied2.Cols[0], stage.SinkStmt.Copied2.Cols[0]), nil
	case physical.SinkSort:
		spec := res.SortSpecs[stage.SinkStmt.Out.Name]
		if spec == nil {
			return nil, fmt.Errorf("no sort spec for %q", stage.SinkStmt.Out.Name)
		}
		keyCols := stage.SinkStmt.Applied.Cols[:spec.NumKeys]
		valCol := ""
		if spec.Window {
			valCol = stage.SinkStmt.Applied.Cols[spec.NumKeys]
		}
		return engine.NewSortSink(reg, pageSize, keyCols, stage.SinkStmt.Copied.Cols[0],
			valCol, spec.Desc, spec.Limit, pool, stats)
	default:
		return nil, fmt.Errorf("unknown sink kind %v", stage.Sink)
	}
}

// StageSinkStmt returns the statement a stage's sink consumes: the stage's
// own, or for a materialization sink an OUTPUT of the final object column —
// the last statement's only column, else its only new one (the planner
// guarantees single-column boundaries).
func StageSinkStmt(stage *physical.JobStage) (*tcap.Stmt, error) {
	if stage.Sink != physical.SinkMaterialize {
		return stage.SinkStmt, nil
	}
	last := stage.Stmts[len(stage.Stmts)-1]
	cols := last.Out.Cols
	if len(cols) != 1 {
		cols = last.NewColumns()
	}
	if len(cols) != 1 {
		return nil, fmt.Errorf("cannot determine materialization column of %s", last.Out)
	}
	return &tcap.Stmt{Op: tcap.OpOutput, Applied: tcap.ColumnsRef{Name: last.Out.Name, Cols: cols}}, nil
}

func (e *Executor) runPipelineStage(res *CompileResult, stage *physical.JobStage, arts *artifacts) error {
	pages, err := e.sourcePages(stage, arts)
	if err != nil {
		return err
	}

	sinkStmt, err := StageSinkStmt(stage)
	if err != nil {
		return err
	}

	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), e.threads())
	if len(chunks) == 0 {
		// No input: a single empty chunk still builds the sink, so the
		// stage's artifact contract (possibly empty pages, an empty join
		// table) is honored.
		chunks = [][]engine.PageRange{nil}
	}

	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, sinkStmt,
		func(t int, stats *engine.Stats, _ <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := NewStageSink(res, stage, e.Reg, e.PageSize, e.Partitions, nil, stats)
			if err != nil {
				return nil, nil, err
			}
			ctx, err := engine.NewSinkCtx(sink, e.Reg, arts.tables, e.PageSize, nil, stats)
			if err != nil {
				return nil, nil, err
			}
			return sink, ctx, nil
		}, nil)
	pt.MergeStatsInto(&e.Stats)
	if err != nil {
		return err
	}

	switch stage.Sink {
	case physical.SinkOutput:
		outPages := pt.OutputPages()
		for _, p := range outPages {
			p.SetManaged(false)
		}
		return e.Store.Append(stage.SinkStmt.Db, stage.SinkStmt.Set, outPages)
	case physical.SinkMaterialize, physical.SinkPreAgg:
		// Pre-aggregated maps, like objects, in thread order: what a
		// one-worker shuffle delivers to the aggregation stage's merge.
		arts.pages[stage.Produces] = pt.OutputPages()
	case physical.SinkJoinBuild:
		arts.tables[stage.SinkStmt.Applied2.Name] = pt.MergeJoinTables(nil)
	case physical.SinkSort:
		// Each thread's sink sealed one sorted run; chunks are contiguous,
		// so thread order is source order — the merge's stability tie-break.
		runs := make([][]*object.Page, 0, len(pt.Sinks))
		for _, s := range pt.Sinks {
			runs = append(runs, s.Pages())
		}
		arts.runs[stage.Produces] = runs
	}
	return nil
}

// runSortMergeStage is the consuming stage of a distributed sort: it merges
// the producer stage's sorted runs (in run order — source order) into the
// global stable order, applies the top-k limit, and materializes the output
// objects onto fresh pages (engine.EmitMerged, the step the cluster's merge
// consumer runs too). A window computation folds its running aggregate over
// the merged stream here, emitting one output object per input row.
func (e *Executor) runSortMergeStage(res *CompileResult, stage *physical.JobStage, arts *artifacts) error {
	spec := res.SortSpecs[stage.AggList]
	if spec == nil {
		return fmt.Errorf("no sort spec for %q", stage.AggList)
	}
	runs, ok := arts.runs["sortruns:"+stage.AggList]
	if !ok {
		return fmt.Errorf("missing sorted runs for %q", stage.AggList)
	}
	sink, err := engine.NewOutputSink(e.Reg, e.PageSize, nil, &e.Stats)
	if err != nil {
		return err
	}
	out := sink.Out
	m := engine.NewSortMerger(e.Reg, runs, spec.Limit)
	ws := res.WindowSpecs[stage.AggList]
	if spec.Window && ws == nil {
		return fmt.Errorf("no window spec for %q", stage.AggList)
	}
	var st engine.WindowState
	for {
		_, obj, val, ok := m.NextRow()
		if !ok {
			break
		}
		if err := engine.EmitMerged(out, ws, &st, obj, val); err != nil {
			return err
		}
	}
	arts.pages[stage.Produces] = out.Pages()
	return nil
}

// runAggregationStage is the consuming stage of a local aggregation: every
// partition is merged from the pre-aggregation stage's map pages by
// engine.MergeAggMapsStream (hash-range sub-partitioned across e.Threads,
// exactly as a cluster worker merges its partition, minus the checkpoints)
// and finalized. At Threads > 1 the partitions themselves also run
// concurrently — the single-process analogue of the cluster's workers
// consuming their partitions in parallel — with per-partition output pages
// concatenated in partition order, so the result page sequence matches the
// sequential schedule exactly.
func (e *Executor) runAggregationStage(res *CompileResult, stage *physical.JobStage, arts *artifacts) error {
	spec := res.AggSpecs[stage.AggList]
	if spec == nil {
		return fmt.Errorf("no aggregation spec for %q", stage.AggList)
	}
	mapPages, ok := arts.pages["aggmaps:"+stage.AggList]
	if !ok {
		return fmt.Errorf("missing pre-aggregated maps for %q", stage.AggList)
	}
	perPart := make([][]*object.Page, e.Partitions)
	pstats := make([]engine.Stats, e.Partitions)
	runPart := func(part int) error {
		finals, _, err := engine.MergeAggMapsStream(e.Reg, engine.SliceSource(mapPages), part, e.Partitions,
			spec, e.PageSize, nil, e.threads(), nil, nil)
		if err != nil {
			return err
		}
		pages, err := engine.FinalizeAggParallel(e.Reg, finals, spec, e.PageSize, nil, &pstats[part])
		if err != nil {
			return err
		}
		perPart[part] = pages
		return nil
	}
	var err error
	if e.threads() > 1 {
		err = engine.ParallelFor(e.Partitions, runPart)
	} else {
		for part := 0; part < e.Partitions && err == nil; part++ {
			err = runPart(part)
		}
	}
	for part := range pstats {
		e.Stats.Merge(&pstats[part])
	}
	if err != nil {
		return err
	}
	var outPages []*object.Page
	for _, pages := range perPart {
		outPages = append(outPages, pages...)
	}
	arts.pages[stage.Produces] = outPages
	return nil
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
