package core

// One worker's stage work, written once (paper §2, Appendix D: every
// worker backend runs the same pipeline code): the pipeline driver and the
// artifact each sink kind leaves, the aggregation merge-and-finalize, and
// the sort merge-and-emit. The cluster's roles call these on every worker —
// in-process and in a pcworker session alike — with the exchange as the
// stream between stages; Executor calls them as one worker with no shuffle.

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
	"repro/internal/tcap"
)

// StageEnv is what one worker's stage work needs of the worker it runs on.
type StageEnv struct {
	// ID names the worker at fault sites.
	ID int
	// Partitions is how many hash partitions a pre-aggregation sink splits
	// its maps into, and an aggregation merge reads them by: one per
	// cluster worker.
	Partitions int
	// Threads is the executor-thread budget per stage (at least 1).
	Threads  int
	PageSize int
	Reg      *object.Registry
	// Pool supplies and recycles pages; nil allocates and recycles nothing.
	Pool *object.PagePool
	// Fault injects crashes at the worker's fault sites (nil: none).
	Fault *fault.Plan
	// Tables holds earlier stages' join tables, which probes read.
	Tables map[string]*engine.JoinTable
	// NoteStats folds counters into the worker's accounting. It must be
	// safe for concurrent use.
	NoteStats func(...engine.Stats)
}

// Artifact is what one worker's pipeline stage leaves for later stages,
// by sink kind: output, materialized or pre-aggregated pages in source
// order; a join table; or, for a sort, one sorted run per executor thread
// in source order (the merge's stability tie-break).
type Artifact struct {
	Pages []*object.Page
	Table *engine.JoinTable
	Runs  [][]*object.Page
}

// ThreadChunks splits pages into one contiguous chunk of batch ranges per
// executor thread, so thread order is source order.
func (e *StageEnv) ThreadChunks(pages []*object.Page) [][]engine.PageRange {
	return engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), e.Threads)
}

// RunPipeline drives a pipeline stage over pages: each executor thread runs
// its chunk through a private Pipeline/Ctx into a private stage sink
// (per-thread output pages, per-thread stats — nothing shared on the hot
// path). onSink, when set, wires thread t's sink before it runs (a
// streaming producer's OnSeal); done, when set, ends thread t's stream. A
// worker with no input still runs one empty chunk, so the sink is built
// and the stage's contract — possibly empty pages, an empty join table,
// one page of empty partition maps, a lone close marker — is honored.
// Per-thread counters fold into NoteStats even on error.
func (e *StageEnv) RunPipeline(res *CompileResult, stage *physical.JobStage, pages []*object.Page,
	onSink func(t int, sink engine.Sink, stop <-chan struct{}),
	done func(t int, stop <-chan struct{}) error) (Artifact, error) {
	sinkStmt, err := stageSinkStmt(stage)
	if err != nil {
		return Artifact{}, err
	}
	chunks := e.ThreadChunks(pages)
	if len(chunks) == 0 {
		chunks = [][]engine.PageRange{nil}
	}
	pt, err := engine.RunPipelineThreads(chunks, stage.SourceCol, stage.Stmts, res.Stages, sinkStmt,
		func(t int, stats *engine.Stats, stop <-chan struct{}) (engine.Sink, *engine.Ctx, error) {
			sink, err := e.newSink(res, stage, stats)
			if err != nil {
				return nil, nil, err
			}
			if onSink != nil {
				onSink(t, sink, stop)
			}
			ctx, err := engine.NewSinkCtx(sink, e.Reg, e.Tables, e.PageSize, e.Pool, stats)
			if err != nil {
				return nil, nil, err
			}
			return sink, ctx, nil
		}, done)
	e.NoteStats(pt.Stats...)
	if err != nil {
		return Artifact{}, err
	}
	switch stage.Sink {
	case physical.SinkJoinBuild:
		return Artifact{Table: pt.MergeJoinTables(e.Pool)}, nil
	case physical.SinkSort:
		runs := make([][]*object.Page, 0, len(pt.Sinks))
		for _, s := range pt.Sinks {
			runs = append(runs, s.Pages())
		}
		return Artifact{Runs: runs}, nil
	}
	// Chunks are contiguous, so thread order is source order; a streaming
	// pre-aggregation has handed every page on and leaves none.
	return Artifact{Pages: pt.OutputPages()}, nil
}

// MergeAggregation is an aggregation stage's consumer: it merges hash
// partition part of the pre-aggregated map pages next yields
// (engine.MergeAggMapsStream, hash-range sub-partitioned across Threads),
// then finalizes the sub-maps into result pages and recycles the merge
// pages through Pool. No result page is empty (holding).
func (e *StageEnv) MergeAggregation(res *CompileResult, stage *physical.JobStage,
	next func() (*object.Page, bool, error), part int) ([]*object.Page, error) {
	spec := res.AggSpecs[stage.AggList]
	if spec == nil {
		return nil, fmt.Errorf("no aggregation spec for %q", stage.AggList)
	}
	finals, mergePages, err := engine.MergeAggMapsStream(e.Reg, next, part, e.Partitions,
		spec, e.PageSize, e.Pool, e.Threads)
	if err != nil {
		return nil, err
	}
	e.Fault.Hit(fault.Finalize, e.ID)
	var stats engine.Stats
	out, err := engine.FinalizeAggParallel(e.Reg, finals, spec, e.PageSize, e.Pool, &stats)
	e.NoteStats(stats)
	if err != nil {
		return nil, err
	}
	if e.Pool != nil {
		// The merge pages' contents were finalized into out.
		for _, p := range mergePages {
			e.Pool.Put(p)
		}
	}
	return e.holding(out), nil
}

// MergeSort is a sort stage's consumer: it merges sorted runs — in run
// order, the merger's tie-break, so source order gives the global stable
// order — applies the top-k limit, and materializes the output objects
// onto fresh pages, a window computation folding its running aggregate
// over the merged stream (one output object per input row). An empty
// result has no page (holding).
func (e *StageEnv) MergeSort(res *CompileResult, stage *physical.JobStage, runs [][]*object.Page) ([]*object.Page, error) {
	spec := res.SortSpecs[stage.AggList]
	if spec == nil {
		return nil, fmt.Errorf("no sort spec for %q", stage.AggList)
	}
	ws := res.WindowSpecs[stage.AggList]
	if spec.Window && ws == nil {
		return nil, fmt.Errorf("no window spec for %q", stage.AggList)
	}
	m := engine.NewSortMerger(e.Reg, runs, spec.Limit)
	var stats engine.Stats
	sink, err := engine.NewOutputSink(e.Reg, e.PageSize, e.Pool, &stats)
	if err != nil {
		return nil, err
	}
	var window engine.WindowState
	for {
		_, obj, val, ok := m.NextRow()
		if !ok {
			break
		}
		if err := engine.EmitMerged(sink.Out, ws, &window, obj, val); err != nil {
			return nil, err
		}
	}
	e.Fault.Hit(fault.Finalize, e.ID)
	e.NoteStats(stats)
	return e.holding(sink.Out.Pages()), nil
}

// holding keeps the merge result pages that hold an object and recycles
// the rest through Pool: an output sink's first page exists before its
// first row, and a merge that finalizes into a stored set must not commit a
// page that carries nothing.
func (e *StageEnv) holding(pages []*object.Page) []*object.Page {
	kept := pages[:0]
	for _, p := range pages {
		if p.Root() != 0 && object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len() > 0 {
			kept = append(kept, p)
		} else if e.Pool != nil {
			e.Pool.Put(p)
		}
	}
	return kept
}

// newSink builds one executor thread's private sink for a pipeline stage,
// splitting a pre-aggregation into Partitions hash partitions and charging
// page counters to stats.
func (e *StageEnv) newSink(res *CompileResult, stage *physical.JobStage, stats *engine.Stats) (engine.Sink, error) {
	reg, pageSize, pool := e.Reg, e.PageSize, e.Pool
	switch stage.Sink {
	case physical.SinkOutput, physical.SinkMaterialize:
		return engine.NewOutputSink(reg, pageSize, pool, stats)
	case physical.SinkPreAgg:
		spec := res.AggSpecs[stage.SinkStmt.Out.Name]
		if spec == nil {
			return nil, fmt.Errorf("no aggregation spec for %q", stage.SinkStmt.Out.Name)
		}
		return engine.NewAggSink(reg, pageSize, e.Partitions, spec,
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

// stageSinkStmt returns the statement a stage's sink consumes: the stage's
// own, or for a materialization sink an OUTPUT of the final object column —
// the last statement's only column, else its only new one (the planner
// guarantees single-column boundaries).
func stageSinkStmt(stage *physical.JobStage) (*tcap.Stmt, error) {
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
