package engine

// The parallel stage driver: it splits a pipeline stage's source into
// contiguous chunks, runs one Pipeline/Ctx/sink per chunk on a dedicated
// executor thread, and combines the per-thread results with the sink-merge
// protocol implemented by the PipelineThreads helpers below. Its one caller
// is core.StageEnv.RunPipeline, the worker stage code the distributed
// runtime (internal/cluster) and the single-process executor
// (internal/core) both run, so local runs exercise exactly the code path
// the cluster runs per worker.

import (
	"repro/internal/object"
	"repro/internal/tcap"
)

// PipelineThreads holds the per-thread state of one parallel stage run:
// thread t drove chunk t through Pipes-like private state into Sinks[t],
// charging counters to Stats[t]. After the stage barrier the coordinating
// goroutine collects sinks (OutputPages, MergeJoinTables) and
// folds Stats into the owning accounting.
type PipelineThreads struct {
	Sinks []Sink
	Ctxs  []*Ctx
	Stats []Stats
}

// NewSinkCtx builds one executor thread's execution context around its
// sink: sinks that own an output page set (OUTPUT, pre-aggregation) expose
// it as Ctx.Out so kernels allocate result objects in place; other sinks
// (join build) get a private scratch page set for kernel intermediates.
// Reg and tables may be shared across threads — the registry is internally
// locked and join tables are read-only during probes.
func NewSinkCtx(sink Sink, reg *object.Registry, tables map[string]*JoinTable,
	pageSize int, pool *object.PagePool, stats *Stats) (*Ctx, error) {
	ctx := &Ctx{Reg: reg, Tables: tables, Stats: stats}
	switch s := sink.(type) {
	case *OutputSink:
		ctx.Out = s.Out
	case *AggSink:
		ctx.Out = s.Out
	default:
		ops, err := NewOutputPageSet(reg, pageSize, nil, pool, stats)
		if err != nil {
			return nil, err
		}
		ctx.Out = ops
	}
	return ctx, nil
}

// RunPipelineThreads executes a pipeline stage across one executor thread
// per chunk, as a one-shot Team (ParallelThreads; thread 0 is the caller):
// mk builds thread t's private sink and ctx (charging to the returned
// *Stats), each thread drives its chunk through its own Pipeline, and the
// call returns after the stage barrier. The per-thread state is returned
// even when a thread failed, so the caller can still fold Stats into its
// accounting (matching the sequential path's incremental accounting); the
// error and panic rules are Team.Run's: the first failing thread's error,
// and panics in user code re-raised on the caller.
//
// Streaming: mk receives the run's stop channel (closed on sibling-thread
// failure) so streaming sinks can abandon a blocked exchange send. When a
// thread's chunk completes, its sink's CloseStream runs on that thread
// (flushing the final live page through OnSeal, a no-op for non-streaming
// sinks), followed by the optional done epilogue — the place a streaming
// producer sends its thread-close marker.
func RunPipelineThreads(chunks [][]PageRange, sourceCol string, stmts []*tcap.Stmt,
	reg *StageRegistry, sinkStmt *tcap.Stmt,
	mk func(t int, stats *Stats, stop <-chan struct{}) (Sink, *Ctx, error),
	done func(t int, stop <-chan struct{}) error) (*PipelineThreads, error) {
	nt := len(chunks)
	pt := &PipelineThreads{
		Sinks: make([]Sink, nt),
		Ctxs:  make([]*Ctx, nt),
		Stats: make([]Stats, nt),
	}
	body := func(t int, stop <-chan struct{}) error {
		sink, ctx, err := mk(t, &pt.Stats[t], stop)
		if err != nil {
			return err
		}
		pt.Sinks[t] = sink
		pt.Ctxs[t] = ctx
		if ss, ok := sink.(*SortSink); ok {
			rows := 0
			for _, r := range chunks[t] {
				rows += r.Rows()
			}
			ss.Reserve(rows)
		}
		pipe := &Pipeline{Stmts: stmts, Reg: reg, Sink: sink, SinkStmt: sinkStmt}
		err = ScanRanges(chunks[t], sourceCol, func(vl *VectorList) error {
			select {
			case <-stop:
				return ErrAborted
			default:
			}
			return pipe.RunBatch(ctx, vl)
		})
		if err != nil {
			return err
		}
		if ss, ok := sink.(StreamSink); ok {
			if err := ss.CloseStream(); err != nil {
				return err
			}
		}
		if done != nil {
			return done(t, stop)
		}
		return nil
	}
	return pt, ParallelThreads(nt, body)
}

// OutputPages concatenates the per-thread sinks' pages in thread order.
// Chunks are contiguous, so thread order is source order: a parallel OUTPUT
// or materialization stage produces objects in exactly the sequence a
// sequential run would.
func (pt *PipelineThreads) OutputPages() []*object.Page {
	var out []*object.Page
	for _, s := range pt.Sinks {
		out = append(out, s.Pages()...)
	}
	return out
}

// MergeJoinTables merges the per-thread build tables bucket-wise in thread
// order — per-bucket row order matches a sequential build because each
// thread consumed a contiguous slice of the source — then recycles each
// thread's scratch output pages through pool unless the table references
// them (a fused upstream projection may have allocated the build objects
// there); unreferenced scratch holds only dead kernel intermediates.
func (pt *PipelineThreads) MergeJoinTables(pool *object.PagePool) *JoinTable {
	table := pt.Sinks[0].(*JoinBuildSink).Table
	for t := 1; t < len(pt.Sinks); t++ {
		table.Merge(pt.Sinks[t].(*JoinBuildSink).Table)
	}
	if pool != nil {
		for t := range pt.Sinks {
			js := pt.Sinks[t].(*JoinBuildSink)
			scratch := append(append([]*object.Page(nil), pt.Ctxs[t].Out.Sealed...), pt.Ctxs[t].Out.Live)
			for _, p := range scratch {
				if p != nil && !js.References(p) {
					pool.Put(p)
				}
			}
		}
	}
	return table
}
