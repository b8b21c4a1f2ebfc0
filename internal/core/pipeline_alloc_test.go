package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/object"
	"repro/internal/race"
	"repro/internal/tcap"
)

// memberAggPipeline builds the plan shape of a group-by over two int64
// members — a fused member → member run feeding a typed sum AggSink — over
// pages of rows objects each, with its own Ctx, as one executor thread runs
// it.
func memberAggPipeline(t *testing.T, pages, rows int) (*engine.Pipeline, *engine.Ctx, []engine.PageRange) {
	t.Helper()
	reg := object.NewRegistry()
	ti := object.NewStruct("Pair").AddField("k", object.KInt64).AddField("v", object.KInt64).MustBuild(reg)
	var src []*object.Page
	for p := 0; p < pages; p++ {
		built, err := object.BuildPages(reg, 1<<20, rows, func(a *object.Allocator, i int) (object.Ref, error) {
			r, err := a.MakeObject(ti)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(r, ti.Field("k"), int64(i%64))
			object.SetI64(r, ti.Field("v"), int64(i))
			return r, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		src = append(src, built...)
	}
	stages := engine.NewStageRegistry()
	stages.Register("Agg", "k", memberKernel("k"))
	stages.Register("Agg", "v", memberKernel("v"))
	stmts := []*tcap.Stmt{
		{Op: tcap.OpApply, Comp: "Agg", Stage: "k",
			Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"obj"}},
			Copied:  tcap.ColumnsRef{Name: "in", Cols: []string{"obj"}},
			Out:     tcap.ColumnsRef{Name: "s1", Cols: []string{"obj", "key"}}},
		{Op: tcap.OpApply, Comp: "Agg", Stage: "v",
			Applied: tcap.ColumnsRef{Name: "s1", Cols: []string{"obj"}},
			Copied:  tcap.ColumnsRef{Name: "s1", Cols: []string{"key"}},
			Out:     tcap.ColumnsRef{Name: "s2", Cols: []string{"key", "val"}}},
	}
	var stats engine.Stats
	spec := &engine.AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	sink, err := engine.NewAggSink(reg, 1<<20, 2, spec, "key", "val", nil, &stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := engine.NewSinkCtx(sink, reg, nil, 1<<20, nil, &stats)
	if err != nil {
		t.Fatal(err)
	}
	p := &engine.Pipeline{Stmts: stmts, Reg: stages, Sink: sink,
		SinkStmt: &tcap.Stmt{Op: tcap.OpAggregate}}
	return p, ctx, engine.BatchRanges(src, engine.BatchSize)
}

// TestPipelineSteadyStateAllocatesNothing is the guard on the per-thread
// scratch: once a thread has run one batch, a further batch through a fused
// member → member run into a typed aggregation costs no Go object — the
// kernels' output columns, the fused pass's headers and the projection are
// reused — and a scan's allocations do not grow with its batch count.
func TestPipelineSteadyStateAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, ctx, ranges := memberAggPipeline(t, 4, 1024)
	if len(ranges) != 16 {
		t.Fatalf("%d batches, want 16", len(ranges))
	}
	var batch *engine.VectorList
	if err := engine.ScanRanges(ranges[:1], "obj", func(vl *engine.VectorList) error {
		batch = &engine.VectorList{Names: vl.Names, Cols: []engine.Column{append(engine.RefCol(nil), vl.Cols[0].(engine.RefCol)...)}}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.RunBatch(ctx, batch); err != nil { // warm: scratch sized, every key inserted
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.RunBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a warm %d-row batch allocated %v objects, want 0", batch.Rows(), allocs)
	}

	scan := func(rs []engine.PageRange) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := engine.ScanRanges(rs, "obj", func(vl *engine.VectorList) error {
				return p.RunBatch(ctx, vl)
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := scan(ranges[:4]), scan(ranges); many != few {
		t.Errorf("a scan of %d batches allocated %v objects, of 4 batches %v: want the same", len(ranges), many, few)
	}
}
