package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/storage"
)

// TestCheckpointCrashesRestoreTheInstalledCut drives one memory-mode
// worker's aggregation merge through its real recovery wiring
// (aggCheckpointer, persistAggCheckpoint, loadAggCheckpoint) with two
// fault.Checkpoint crashes. The first lands on cut K+1, after the merge
// wrote that cut into the record's spare generation: the restore must
// return cut K's number and bytes. The second lands after the merge
// resumed from cut K — at its first cut, or one cut later — and the
// restore must again return the cut installed last. A third life must end
// on the uncrashed run's sub-map pages.
func TestCheckpointCrashesRestoreTheInstalledCut(t *testing.T) {
	reg := object.NewRegistry()
	spec := &engine.AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	const threads, interval, mergePage, keys = 2, 2, 1 << 14, 100
	var pages []*object.Page
	for i := 0; i < 12; i++ {
		sink, err := engine.NewAggSink(reg, 1<<14, 1, spec, "key", "val", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		k, v := make(engine.I64Col, keys), make(engine.I64Col, keys)
		for j := range k {
			k[j], v[j] = int64(j*7919), int64(i*keys+j)
		}
		if err := sink.Consume(nil, &engine.VectorList{Names: []string{"key", "val"}, Cols: []engine.Column{k, v}}, nil); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, sink.Pages()...)
	}
	store, err := storage.NewServer("", reg)
	if err != nil {
		t.Fatal(err)
	}
	env := &workerEnv{workers: 1, threads: threads, pageSize: 1 << 12, reg: reg, store: store,
		pool: object.NewPagePool(1 << 12)}
	// life runs one incarnation of the consumer's merge over rec and returns
	// its sub-map pages, or the injected crash it died of.
	life := func(rec *aggRecovery) (out []*object.Page, crash any) {
		defer func() { crash = recover() }()
		ckptr, err := env.aggCheckpointer(rec, nil, interval, func(int) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		from := 0
		if ckptr.Resume != nil {
			from = ckptr.Resume.Cut
		}
		_, out, err = engine.MergeAggMapsStream(reg, engine.SliceSource(pages[from:]), 0, 1, spec,
			mergePage, nil, threads, ckptr)
		if err != nil {
			t.Fatal(err)
		}
		return out, nil
	}
	// installed asserts that a restore returns want: its cut and its bytes.
	installed := func(what string, rec *aggRecovery, want *engine.MergeCheckpoint) {
		t.Helper()
		got, err := env.loadAggCheckpoint(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got == nil {
			t.Fatalf("%s: nothing restored, want cut %d", what, want.Cut)
		}
		if got.Cut != want.Cut {
			t.Fatalf("%s: restored cut %d, want cut %d", what, got.Cut, want.Cut)
		}
		for i, s := range got.Subs {
			if s.PageSize != want.Subs[i].PageSize || !bytes.Equal(s.Data, want.Subs[i].Data) {
				t.Fatalf("%s: sub-map %d restored other bytes than cut %d's", what, i, want.Cut)
			}
		}
	}

	// The uncrashed run, every installed cut copied as it lands.
	ref := &aggRecovery{produces: "mat:ref"}
	var cuts []*engine.MergeCheckpoint
	env.afterSave = func() {
		ck := &engine.MergeCheckpoint{Cut: ref.ckpt.Cut}
		for _, s := range ref.ckpt.Subs {
			ck.Subs = append(ck.Subs, engine.SubMapSnapshot{PageSize: s.PageSize, Data: bytes.Clone(s.Data)})
		}
		cuts = append(cuts, ck)
	}
	clean, crash := life(ref)
	if crash != nil {
		t.Fatal(crash)
	}
	env.afterSave = nil
	for i, pg := range clean {
		if len(pg.Data) != mergePage {
			t.Fatalf("sub-map %d grew; the test wants generations whose buffers are reused", i)
		}
	}

	const k = 2 // the first crash lands on cut index k+1: cut k is installed
	for _, later := range []int{0, 1} {
		what := fmt.Sprintf("second crash %d cut(s) after the resume", later)
		env.fault = fault.NewPlan(
			fault.Injection{Site: fault.Checkpoint, Worker: 0, K: k + 1},
			fault.Injection{Site: fault.Checkpoint, Worker: 0, K: k + 2 + later})
		rec := &aggRecovery{produces: "mat:agg"}
		if _, crash := life(rec); crash == nil {
			t.Fatalf("%s: the first crash never fired", what)
		}
		installed(what+", first crash", rec, cuts[k])
		if _, crash := life(rec); crash == nil {
			t.Fatalf("%s: the second crash never fired", what)
		}
		installed(what+", second crash", rec, cuts[k+later])
		got, crash := life(rec)
		if crash != nil {
			t.Fatalf("%s: %v", what, crash)
		}
		for i := range clean {
			if !bytes.Equal(got[i].Bytes(), clean[i].Bytes()) {
				t.Fatalf("%s: sub-map %d differs from the uncrashed run", what, i)
			}
		}
	}
}
