package engine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/object"
	"repro/internal/tcap"
)

// buildAggPages pre-aggregates n rows over `keys` string keys into
// partitioned map pages (tiny pages force many rotations, so the stream
// has real length).
func buildAggPages(t *testing.T, reg *object.Registry, parts, n, keys, pageSize int) []*object.Page {
	t.Helper()
	stats := &Stats{}
	sink, err := NewAggSink(reg, pageSize, parts,
		&AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}, "key", "val", nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Reg: reg, Out: sink.Out, Stats: stats}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}
	kc := make(StrCol, n)
	vc := make(F64Col, n)
	for i := range kc {
		kc[i] = object.StringValue(fmt.Sprintf("key-%03d", i%keys))
		vc[i] = float64(i)
	}
	vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{kc, vc}}
	if err := sink.Consume(ctx, vl, stmt); err != nil {
		t.Fatal(err)
	}
	return sink.Pages()
}

// mergedRows folds one partition's maps and serializes the entries sorted.
func mergedRows(t *testing.T, finals []object.OMap) []string {
	t.Helper()
	var rows []string
	for _, m := range finals {
		m.Iterate(func(k, v object.Value) bool {
			rows = append(rows, fmt.Sprintf("%s=%g", k.Str(), v.F))
			return true
		})
	}
	sort.Strings(rows)
	return rows
}

// TestAggSinkKeepsSealedPagesUntilBatchFolds streams a pre-aggregation whose
// values are objects the "kernels" allocated on the sink's own live page
// (Ctx.Out is the sink's page set), through an OnSeal hook that does what
// the exchange may do the moment it is handed a page: deliver it, fold it
// and recycle it. A page that seals mid-batch still holds the values of the
// batch's later rows, so the hook must not see it before the batch is
// folded; every key must arrive on some page exactly once, with its value.
func TestAggSinkKeepsSealedPagesUntilBatchFolds(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("AggVal").AddField("a", object.KInt64).AddField("b", object.KInt64).
		AddField("c", object.KInt64).AddField("d", object.KInt64).MustBuild(reg)
	const pageSize, parts, n = 1 << 12, 2, 40
	pool := object.NewPagePool(pageSize) // the consumer's side: the sink itself draws fresh pages
	first := func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
		if exists {
			return cur, nil
		}
		return next, nil
	}
	sink, err := NewAggSink(reg, pageSize, parts, &AggSpec{KeyKind: object.KInt64, ValKind: object.KHandle, Combine: first}, "key", "val", nil, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	sealed, entries := 0, 0
	sink.Out.OnSeal = func(p *object.Page) error {
		sealed++
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < parts; i++ {
			object.AsMap(root.HandleAt(i)).Iterate(func(key, val object.Value) bool {
				entries++
				if got := object.GetI64(val.H, ti.Field("a")); got != key.AsInt64() {
					t.Errorf("key %d arrived with value %d", key.AsInt64(), got)
				}
				return true
			})
		}
		pool.Put(p)
		return nil
	}
	kc, vc := make(I64Col, n), make(RefCol, n)
	for i := range kc {
		kc[i] = int64(i)
		if vc[i], err = sink.Out.Alloc.MakeObject(ti); err != nil {
			t.Fatal(err)
		}
		object.SetI64(vc[i], ti.Field("a"), int64(i))
	}
	vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{kc, vc}}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate, Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}
	if err := sink.Consume(&Ctx{Reg: reg, Out: sink.Out}, vl, stmt); err != nil {
		t.Fatal(err)
	}
	if sealed == 0 {
		t.Fatal("no page sealed mid-batch: the batch is too small to test anything")
	}
	if err := sink.CloseStream(); err != nil {
		t.Fatal(err)
	}
	if entries != n {
		t.Errorf("%d entries reached the stream over %d pages, want %d", entries, sealed, n)
	}
}

// wantAggRows is buildAggPages' input summed per key in a Go map: the rows
// a merge of partition part must produce, sorted as mergedRows sorts them.
func wantAggRows(reg *object.Registry, parts, part, n, keys int) []string {
	sums := map[string]float64{}
	for i := 0; i < n; i++ {
		sums[fmt.Sprintf("key-%03d", i%keys)] += float64(i)
	}
	var rows []string
	for k, v := range sums {
		if LogicalKeyHash(reg, object.KString, object.StringValue(k))%uint64(parts) == uint64(part) {
			rows = append(rows, fmt.Sprintf("%s=%g", k, v))
		}
	}
	sort.Strings(rows)
	return rows
}

// TestMergeAggMapsStreamMatchesBatch merges shuffled pages at several
// thread counts; every partition's merged (key, sum) set must equal the
// per-key sums of the whole input batch.
func TestMergeAggMapsStreamMatchesBatch(t *testing.T) {
	reg := object.NewRegistry()
	const parts, n, keys = 3, 4000, 120
	spec := &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}
	pages := buildAggPages(t, reg, parts, n, keys, 1<<12)
	if len(pages) < 3 {
		t.Fatalf("want a multi-page stream, got %d pages", len(pages))
	}
	for part := 0; part < parts; part++ {
		want := wantAggRows(reg, parts, part, n, keys)
		for _, threads := range []int{1, 2, 8} {
			finals, _, err := MergeAggMapsStream(reg, SliceSource(pages), part, parts,
				spec, 1<<14, nil, threads)
			if err != nil {
				t.Fatal(err)
			}
			if got := mergedRows(t, finals); !reflect.DeepEqual(got, want) {
				t.Errorf("part %d threads=%d: merged %d rows, want the %d per-key sums", part, threads, len(got), len(want))
			}
		}
	}
}

// TestMergeAggMapsStreamGrowsOnOverflow starts the merge on a page far too
// small for the partition and relies on in-place growth (the stream cannot
// be re-scanned).
func TestMergeAggMapsStreamGrowsOnOverflow(t *testing.T) {
	reg := object.NewRegistry()
	spec := &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}
	pages := buildAggPages(t, reg, 1, 6000, 400, 1<<12)
	finals, mergePages, err := MergeAggMapsStream(reg, SliceSource(pages), 0, 1,
		spec, 1<<10, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	grown := false
	for _, pg := range mergePages {
		if len(pg.Data) > 1<<10 {
			grown = true
		}
	}
	if !grown {
		t.Fatal("expected at least one sub-map page to grow past the initial size")
	}
	if rows := mergedRows(t, finals); !reflect.DeepEqual(rows, wantAggRows(reg, 1, 0, 6000, 400)) {
		t.Fatalf("grown stream merge has %d keys, not the 400 per-key sums", len(rows))
	}
}

// TestUpdateAggEntryMatchesGetPut pins updateAggEntry's contract: its one
// probe makes the page mutations of Get + Combine + Put, byte for byte —
// for new keys and repeated ones, through slot-array growth, up to and
// including the update that overflows the page. Its "typed" subtests hold
// the typed fold to the same bytes (typedAggMatchesBoxed).
func TestUpdateAggEntryMatchesGetPut(t *testing.T) {
	t.Run("typed", typedAggMatchesBoxed)
	reg := object.NewRegistry()
	mk := func() (object.OMap, *object.Allocator) {
		pg := object.NewPage(1<<14, reg)
		a := object.NewAllocator(pg)
		m, err := object.MakeMap(a, object.KString, object.KFloat64, 8)
		if err != nil {
			t.Fatal(err)
		}
		m.Retain()
		pg.SetRoot(m.Off)
		return m, a
	}
	one, oneAlloc := mk()
	two, twoAlloc := mk()
	// Combine allocates on the page, as a handle-valued aggregate's does, so
	// its order against the growth check shows in the bytes.
	combine := func(a *object.Allocator, cur object.Value, ok bool, next object.Value) (object.Value, error) {
		if _, err := object.MakeString(a, "state"); err != nil {
			return object.Value{}, err
		}
		return sumCombine(a, cur, ok, next)
	}
	stats := &Stats{}
	for i := 0; ; i++ {
		if i == 1<<16 {
			t.Fatal("the page never overflowed")
		}
		k := i // two updates in three revisit an earlier key
		if i%3 != 0 {
			k = i / 2
		}
		key := object.StringValue(fmt.Sprintf("key-%05d", k))
		val := object.Float64Value(float64(i))
		_, errOne := updateAggEntry(one, oneAlloc, key, val, combine, stats)
		cur, ok := two.Get(key)
		nv, errTwo := combine(twoAlloc, cur, ok, val)
		if errTwo == nil {
			errTwo = two.Put(twoAlloc, key, nv)
		}
		if !bytes.Equal(one.Page.Bytes(), two.Page.Bytes()) {
			t.Fatalf("update %d: pages diverge (one-probe err %v, Get+Put err %v)", i, errOne, errTwo)
		}
		if errOne != nil || errTwo != nil {
			if !errors.Is(errOne, object.ErrPageFull) || !errors.Is(errTwo, object.ErrPageFull) {
				t.Fatalf("update %d: one-probe err %v, Get+Put err %v, want both page-full", i, errOne, errTwo)
			}
			break
		}
	}
	if stats.HashResizes == 0 || stats.HashProbes == 0 {
		t.Errorf("HashResizes = %d, HashProbes = %d: the map never grew or the gauges never counted",
			stats.HashResizes, stats.HashProbes)
	}
}
