package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/object"
)

// buildAggMapPages pre-aggregates n (key, val) rows through an AggSink with
// the given partition count, returning the resulting map pages — the input
// the consuming stage receives from the shuffle.
func buildAggMapPages(t *testing.T, reg *object.Registry, n, partitions int) []*object.Page {
	t.Helper()
	sum := func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
		if !exists {
			return next, nil
		}
		return object.Int64Value(cur.I + next.I), nil
	}
	sink, err := NewAggSink(reg, 1<<14, partitions, &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Combine: sum}, "k", "v", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 128
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		keys := make(I64Col, 0, end-start)
		vals := make(I64Col, 0, end-start)
		for i := start; i < end; i++ {
			keys = append(keys, int64(i%97))
			vals = append(vals, int64(i))
		}
		vl := &VectorList{}
		vl.Append("k", keys)
		vl.Append("v", vals)
		if err := sink.Consume(nil, vl, nil); err != nil {
			t.Fatal(err)
		}
	}
	return sink.Pages()
}

// TestMergeAggMapsStreamThreadsDeterministic merges and finalizes the same
// pre-aggregated pages at several thread counts and demands the identical
// group multiset: hash-range sub-partitioning must neither drop, duplicate,
// nor split a key, and integer sums must be bit-identical.
func TestMergeAggMapsStreamThreadsDeterministic(t *testing.T) {
	const n, partitions = 5000, 2
	reg := object.NewRegistry()
	outTi := object.NewStruct("MergeOut").
		AddField("k", object.KInt64).
		AddField("v", object.KInt64).
		MustBuild(reg)
	spec := &AggSpec{
		KeyKind: object.KInt64,
		ValKind: object.KInt64,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Int64Value(cur.I + next.I), nil
		},
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			r, err := a.MakeObject(outTi)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(r, outTi.Field("k"), key.I)
			object.SetI64(r, outTi.Field("v"), val.I)
			return r, nil
		},
	}
	pages := buildAggMapPages(t, reg, n, partitions)

	// Ground truth computed directly.
	wantSums := map[int64]int64{}
	for i := 0; i < n; i++ {
		wantSums[int64(i%97)] += int64(i)
	}

	var want []string
	for _, threads := range []int{1, 2, 8} {
		var rows []string
		for part := 0; part < partitions; part++ {
			finals, mergePages, err := MergeAggMapsStream(reg, SliceSource(pages), part, partitions, spec, 1<<14, nil, threads)
			if err != nil {
				t.Fatalf("threads=%d part=%d: %v", threads, part, err)
			}
			if len(mergePages) != len(finals) {
				t.Fatalf("threads=%d: %d sub-maps on %d pages", threads, len(finals), len(mergePages))
			}
			// Guard against sub-partitioning that correlates with the
			// partition routing: the merge work must actually spread, so
			// at least two threads' sub-maps must be non-empty.
			if threads > 1 {
				nonEmpty := 0
				for _, m := range finals {
					n := 0
					m.Iterate(func(_, _ object.Value) bool { n++; return false })
					if n > 0 {
						nonEmpty++
					}
				}
				if nonEmpty < 2 {
					t.Fatalf("threads=%d part=%d: only %d non-empty sub-maps (sub-partitioning degenerated)", threads, part, nonEmpty)
				}
			}
			out, err := FinalizeAggParallel(reg, finals, spec, 1<<14, nil, nil)
			if err != nil {
				t.Fatalf("threads=%d part=%d: %v", threads, part, err)
			}
			for _, p := range out {
				if p.Root() == 0 {
					continue
				}
				root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
				for i := 0; i < root.Len(); i++ {
					r := root.HandleAt(i)
					rows = append(rows, fmt.Sprintf("%d=%d",
						object.GetI64(r, outTi.Field("k")), object.GetI64(r, outTi.Field("v"))))
				}
			}
		}
		if len(rows) != len(wantSums) {
			t.Fatalf("threads=%d: %d groups, want %d", threads, len(rows), len(wantSums))
		}
		sort.Strings(rows)
		if want == nil {
			want = rows
			for k, v := range wantSums {
				got := fmt.Sprintf("%d=%d", k, v)
				idx := sort.SearchStrings(rows, got)
				if idx >= len(rows) || rows[idx] != got {
					t.Fatalf("threads=%d: missing or wrong group %s", threads, got)
				}
			}
			continue
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("threads=%d: groups differ from threads=1:\n%v\nvs\n%v", threads, rows, want)
		}
	}
}
