package engine

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/object"
	"repro/internal/race"
)

// typedAggFloats are the float values a typed fold must treat exactly like
// the boxed one: NaNs of both signs with different payloads, both
// infinities, both zeros, and the ends of the finite range.
var typedAggFloats = [8]float64{
	math.Float64frombits(0x7FF8_0000_0000_00A1),
	math.Float64frombits(0xFFF8_0000_0000_0B02),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// typedAggInts make int64 sums wrap around.
var typedAggInts = [4]int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, -1}

// aggDiff is one typed-vs-boxed differential: the same rows through a spec
// that declares Fold and through the same spec with the fold stripped down
// to the Combine derived from it.
type aggDiff struct {
	op       object.FoldOp
	valKind  object.Kind // KInt64 or KFloat64
	pageSize int
	parts    int
	batch    int
	keys     []int64
	vals     []uint64 // each value's 8 stored bytes
}

func (c aggDiff) specs(t testing.TB) (typed, boxed *AggSpec) {
	typed = &AggSpec{KeyKind: object.KInt64, ValKind: c.valKind, Fold: c.op}
	combine, err := typed.Combiner()
	if err != nil {
		t.Fatal(err)
	}
	return typed, &AggSpec{KeyKind: object.KInt64, ValKind: c.valKind, Combine: combine}
}

// valCol builds the unboxed value column of rows [lo, hi).
func (c aggDiff) valCol(lo, hi int) Column {
	if c.valKind == object.KFloat64 {
		col := make(F64Col, hi-lo)
		for i := range col {
			col[i] = math.Float64frombits(c.vals[lo+i])
		}
		return col
	}
	col := make(I64Col, hi-lo)
	for i := range col {
		col[i] = int64(c.vals[lo+i])
	}
	return col
}

// preAgg runs every row through a sink of spec, batch rows at a time.
func (c aggDiff) preAgg(spec *AggSpec, reg *object.Registry) ([]*object.Page, Stats, error) {
	var stats Stats
	sink, err := NewAggSink(reg, c.pageSize, c.parts, spec, "key", "val", nil, &stats)
	if err != nil {
		return nil, stats, err
	}
	for lo := 0; lo < len(c.keys); lo += c.batch {
		hi := min(lo+c.batch, len(c.keys))
		vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{I64Col(c.keys[lo:hi]), c.valCol(lo, hi)}}
		if err := sink.Consume(nil, vl, nil); err != nil {
			return nil, stats, err
		}
	}
	return sink.Pages(), stats, nil
}

func samePages(t testing.TB, what string, typed, boxed []*object.Page) {
	t.Helper()
	if len(typed) != len(boxed) {
		t.Fatalf("%s: typed path made %d pages, boxed path %d", what, len(typed), len(boxed))
	}
	for i := range typed {
		if !bytes.Equal(typed[i].Bytes(), boxed[i].Bytes()) {
			t.Fatalf("%s: page %d of %d differs between the typed and the boxed path", what, i, len(typed))
		}
	}
}

func sameErr(t testing.TB, what string, typed, boxed error) bool {
	t.Helper()
	if (typed == nil) != (boxed == nil) || (typed != nil && typed.Error() != boxed.Error()) {
		t.Fatalf("%s: typed path err %v, boxed path err %v", what, typed, boxed)
	}
	return typed != nil
}

// run drives both specs through pre-aggregation and the checkpointed stream
// merge (1 and 2 sub-partition mergers, a merge page small enough to grow),
// comparing every page, its full size, every checkpoint snapshot and the
// counters. It returns the typed side's pre-aggregation counters, per key
// the merged value's stored bytes, and per thread count (1, 2) whether a
// sub-merger grew its page (subMerger.grow: the typed regrow on one side,
// Iterate + Put on the other).
func (c aggDiff) run(t testing.TB) (Stats, map[int64]uint64, [2]bool) {
	t.Helper()
	reg := object.NewRegistry()
	typed, boxed := c.specs(t)
	var grew [2]bool

	tPages, tStats, tErr := c.preAgg(typed, reg)
	bPages, bStats, bErr := c.preAgg(boxed, reg)
	if sameErr(t, "pre-aggregation", tErr, bErr) {
		return tStats, nil, grew
	}
	samePages(t, "pre-aggregation", tPages, bPages)
	if tStats != bStats {
		t.Fatalf("pre-aggregation counters: typed %+v, boxed %+v", tStats, bStats)
	}

	// A sub-merger starts on the merge page size, doubled until an empty
	// map fits; a final page larger than that was grown.
	const mergePage = 1 << 9
	first, err := newSubMerger(reg, 0, c.parts, typed, mergePage, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged := map[int64]uint64{}
	for threads := 1; threads <= 2; threads++ {
		for part := 0; part < c.parts; part++ {
			merge := func(spec *AggSpec, pages []*object.Page) ([]*object.Page, []SubMapSnapshot, error) {
				var snaps []SubMapSnapshot
				ckpt := &MergeCheckpointer{Interval: 2, Save: func(ck *MergeCheckpoint) error {
					snaps = append(snaps, cloneCheckpoint(ck).Subs...)
					return nil
				}}
				_, finals, err := MergeAggMapsStream(reg, SliceSource(pages), part, c.parts, spec, mergePage, nil, threads, nil, ckpt)
				return finals, snaps, err
			}
			what := fmt.Sprintf("stream merge of partition %d on %d threads", part, threads)
			tFinals, tSnaps, tErr := merge(typed, tPages)
			bFinals, bSnaps, bErr := merge(boxed, bPages)
			if sameErr(t, what, tErr, bErr) {
				continue
			}
			samePages(t, what, tFinals, bFinals)
			for i := range tFinals {
				if len(tFinals[i].Data) != len(bFinals[i].Data) {
					t.Fatalf("%s: sub-map page %d is %d bytes typed, %d boxed", what, i, len(tFinals[i].Data), len(bFinals[i].Data))
				}
				grew[threads-1] = grew[threads-1] || len(tFinals[i].Data) > len(first.pg.Data)
			}
			if len(tSnaps) != len(bSnaps) {
				t.Fatalf("%s: %d typed snapshots, %d boxed", what, len(tSnaps), len(bSnaps))
			}
			for i := range tSnaps {
				if tSnaps[i].PageSize != bSnaps[i].PageSize || !bytes.Equal(tSnaps[i].Data, bSnaps[i].Data) {
					t.Fatalf("%s: checkpoint snapshot %d differs", what, i)
				}
			}
			if threads == 1 {
				object.AsMap(object.Ref{Page: tFinals[0], Off: tFinals[0].Root()}).Iterate(func(k, v object.Value) bool {
					if c.valKind == object.KFloat64 {
						merged[k.I] = math.Float64bits(v.F)
					} else {
						merged[k.I] = uint64(v.I)
					}
					return true
				})
			}
		}
	}
	return tStats, merged, grew
}

// typedAggRows is a deterministic row set with repeated and far-apart keys
// (negative ones and the int64 extremes among them) and every special value
// of its kind.
func typedAggRows(valKind object.Kind, n int) (keys []int64, vals []uint64) {
	for i := 0; i < n; i++ {
		k := int64(i*7919) % 97
		switch i % 11 {
		case 3:
			k = -k * 1_000_003
		case 7:
			k = math.MinInt64 + k
		}
		keys = append(keys, k)
		switch {
		case valKind == object.KFloat64 && i%5 == 0:
			vals = append(vals, math.Float64bits(typedAggFloats[(i/5)%len(typedAggFloats)]))
		case valKind == object.KFloat64:
			vals = append(vals, math.Float64bits(float64(i%41)/4-3))
		case i%5 == 0:
			vals = append(vals, uint64(typedAggInts[(i/5)%len(typedAggInts)]))
		default:
			vals = append(vals, uint64(int64(i%41)-20))
		}
	}
	return keys, vals
}

// typedAggMatchesBoxed is the typed half of TestUpdateAggEntryMatchesGetPut:
// per op and value kind, on pages small enough that batches rotate in the
// middle, rehashes hit ErrPageFull and rows are redone on a fresh page.
func typedAggMatchesBoxed(t *testing.T) {
	for _, valKind := range []object.Kind{object.KInt64, object.KFloat64} {
		for _, op := range []object.FoldOp{object.FoldSum, object.FoldMin, object.FoldMax} {
			t.Run(fmt.Sprintf("%v/%v", op, valKind), func(t *testing.T) {
				keys, vals := typedAggRows(valKind, 3000)
				c := aggDiff{op: op, valKind: valKind, pageSize: 1 << 11, parts: 3, batch: 256, keys: keys, vals: vals}
				stats, merged, grew := c.run(t)
				if stats.PagesSealed < 3 || stats.HashResizes == 0 || stats.HashProbes <= len(keys) {
					t.Errorf("counters %+v over %d rows: want mid-batch rotations, rehashes and page-full redos", stats, len(keys))
				}
				if !grew[0] || !grew[1] {
					t.Errorf("sub-map pages grew at 1 / 2 threads: %v; want both, so the regrow is compared", grew)
				}
				if valKind != object.KInt64 {
					return // float results depend on the fold order; the bytes above are the check
				}
				want := map[int64]int64{}
				for i, k := range keys {
					v := int64(vals[i])
					if cur, ok := want[k]; ok {
						switch op {
						case object.FoldSum:
							v += cur
						case object.FoldMin:
							v = min(cur, v)
						case object.FoldMax:
							v = max(cur, v)
						}
					}
					want[k] = v
				}
				if len(merged) != len(want) {
					t.Fatalf("merged %d keys, want %d", len(merged), len(want))
				}
				for k, v := range want {
					if got := int64(merged[k]); got != v {
						t.Errorf("key %d: merged %d, want %d", k, got, v)
					}
				}
			})
		}
	}
}

// FuzzTypedAggMatchesBoxed is the same differential over fuzz-chosen ops,
// kinds, page sizes, partition counts, batch sizes and rows.
func FuzzTypedAggMatchesBoxed(f *testing.F) {
	f.Add([]byte{0, 0, 2, 7, 1, 1, 9, 2, 1, 250, 3, 1, 251, 1, 2, 3})
	f.Add([]byte{4, 1, 0, 200, 5, 0, 248, 5, 0, 249, 6, 3, 252, 5, 0, 253, 7, 7, 254})
	f.Add([]byte{2, 2, 3, 1, 0, 0, 255, 0, 0, 254, 0, 0, 253, 1, 0, 252})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		c := aggDiff{
			op:       object.FoldSum + object.FoldOp(data[0]%3),
			valKind:  object.KInt64,
			pageSize: 1 << (9 + data[1]%4),
			parts:    1 + int(data[2])%4,
			batch:    1 + int(data[3])%64,
		}
		if data[0]&4 != 0 {
			c.valKind = object.KFloat64
		}
		for data = data[4:]; len(data) >= 3 && len(c.keys) < 2000; data = data[3:] {
			k := int64(int8(data[0]))*257 + int64(data[1])
			if data[0] == 0x80 {
				k = math.MinInt64 + int64(data[1])
			}
			c.keys = append(c.keys, k)
			switch b := data[2]; {
			case c.valKind == object.KFloat64 && b >= 248:
				c.vals = append(c.vals, math.Float64bits(typedAggFloats[b-248]))
			case c.valKind == object.KFloat64:
				c.vals = append(c.vals, math.Float64bits(float64(int8(b))/4))
			case b >= 252:
				c.vals = append(c.vals, uint64(typedAggInts[b-252]))
			default:
				c.vals = append(c.vals, uint64(int64(int8(b))))
			}
		}
		c.run(t)
	})
}

// partitionSums reads a sink's pages back: per key, the values of its
// entries on every page added up.
func partitionSums(pages []*object.Page, parts int) map[int64]int64 {
	sums := map[int64]int64{}
	for _, pg := range pages {
		root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
		for p := 0; p < parts; p++ {
			object.AsMap(root.HandleAt(p)).Iterate(func(k, v object.Value) bool {
				sums[k.I] += v.I
				return true
			})
		}
	}
	return sums
}

// TestFoldOverInt32ValuesTakesTheBoxedPath: a declared fold whose value is
// not 8 bytes wide has 16-byte slots, which the typed loop must not touch.
func TestFoldOverInt32ValuesTakesTheBoxedPath(t *testing.T) {
	reg := object.NewRegistry()
	spec := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt32, Fold: object.FoldSum}
	sink, err := NewAggSink(reg, 1<<12, 2, spec, "key", "val", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sink.fold != 0 {
		t.Fatal("a KInt32-valued spec was given the typed loop")
	}
	keys, vals := make(I64Col, 500), make(I64Col, 500)
	want := map[int64]int64{}
	for i := range keys {
		keys[i], vals[i] = int64(i%13), int64(i)
		want[keys[i]] += vals[i]
	}
	vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
	if err := sink.Consume(nil, vl, nil); err != nil {
		t.Fatal(err)
	}
	pages := sink.Pages()
	if got := partitionSums(pages, 2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("pre-aggregated sums %v, want %v", got, want)
	}
	total := int64(0)
	for part := 0; part < 2; part++ {
		finals, _, err := MergeAggMapsStream(reg, SliceSource(pages), part, 2, spec, 1<<12, nil, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		finals[0].Iterate(func(k, v object.Value) bool {
			if v.K != object.KInt32 || v.I != want[k.I] {
				t.Errorf("key %d merged to %v, want int32 %d", k.I, v, want[k.I])
			}
			total++
			return true
		})
	}
	if total != 13 {
		t.Errorf("merged %d keys, want 13", total)
	}
}

// TestTypedSinkTakesBoxedBatchesOnTheBoxedPath: under a typed spec only a
// batch whose columns are the spec's own kinds, unboxed, is read as raw
// values. Boxed ValCol batches and a float column feeding an int64 map go
// through the boxed writes (which convert), interleaved with typed batches
// on the same maps — growing them under the typed views — and the pages
// stay those of an all-boxed sink.
func TestTypedSinkTakesBoxedBatchesOnTheBoxedPath(t *testing.T) {
	reg := object.NewRegistry()
	typed := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	combine, err := typed.Combiner()
	if err != nil {
		t.Fatal(err)
	}
	boxed := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Combine: combine}
	var pages [2][]*object.Page
	want := map[int64]int64{}
	for s, spec := range []*AggSpec{typed, boxed} {
		sink, err := NewAggSink(reg, 1<<11, 2, spec, "key", "val", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 30; b++ {
			keys := make(I64Col, 64)
			ints, floats, vals := make(I64Col, 64), make(F64Col, 64), make(ValCol, 64)
			for i := range keys {
				keys[i] = int64((b*64 + i) % (5 + 9*b)) // the key set keeps growing: every kind of batch rehashes
				ints[i] = int64(b + i)
				floats[i] = float64(ints[i]) + 0.75 // stored truncated
				vals[i] = object.Int64Value(ints[i])
				if i%2 == 1 {
					vals[i] = object.Int32Value(int32(ints[i])) // mixed kinds: ColumnOf would keep this a ValCol
				}
				if s == 0 {
					want[keys[i]] += ints[i]
				}
			}
			valCol := []Column{ints, vals, floats}[b%3]
			vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, valCol}}
			if err := sink.Consume(nil, vl, nil); err != nil {
				t.Fatal(err)
			}
		}
		pages[s] = sink.Pages()
	}
	samePages(t, "mixed batches", pages[0], pages[1])
	if len(pages[0]) < 2 {
		t.Errorf("%d pages: the sink never rotated", len(pages[0]))
	}
	if got := partitionSums(pages[0], 2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sums %v, want %v", got, want)
	}
}

// TestTypedAggSinkAllocatesNothing is the guard on the typed loop: once the
// sink's maps hold every key, folding a batch costs no Go object — the
// loop may not buy its time with heap.
func TestTypedAggSinkAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, valKind := range []object.Kind{object.KInt64, object.KFloat64} {
		reg := object.NewRegistry()
		var stats Stats
		spec := &AggSpec{KeyKind: object.KInt64, ValKind: valKind, Fold: object.FoldSum}
		sink, err := NewAggSink(reg, 1<<20, 2, spec, "key", "val", nil, &stats)
		if err != nil {
			t.Fatal(err)
		}
		keys := make(I64Col, 4096)
		for i := range keys {
			keys[i] = int64(i % 1024)
		}
		var vals Column = make(I64Col, len(keys))
		if valKind == object.KFloat64 {
			vals = make(F64Col, len(keys))
		}
		vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
		if err := sink.Consume(nil, vl, nil); err != nil { // warm: every key inserted, every rehash done
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := sink.Consume(nil, vl, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v values: folding %d rows into a warmed sink allocated %v objects, want 0", valKind, len(keys), allocs)
		}
		if stats.PagesSealed != 0 {
			t.Errorf("%v values: the sink rotated %d times; the guard wants a steady state", valKind, stats.PagesSealed)
		}
	}
}
