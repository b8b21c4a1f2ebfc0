package engine

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/object"
	"repro/internal/tcap"
)

// The sizing rule for page-resident aggregation maps: a map that moves to a
// new page starts at the slot count it had reached. A rotated sink page makes
// each partition map at the count the map reached on the page before, halved
// only when the page cannot hold them with rotateAt of headroom; a regrown
// merge sub-map starts at the count its faulted update needed.

// sinkPage is one page of a sink's stream: the slot counts its maps started
// at and reached, its entries, and the sink's rehash count when it sealed.
type sinkPage struct {
	start, end []int
	entries    int
	resizes    int
}

func mapSlots(p *object.Page, parts int) (slots []int, entries int) {
	root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
	for i := 0; i < parts; i++ {
		m := object.AsMap(root.HandleAt(i))
		slots = append(slots, m.Slots())
		entries += m.Len()
	}
	return slots, entries
}

// logSinkPages feeds the rows to sink one row per batch and returns its
// streamed pages, sealed ones and the closed last one. A page's start counts
// are read after its first row, which cannot grow an empty map, and its end
// counts as it seals.
func logSinkPages(t *testing.T, sink *AggSink, stats *Stats, vl *VectorList) ([]sinkPage, []*object.Page) {
	t.Helper()
	var log []sinkPage
	var pages []*object.Page
	sink.Out.OnSeal = func(p *object.Page) error {
		cur := &log[len(log)-1]
		cur.end, cur.entries = mapSlots(p, sink.Partitions)
		cur.resizes = stats.HashResizes
		pages = append(pages, p)
		return nil
	}
	ctx := &Ctx{Reg: sink.Out.Reg, Out: sink.Out, Stats: stats}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate, Applied: tcap.ColumnsRef{Name: "in", Cols: vl.Names}}
	var live *object.Page
	for i := 0; i < vl.Rows(); i++ {
		if err := sink.Consume(ctx, vl.GatherAll([]int{i}), stmt); err != nil {
			t.Fatal(err)
		}
		if sink.Out.Live != live {
			live = sink.Out.Live
			start, _ := mapSlots(live, sink.Partitions)
			log = append(log, sinkPage{start: start})
		}
	}
	if err := sink.CloseStream(); err != nil {
		t.Fatal(err)
	}
	return log, pages
}

// distinctI64Rows is a high-cardinality stream: n distinct int64 keys, each
// with value 1, as typed columns (the value column of valKind).
func distinctI64Rows(n int, valKind object.Kind) *VectorList {
	keys := make(I64Col, n)
	for i := range keys {
		keys[i] = int64(i)*7919 + 3
	}
	var vals Column
	if valKind == object.KFloat64 {
		f := make(F64Col, n)
		for i := range f {
			f[i] = 1
		}
		vals = f
	} else {
		v := make(I64Col, n)
		for i := range v {
			v[i] = 1
		}
		vals = v
	}
	return &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
}

// TestAggSinkRotatedPageKeepsSlotCounts streams distinct int64 keys through
// a sink on small pages, on the typed fold and on the boxed update. Every
// page after the first makes its maps at the slot counts the page before
// reached, so only the first page climbs the doubling chain: a later page
// rehashes at most once.
func TestAggSinkRotatedPageKeepsSlotCounts(t *testing.T) {
	for _, typed := range []bool{true, false} {
		t.Run(fmt.Sprintf("typed=%v", typed), func(t *testing.T) {
			reg := object.NewRegistry()
			spec := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
			if !typed {
				spec = &AggSpec{KeyKind: object.KInt64, ValKind: object.KFloat64, Combine: sumCombine}
			}
			const parts, n = 2, 12000
			stats := &Stats{}
			sink, err := NewAggSink(reg, 1<<14, parts, spec, "key", "val", nil, stats)
			if err != nil {
				t.Fatal(err)
			}
			log, _ := logSinkPages(t, sink, stats, distinctI64Rows(n, spec.ValKind))
			if len(log) < 5 {
				t.Fatalf("%d pages: the stream is too short to rotate", len(log))
			}
			for i, pg := range log {
				for p, s := range pg.start {
					want := 8
					if i > 0 {
						want = log[i-1].end[p]
					}
					if s != want {
						t.Fatalf("page %d map %d starts at %d slots, want %d (page before: %v)", i, p, s, want, log[max(i-1, 0)].end)
					}
				}
			}
			chain := log[0].resizes
			if limit := chain + len(log) - 1; stats.HashResizes > limit {
				t.Errorf("%d rehashes over %d pages; the first page's chain is %d, so at most %d",
					stats.HashResizes, len(log), chain, limit)
			}
			entries := 0
			for _, pg := range log {
				entries += pg.entries
			}
			if entries != n {
				t.Errorf("%d entries on the pages, want one per distinct key (%d)", entries, n)
			}
		})
	}
}

// TestAggSinkPresizeFitsTinyPages streams into many partitions on a tiny
// page, where the counts one page reaches cannot all fit on the next beside
// rotateAt of headroom. The sink halves them until they fit, so no page
// holds a single row, and the merged result is a Go map's.
func TestAggSinkPresizeFitsTinyPages(t *testing.T) {
	reg := object.NewRegistry()
	spec := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	const parts, n, distinct = 8, 6000, 1500
	keys, vals := make(I64Col, n), make(I64Col, n)
	want := map[int64]int64{}
	for i := range keys {
		keys[i] = int64(i%distinct)*7919 + 3
		vals[i] = int64(i % 5)
		want[keys[i]] += vals[i]
	}
	vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
	stats := &Stats{}
	sink, err := NewAggSink(reg, 1<<12, parts, spec, "key", "val", nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	log, pages := logSinkPages(t, sink, stats, vl)
	presized, halved := false, false
	for i, pg := range log {
		if pg.entries < 8 {
			t.Fatalf("page %d of %d holds %d entries: the sink rotates per row", i, len(log), pg.entries)
		}
		if i == 0 {
			continue
		}
		for p, s := range pg.start {
			presized = presized || s > 8
			halved = halved || s < log[i-1].end[p]
		}
	}
	if !presized || !halved {
		t.Errorf("presized=%v halved=%v over %d pages: want later pages presized, and some halved to fit",
			presized, halved, len(log))
	}
	got := map[int64]int64{}
	for part := 0; part < parts; part++ {
		finals, _, err := MergeAggMapsStream(reg, SliceSource(pages), part, parts, spec, 1<<12, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		finals[0].Iterate(func(k, v object.Value) bool {
			got[k.I] = v.AsInt64()
			return true
		})
	}
	if len(got) != len(want) {
		t.Fatalf("merged %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d merged to %d, want %d", k, got[k], v)
		}
	}
}

// TestRegrownSubMapKeepsEntriesWithoutRehash drives a sub-merger's update to
// each page fault and regrows it. The grown map must hold exactly the
// outgrown map's entries at the slot count the faulted update needed:
// double the old count when the update faulted on its rehash, the old count
// when a string value's allocation faulted. The grown page must equal a
// map made at that count and filled by Put in the outgrown map's slot
// order, so the copy rehashed nothing.
func TestRegrownSubMapKeepsEntriesWithoutRehash(t *testing.T) {
	last := func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
		return next, nil
	}
	cases := []struct {
		name string
		spec *AggSpec
		row  func(i int) (object.Value, object.Value)
	}{
		{"typed", &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum},
			func(i int) (object.Value, object.Value) {
				return object.Int64Value(int64(i) * 7919), object.Int64Value(int64(i))
			}},
		// A new key every third row, and a fresh string value on every
		// row: most faults are the value's allocation, some the rehash.
		{"boxed", &AggSpec{KeyKind: object.KString, ValKind: object.KString, Combine: last},
			func(i int) (object.Value, object.Value) {
				return object.StringValue(fmt.Sprintf("key-%05d", i/3)),
					object.StringValue(fmt.Sprintf("value-%07d", i))
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := object.NewRegistry()
			m, err := newSubMerger(reg, 0, 1, c.spec, 1<<12, nil, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			attempt := func(key, val object.Value) error {
				if m.typed {
					_, err := m.slots.Fold(m.a, object.HashInt64(key.I), key.I, uint64(val.I), c.spec.Fold)
					return err
				}
				_, err := updateAggEntry(m.final, m.a, key, val, m.combine, nil)
				return err
			}
			var onRehash, onValue int
			for i := 0; onRehash+onValue < 4; i++ {
				if i == 1<<20 {
					t.Fatal("the sub-map never regrew four times")
				}
				key, val := c.row(i)
				err := attempt(key, val)
				if err == nil {
					continue
				}
				if !errors.Is(err, object.ErrPageFull) {
					t.Fatal(err)
				}
				old, oldPage := m.final, m.pg
				want := old.Slots()
				if due := (old.Len()+1)*10 >= want*7; due {
					want *= 2
					onRehash++
				} else {
					onValue++
				}
				if err := m.grow(); err != nil {
					t.Fatal(err)
				}
				if m.pg == oldPage || m.final.Slots() != want || m.final.Len() != old.Len() {
					t.Fatalf("row %d: regrown to %d slots and %d entries, want %d slots and the outgrown map's %d",
						i, m.final.Slots(), m.final.Len(), want, old.Len())
				}
				ref := object.NewPage(len(m.pg.Data), reg)
				ra := object.NewAllocator(ref)
				rm, err := object.MakeMap(ra, c.spec.KeyKind, c.spec.ValKind, want)
				if err != nil {
					t.Fatal(err)
				}
				rm.Retain()
				ref.SetRoot(rm.Off)
				old.Iterate(func(k, v object.Value) bool {
					err = rm.Put(ra, k, v)
					return err == nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(m.pg.Bytes(), ref.Bytes()) {
					t.Fatalf("row %d: the regrown page differs from Put into a %d-slot map: the copy rehashed", i, want)
				}
				if err := attempt(key, val); err != nil {
					t.Fatalf("row %d: the retry on the regrown page failed: %v", i, err)
				}
			}
			if c.name == "boxed" && onValue == 0 {
				t.Errorf("no regrow was a value allocation's fault (%d were the rehash's)", onRehash)
			}
		})
	}
}

// TestMergeReplayAfterRegrowIsBitIdentical merges a stream that regrows the
// sub-maps at least twice, then replays it from page 0 onto fresh mergers
// drawing recycled pages from the pool a crashed merge left them in. The
// replay's sub-map pages must equal the uninterrupted merge's byte for byte:
// the invariant consumer recovery rests on.
func TestMergeReplayAfterRegrowIsBitIdentical(t *testing.T) {
	const parts, pageSize = 2, 1 << 10
	reg := object.NewRegistry()
	typedSpec := &AggSpec{KeyKind: object.KInt64, ValKind: object.KInt64, Fold: object.FoldSum}
	sink, err := NewAggSink(reg, 1<<14, parts, typedSpec, "key", "val", nil, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate, Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}
	if err := sink.Consume(&Ctx{Reg: reg, Out: sink.Out}, distinctI64Rows(6000, object.KInt64), stmt); err != nil {
		t.Fatal(err)
	}
	streams := []struct {
		name  string
		spec  *AggSpec
		pages []*object.Page
	}{
		{"typed", typedSpec, sink.Pages()},
		{"boxed", &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine},
			buildAggPages(t, reg, parts, 6000, 600, 1<<12)},
	}
	for _, s := range streams {
		for _, threads := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/t=%d", s.name, threads), func(t *testing.T) {
				for part := 0; part < parts; part++ {
					_, whole, err := MergeAggMapsStream(reg, SliceSource(s.pages), part, parts, s.spec, pageSize, nil, threads)
					if err != nil {
						t.Fatal(err)
					}
					for i, pg := range whole {
						if len(pg.Data) < 4*pageSize {
							t.Fatalf("part %d sub %d ends on a %d-byte page: fewer than two regrows", part, i, len(pg.Data))
						}
					}
					// The crashed merge folds half the stream and its
					// pages go back to the pool the replay draws from.
					pool := object.NewPagePool(pageSize)
					_, crashed, err := MergeAggMapsStream(reg, SliceSource(s.pages[:len(s.pages)/2]), part, parts, s.spec, pageSize, pool, threads)
					if err != nil {
						t.Fatal(err)
					}
					for _, pg := range crashed {
						pool.Put(pg)
					}
					_, replayed, err := MergeAggMapsStream(reg, SliceSource(s.pages), part, parts, s.spec, pageSize, pool, threads)
					if err != nil {
						t.Fatal(err)
					}
					for i := range whole {
						if !bytes.Equal(whole[i].Bytes(), replayed[i].Bytes()) {
							t.Fatalf("part %d sub %d: the replayed sub-map page differs from the uninterrupted merge's", part, i)
						}
					}
				}
			})
		}
	}
}
