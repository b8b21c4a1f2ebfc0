package engine

import (
	"math"
	"sort"
	"testing"

	"repro/internal/object"
)

// TestSortKeyFloatTotalOrder pins the float column's total order: -0.0 ties
// with +0.0, and every NaN — either sign, any payload — is one key that
// sorts after +Inf ascending and first descending, so NaN rows keep their
// arrival order instead of landing on both ends of the run.
func TestSortKeyFloatTotalOrder(t *testing.T) {
	nanA := math.Float64frombits(0x7FF8_0000_0000_00A1)
	nanB := math.Float64frombits(0xFFF0_0000_0000_0B02) // negative, signalling, other payload
	if !math.IsNaN(nanA) || !math.IsNaN(nanB) {
		t.Fatal("test NaNs are not NaN")
	}
	vals := []object.Value{
		object.Float64Value(math.Inf(-1)),         // 0
		object.Float64Value(-1),                   // 1
		object.Float64Value(math.Copysign(0, -1)), // 2
		object.Float64Value(0),                    // 3
		object.Float64Value(1),                    // 4
		object.Float64Value(math.Inf(1)),          // 5
		object.Float64Value(nanA),                 // 6
		object.Float64Value(nanB),                 // 7
		{},                                        // 8: NULL
	}
	for _, tc := range []struct {
		desc bool
		want []int
	}{
		{false, []int{8, 0, 1, 2, 3, 4, 5, 6, 7}},
		{true, []int{6, 7, 5, 4, 2, 3, 1, 0, 8}},
	} {
		keys := make([]string, len(vals))
		for i, v := range vals {
			key, err := EncodeSortKey([]object.Value{v}, []bool{tc.desc})
			if err != nil {
				t.Fatal(err)
			}
			keys[i] = key
		}
		if keys[2] != keys[3] {
			t.Errorf("desc=%v: -0.0 and +0.0 encode differently", tc.desc)
		}
		if keys[6] != keys[7] {
			t.Errorf("desc=%v: NaNs with different sign and payload encode differently", tc.desc)
		}
		got := make([]int, len(vals))
		for i := range got {
			got[i] = i
		}
		sort.SliceStable(got, func(a, b int) bool { return keys[got[a]] < keys[got[b]] })
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("desc=%v: order %v, want %v", tc.desc, got, tc.want)
				break
			}
		}
	}
}

// sortTestRows builds n {id int64} objects on as many pages as they need
// and returns their handles.
func sortTestRows(t testing.TB, reg *object.Registry, n int) (*object.TypeInfo, RefCol) {
	t.Helper()
	rec := object.NewStruct("SortTestRec").AddField("id", object.KInt64).MustBuild(reg)
	pages, err := object.BuildPages(reg, 1<<16, n, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err == nil {
			object.SetI64(r, rec.Field("id"), int64(i))
		}
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	refs := make(RefCol, 0, n)
	for _, p := range pages {
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			refs = append(refs, root.HandleAt(i))
		}
	}
	return rec, refs
}

// sortTestKey is a cheap deterministic scramble: many duplicates, no order.
func sortTestKey(i int) int64 { return int64(uint32(i)*2654435761) % 1000 }

// TestSortKeyAgreesAcrossStringForms: a string key encodes from its contents,
// whether the Value holds a Go string or views a string object on a page —
// empty, embedded 0x00 and 0xFF included, a nil handle being the empty
// string — in both directions.
func TestSortKeyAgreesAcrossStringForms(t *testing.T) {
	reg := object.NewRegistry()
	a := object.NewAllocator(object.NewPage(1<<12, reg))
	for _, s := range []string{"", "\x00", "a", "a\x00", "a\x00b", "ab", "a\xff", "\xff", "pliny"} {
		r, err := object.MakeString(a, s)
		if err != nil {
			t.Fatal(err)
		}
		forms := []object.Value{object.StringRefValue(r)}
		if s == "" {
			forms = append(forms, object.StringRefValue(object.NilRef))
		}
		for _, desc := range [][]bool{{false}, {true}} {
			want, err := AppendSortKey(nil, []object.Value{object.StringValue(s)}, desc)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range forms {
				got, err := AppendSortKey(nil, []object.Value{v}, desc)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(want) {
					t.Errorf("%q desc=%v: handle-backed key %x, Go-backed key %x", s, desc[0], got, want)
				}
			}
		}
	}
}

// TestSortMergerDrainAllocatesNothing is the guard on the merge: the
// cluster consumer hands the merger one lane per delivered page, and a step
// must cost no Go object however many lanes there are.
func TestSortMergerDrainAllocatesNothing(t *testing.T) {
	const lanes, perLane = 64, 40
	reg := object.NewRegistry()
	_, refs := sortTestRows(t, reg, lanes*perLane)
	ti := SortRowType(reg)
	runs := make([][]*object.Page, lanes)
	for l := range runs {
		out, err := NewRunPageSet(reg, 1<<16, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < perLane; j++ { // ascending within the lane
			i := l*perLane + j
			key, err := EncodeSortKey([]object.Value{object.Int64Value(int64(j*7 + l%5))}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := AppendSortRow(out, ti, key, refs[i], object.Int64Value(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if runs[l] = out.Pages(); len(runs[l]) != 1 {
			t.Fatalf("lane %d spans %d pages, want 1", l, len(runs[l]))
		}
	}
	// AllocsPerRun calls the drain once more than it measures; each call
	// drains a merger built beforehand.
	const runsMeasured = 5
	mergers := make([]*SortMerger, runsMeasured+1)
	for i := range mergers {
		mergers[i] = NewSortMerger(reg, runs, 0)
	}
	rows, drained := 0, 0
	allocs := testing.AllocsPerRun(runsMeasured, func() {
		m := mergers[drained]
		drained++
		for rows = 0; ; rows++ {
			if _, _, _, ok := m.NextRow(); !ok {
				break
			}
		}
	})
	if rows != lanes*perLane {
		t.Fatalf("drained %d rows, want %d", rows, lanes*perLane)
	}
	if allocs != 0 {
		t.Errorf("draining %d rows over %d lanes allocated %v objects, want 0", rows, lanes, allocs)
	}
}

// TestSortSinkConsumeAllocations is the guard on the producer leaf: keys go
// into the arena and rows into parallel slices, so buffering costs only the
// amortised growth of those — far under one object per row.
func TestSortSinkConsumeAllocations(t *testing.T) {
	const batches, perBatch = 50, 512
	reg := object.NewRegistry()
	_, refs := sortTestRows(t, reg, perBatch)
	keys, tie := make(I64Col, perBatch), make(F64Col, perBatch)
	for i := range keys {
		keys[i], tie[i] = sortTestKey(i), float64(i%3)
	}
	vl, err := NewVectorList([]string{"k", "f", "obj"}, []Column{keys, tie, refs})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		sink, err := NewSortSink(reg, 1<<16, []string{"k", "f"}, "obj", "", []bool{false, true}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			if err := sink.Consume(nil, vl, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perRow := allocs / (batches * perBatch); perRow >= 0.05 {
		t.Errorf("Consume allocated %.4f objects per row (%v over %d rows), want < 0.05",
			perRow, allocs, batches*perBatch)
	}
}

// TestTopKSinkMemoryIsBounded is the guard on top-k: whatever the input
// size, the sink holds Limit key slots and Limit rows — rejected rows are
// compared from scratch and never stored — and still emits exactly the
// stable sort's first Limit rows.
func TestTopKSinkMemoryIsBounded(t *testing.T) {
	const n, limit, perBatch = 100_000, 25, 1000
	reg := object.NewRegistry()
	rec, refs := sortTestRows(t, reg, n)
	sink, err := NewSortSink(reg, 1<<16, []string{"k"}, "obj", "", nil, limit, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < n; lo += perBatch {
		keys := make(I64Col, perBatch)
		for i := range keys {
			keys[i] = sortTestKey(lo + i)
		}
		vl, err := NewVectorList([]string{"k", "obj"}, []Column{keys, refs[lo : lo+perBatch]})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Consume(nil, vl, nil); err != nil {
			t.Fatal(err)
		}
	}
	const keyLen = 10 // presence, tag, 8 payload bytes
	held := cap(sink.arena) + cap(sink.scratch)
	for _, slot := range sink.slots {
		held += cap(slot)
	}
	if len(sink.slots) != limit || held > 4*keyLen*(limit+1) {
		t.Errorf("top-k holds %d key slots and %d key bytes after %d rows, want %d slots and O(%d) bytes",
			len(sink.slots), held, n, limit, keyLen*limit)
	}
	for name, c := range map[string]int{"objs": cap(sink.objs), "arrival": cap(sink.arrival), "order": cap(sink.order)} {
		if c > 2*limit+8 {
			t.Errorf("top-k %s capacity %d after %d rows, want O(%d)", name, c, n, limit)
		}
	}

	if err := sink.Finish(); err != nil {
		t.Fatal(err)
	}
	want := make([]int, n)
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(a, b int) bool { return sortTestKey(want[a]) < sortTestKey(want[b]) })
	m := NewSortMerger(reg, [][]*object.Page{sink.Pages()}, 0)
	for i := 0; ; i++ {
		_, obj, _, ok := m.NextRow()
		if !ok {
			if i != limit {
				t.Fatalf("top-k emitted %d rows, want %d", i, limit)
			}
			break
		}
		if id := object.GetI64(obj, rec.Field("id")); id != int64(want[i]) {
			t.Fatalf("top-k row %d is input row %d, want %d", i, id, want[i])
		}
	}
}
