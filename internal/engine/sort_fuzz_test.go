package engine

import (
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/object"
)

// fuzzSortFloats are the floats a plain byte would never spell: NaNs of
// both signs with different payloads, both infinities, both zeros, and the
// two ends of the finite range.
var fuzzSortFloats = [8]float64{
	math.Float64frombits(0x7FF8_0000_0000_00A1),
	math.Float64frombits(0xFFF0_0000_0000_0B02),
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.MaxFloat64, -math.SmallestNonzeroFloat64,
}

// fuzzSortVal decodes one key value of the given kind off the front of
// data; ok=false when data ran out. String keys deliberately admit 0x00
// bytes to exercise the encoder's terminator escaping, and half of them (by
// the header's top bit) are handle-backed: views of a string object
// allocated with a, as a member read delivers them.
func fuzzSortVal(kind int, h byte, data []byte, a *object.Allocator) (v object.Value, rest []byte, ok bool) {
	switch kind {
	case 0:
		if len(data) < 2 {
			return v, data, false
		}
		return object.Int64Value(int64(int8(data[0]))*257 + int64(data[1])), data[2:], true
	case 1:
		if len(data) < 1 {
			return v, data, false
		}
		if b := data[0]; b >= 248 {
			return object.Float64Value(fuzzSortFloats[b-248]), data[1:], true
		}
		return object.Float64Value(float64(int8(data[0])) / 4), data[1:], true
	case 2:
		n := int(h) % 4
		if len(data) < n {
			return v, data, false
		}
		if h&0x80 != 0 {
			if r, err := object.MakeStringBytes(a, data[:n]); err == nil {
				return object.StringRefValue(r), data[n:], true
			}
		}
		return object.StringValue(string(data[:n])), data[n:], true
	default:
		if len(data) < 1 {
			return v, data, false
		}
		return object.BoolValue(data[0]&1 == 1), data[1:], true
	}
}

// fuzzCmpVals is the typed ordering the encoding must reproduce: NULLs
// first, then by value (false < true, numbers numerically with -0.0 == 0 and
// every NaN equal and greatest, strings bytewise), a descending column
// inverted whole.
func fuzzCmpVals(a, b []object.Value, desc []bool) int {
	for i := range a {
		c := 0
		x, y := a[i], b[i]
		switch {
		case x.K == object.KInvalid || y.K == object.KInvalid:
			if x.K != y.K {
				c = 1
				if x.K == object.KInvalid {
					c = -1
				}
			}
		case x.K == object.KBool:
			if x.B != y.B {
				c = 1
				if y.B {
					c = -1
				}
			}
		case x.K == object.KFloat64:
			xn, yn := math.IsNaN(x.F), math.IsNaN(y.F)
			switch {
			case xn || yn:
				if xn != yn {
					c = 1
					if yn {
						c = -1
					}
				}
			case x.F < y.F:
				c = -1
			case x.F > y.F:
				c = 1
			}
		case x.K == object.KString:
			c = strings.Compare(x.Str(), y.Str())
		default:
			if x.I < y.I {
				c = -1
			} else if x.I > y.I {
				c = 1
			}
		}
		if desc[i] {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// FuzzSortMergeEquivalence drives arbitrary row sets through the real sort
// primitives — EncodeSortKey over one- and two-column keys with independent
// directions, SortRow run pages, SortMerger over 1–64 lanes (the cluster
// consumer runs one per delivered page) with empty runs and empty pages
// among them, and the limit fast path — and pins the output against
// sort.SliceStable over the same rows. Adjacent emitted rows are also
// compared by value, so the fuzz covers both halves of the contract: the
// memcomparable encoding orders exactly like the typed comparison, and the
// merge network is exactly a stable merge.
func FuzzSortMergeEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 2, 5, 1, 9, 2, 14, 3})
	f.Add([]byte{1, 3, 3, 7, 0, 200, 130, 7, 7, 1})
	f.Add([]byte{2, 1, 4, 3, 'a', 0x00, 'b', 2, 'z', 'z', 0})
	f.Add([]byte{3, 9, 1, 1, 0, 1, 1, 7})
	// 64 lanes for nine rows: most runs are empty, and the mask pads the
	// others with empty pages.
	f.Add([]byte{0, 0, 63, 0, 3, 0xA5, 1, 0, 5, 2, 0, 5, 3, 1, 1, 4, 0, 9, 5, 0, 5, 6, 2, 2, 8, 0, 5, 9, 0, 1, 10, 3, 3})
	// Two columns: ints ascending, strings descending.
	f.Add([]byte{0, 0, 2, 8 | 4 | 2, 0, 0, 1, 0, 7, 'b', 2, 0, 7, 'a', 'c', 3, 0, 7, 0x00, 'q', 'q', 5, 0, 3, 'z'})
	// Floats the byte/4 lattice never reaches: NaNs, infinities, both zeros.
	f.Add([]byte{1, 1, 2, 0, 0, 0, 1, 248, 2, 249, 3, 250, 4, 251, 5, 252, 6, 253, 8, 254, 9, 255, 10, 4, 11, 248})
	// Four runs, empty pages where mask 2 puts them.
	f.Add([]byte{0, 0, 3, 0, 5, 2, 1, 0, 4, 2, 0, 4, 3, 0, 1, 4, 0, 9, 5, 0, 4, 6, 0, 2, 8, 0, 4, 9, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		kinds := []int{int(data[0]) % 4}
		desc := []bool{data[1]&1 == 1}
		limit := int(data[1]>>1) % 24 // 0 = unbounded
		nRuns := 1 + int(data[2])%64
		if data[3]&8 != 0 { // a second key column, its own kind and direction
			kinds = append(kinds, int(data[3])&3)
			desc = append(desc, data[3]&4 != 0)
		}
		emptyMask := data[5] // data[4] is unused
		data = data[6:]

		// Decode rows: a header byte (NULL markers, run choice) plus
		// kind-specific payload bytes per column.
		type row struct {
			vals []object.Value
			id   int64
			run  int
		}
		var rows []row
		keyStrings := object.NewAllocator(object.NewPage(1<<14, nil))
	decode:
		for len(data) > 0 && len(rows) < 200 {
			h := data[0]
			data = data[1:]
			vals := make([]object.Value, len(kinds))
			for c, kind := range kinds {
				if (c == 0 && h%7 == 0) || (c == 1 && h%5 == 0) {
					continue // NULL
				}
				var ok bool
				if vals[c], data, ok = fuzzSortVal(kind, h, data, keyStrings); !ok {
					break decode
				}
			}
			rows = append(rows, row{vals: vals, id: int64(len(rows)), run: (int(h)*31 + len(rows)) % nRuns})
		}

		reg := object.NewRegistry()
		rec := object.NewStruct("FuzzSortRec").
			AddField("id", object.KInt64).
			MustBuild(reg)
		ti := SortRowType(reg)

		// Deal rows into runs, stable-sort each run by encoded key, and
		// materialize it as SortRow pages, with empty pages around it where
		// the mask says so.
		type keyed struct {
			key string
			row row
		}
		runRows := make([][]keyed, nRuns)
		for i, r := range rows {
			key, err := EncodeSortKey(r.vals, desc)
			if err != nil {
				t.Fatalf("encode row %d (%v): %v", i, r.vals, err)
			}
			runRows[r.run] = append(runRows[r.run], keyed{key: key, row: r})
		}
		emptyPage := func() *object.Page {
			out, err := NewRunPageSet(reg, 1<<10, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out.Live // a root vector with nothing in it
		}
		var runs [][]*object.Page
		for r, kr := range runRows {
			kr := kr
			sort.SliceStable(kr, func(a, b int) bool { return kr[a].key < kr[b].key })
			var pages []*object.Page
			if emptyMask>>(r%8)&1 == 1 {
				pages = append(pages, emptyPage(), object.NewPage(1<<10, reg)) // the second has no root at all
			}
			if len(kr) > 0 {
				out, err := NewRunPageSet(reg, 1<<10, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range kr {
					obj, err := out.Alloc.MakeObject(rec)
					if err != nil {
						t.Fatal(err)
					}
					object.SetI64(obj, rec.Field("id"), k.row.id)
					if err := AppendSortRow(out, ti, k.key, obj, object.Int64Value(k.row.id)); err != nil {
						t.Fatal(err)
					}
				}
				pages = append(pages, out.Pages()...)
			}
			if emptyMask>>((r+3)%8)&1 == 1 {
				pages = append(pages, emptyPage())
			}
			runs = append(runs, pages)
		}

		// Reference: the runs concatenated in run order, stable-sorted by
		// encoded key — exactly the merge's (key, run index, run position)
		// order. Truncate at the limit.
		var ref []keyed
		for _, kr := range runRows {
			ref = append(ref, kr...)
		}
		sort.SliceStable(ref, func(a, b int) bool { return ref[a].key < ref[b].key })
		if limit > 0 && len(ref) > limit {
			ref = ref[:limit]
		}

		m := NewSortMerger(reg, runs, limit)
		var got []keyed
		for {
			key, obj, val, ok := m.Next()
			if !ok {
				break
			}
			id := object.GetI64(obj, rec.Field("id"))
			if id != val.AsInt64() {
				t.Fatalf("row %d: obj id %d disagrees with carried val %d", len(got), id, val.AsInt64())
			}
			got = append(got, keyed{key: key, row: rows[id]})
		}

		if len(got) != len(ref) {
			t.Fatalf("merger emitted %d rows, reference has %d (kinds=%v desc=%v limit=%d runs=%d)",
				len(got), len(ref), kinds, desc, limit, nRuns)
		}
		for i := range got {
			if got[i].key != ref[i].key || got[i].row.id != ref[i].row.id {
				t.Fatalf("row %d: merger (key=%q id=%d) != reference (key=%q id=%d)",
					i, got[i].key, got[i].row.id, ref[i].key, ref[i].row.id)
			}
			if i == 0 {
				continue
			}
			byKey := strings.Compare(got[i-1].key, got[i].key)
			if byKey > 0 {
				t.Fatalf("row %d: emitted key order regressed", i)
			}
			if byVal := fuzzCmpVals(got[i-1].row.vals, got[i].row.vals, desc); byVal != byKey {
				t.Fatalf("row %d: keys compare %d but values %v, %v (desc=%v) compare %d",
					i, byKey, got[i-1].row.vals, got[i].row.vals, desc, byVal)
			}
		}
	})
}
