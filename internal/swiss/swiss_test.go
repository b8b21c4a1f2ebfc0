package swiss

import (
	"math/rand"
	"testing"

	"repro/internal/object"
)

// mkRef fabricates a distinguishable ref without touching page memory —
// the tables only store and compare refs, never dereference them.
func mkRef(i int) object.Ref {
	return object.Ref{Off: uint32(i + 1)}
}

func refsEqual(a, b []object.Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// collect flattens a RefTable bucket into one slice (first, then rest).
func collect(first object.Ref, rest []object.Ref) []object.Ref {
	out := make([]object.Ref, 0, 1+len(rest))
	out = append(out, first)
	return append(out, rest...)
}

// checkAgainstRef compares every key of the reference map against the
// table, then walks Range asserting insertion order.
func checkAgainstRef(t *testing.T, rt *RefTable, ref map[uint64][]object.Ref, order []uint64) {
	t.Helper()
	if rt.Len() != len(ref) {
		t.Fatalf("Len=%d, reference has %d keys", rt.Len(), len(ref))
	}
	for h, want := range ref {
		first, rest, found := rt.Lookup(h)
		if !found {
			t.Fatalf("hash %#x missing", h)
		}
		if got := collect(first, rest); !refsEqual(got, want) {
			t.Fatalf("hash %#x: got %v want %v", h, got, want)
		}
		if rt.Count(h) != len(want) {
			t.Fatalf("hash %#x: Count=%d want %d", h, rt.Count(h), len(want))
		}
	}
	i := 0
	rt.Range(func(h uint64, first object.Ref, rest []object.Ref) bool {
		if i >= len(order) {
			t.Fatalf("Range yielded more than %d keys", len(order))
		}
		if h != order[i] {
			t.Fatalf("Range position %d: hash %#x, insertion order says %#x", i, h, order[i])
		}
		i++
		return true
	})
	if i != len(order) {
		t.Fatalf("Range yielded %d keys, want %d", i, len(order))
	}
}

// TestRefTableDifferential drives random insert streams with several key
// distributions against a map reference, crossing growth boundaries.
func TestRefTableDifferential(t *testing.T) {
	dists := []struct {
		name string
		next func(r *rand.Rand) uint64
	}{
		// Sequential small ints: the adversarial case for weak mixing.
		{"sequential", func() func(*rand.Rand) uint64 {
			n := uint64(0)
			return func(*rand.Rand) uint64 { n++; return n }
		}()},
		{"uniform", func(r *rand.Rand) uint64 { return r.Uint64() }},
		// Duplicate-heavy: 32 hot keys take most inserts.
		{"dup-skew", func(r *rand.Rand) uint64 {
			if r.Intn(10) < 9 {
				return uint64(r.Intn(32))
			}
			return r.Uint64()
		}},
		// High bits only: zero low-bit entropy before mixing.
		{"high-bits", func(r *rand.Rand) uint64 { return uint64(r.Intn(1024)) << 54 }},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			rt := NewRefTable()
			ref := map[uint64][]object.Ref{}
			var order []uint64
			for i := 0; i < 5000; i++ {
				h := d.next(r)
				rv := mkRef(i)
				rt.Add(h, rv)
				if _, ok := ref[h]; !ok {
					order = append(order, h)
				}
				ref[h] = append(ref[h], rv)
			}
			checkAgainstRef(t, rt, ref, order)
			if _, _, found := rt.Lookup(0xdeadbeefcafef00d); found {
				t.Fatal("lookup of never-inserted hash reported found")
			}
		})
	}
}

// TestRefTableGrowthBoundaries inserts exactly up to, at, and past each
// load-factor trip point and re-verifies everything after every resize.
func TestRefTableGrowthBoundaries(t *testing.T) {
	rt := NewRefTable()
	ref := map[uint64][]object.Ref{}
	var order []uint64
	lastResizes := rt.Resizes()
	for i := 0; i < 600; i++ {
		h := uint64(i) * 0x9e3779b97f4a7c15 // distinct keys
		rv := mkRef(i)
		rt.Add(h, rv)
		order = append(order, h)
		ref[h] = append(ref[h], rv)
		if rt.Resizes() != lastResizes {
			lastResizes = rt.Resizes()
			checkAgainstRef(t, rt, ref, order)
		}
	}
	if lastResizes == 0 {
		t.Fatal("600 distinct keys never triggered a resize")
	}
	checkAgainstRef(t, rt, ref, order)
}

// TestRefTableAddBucket checks the merge primitive preserves per-bucket
// order (first then rest, appended after existing refs) and copies rather
// than aliases incoming slices.
func TestRefTableAddBucket(t *testing.T) {
	src := []object.Ref{mkRef(10), mkRef(11)}
	rt := NewRefTable()
	rt.Add(7, mkRef(1))
	rt.AddBucket(7, mkRef(2), src)
	rt.AddBucket(9, mkRef(3), src)

	first, rest, _ := rt.Lookup(7)
	if got := collect(first, rest); !refsEqual(got, []object.Ref{mkRef(1), mkRef(2), mkRef(10), mkRef(11)}) {
		t.Fatalf("bucket 7 order wrong: %v", got)
	}
	src[0] = mkRef(777) // mutate the source; table must hold its own copy
	_, rest9, _ := rt.Lookup(9)
	if got := collect(mkRef(3), rest9); !refsEqual(got, []object.Ref{mkRef(3), mkRef(10), mkRef(11)}) {
		t.Fatalf("bucket 9 aliased the caller's slice: %v", got)
	}
}

// TestIndexDifferential checks the multimap against a reference, including
// deliberate full-hash collisions between distinct payloads.
func TestIndexDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	x := NewIndex(0)
	type entry struct {
		hash uint64
		slot uint32
	}
	var all []entry
	hashes := make([]uint64, 300)
	for i := range hashes {
		hashes[i] = r.Uint64()
	}
	for i := 0; i < 4000; i++ {
		h := hashes[r.Intn(len(hashes))] // many slots share a full hash
		e := entry{hash: h, slot: uint32(i)}
		x.Insert(h, e.slot)
		all = append(all, e)
	}
	if x.Len() != len(all) {
		t.Fatalf("Len=%d want %d", x.Len(), len(all))
	}
	// Every inserted (hash, slot) pair must be findable when eq targets it.
	for _, e := range all {
		slot, found := x.Lookup(e.hash, func(s uint32) bool { return s == e.slot })
		if !found || slot != e.slot {
			t.Fatalf("lookup(%#x → %d): found=%v slot=%d", e.hash, e.slot, found, slot)
		}
	}
	// eq that rejects everything: never found, even for present hashes.
	if _, found := x.Lookup(all[0].hash, func(uint32) bool { return false }); found {
		t.Fatal("lookup with all-rejecting eq reported found")
	}
	if _, found := x.Lookup(0xfeedface, func(uint32) bool { return true }); found {
		t.Fatal("lookup of absent hash reported found")
	}
}

// TestIndexReset checks Reset empties the index and that reuse after Reset
// behaves like a fresh index.
func TestIndexReset(t *testing.T) {
	x := NewIndex(100)
	for i := 0; i < 200; i++ {
		x.Insert(uint64(i), uint32(i))
	}
	x.Reset(10)
	if x.Len() != 0 {
		t.Fatalf("Len=%d after Reset", x.Len())
	}
	if _, found := x.Lookup(5, func(uint32) bool { return true }); found {
		t.Fatal("stale entry visible after Reset")
	}
	for i := 0; i < 50; i++ {
		x.Insert(uint64(1000+i), uint32(i))
	}
	for i := 0; i < 50; i++ {
		slot, found := x.Lookup(uint64(1000+i), func(s uint32) bool { return s == uint32(i) })
		if !found || slot != uint32(i) {
			t.Fatalf("post-Reset lookup %d failed", i)
		}
	}
}

// TestMatchWordExhaustive validates the SWAR tag matcher against a
// byte-by-byte reference over structured and random words.
func TestMatchWordExhaustive(t *testing.T) {
	refMatch := func(w uint64, tag uint8) []int {
		var out []int
		for i := 0; i < 8; i++ {
			if uint8(w>>(8*i)) == tag {
				out = append(out, i)
			}
		}
		return out
	}
	check := func(w uint64, tag uint8) {
		t.Helper()
		want := refMatch(w, tag)
		m := matchWord(w, tag)
		// The SWAR scan may flag extra candidates (borrow false positives);
		// it must never miss a true match, and callers verify candidates.
		got := map[int]bool{}
		for i := 0; i < 8; i++ {
			if m&(0x80<<(8*i)) != 0 {
				got[i] = true
			}
		}
		for _, i := range want {
			if !got[i] {
				t.Fatalf("matchWord(%#x, %#x) missed byte %d", w, tag, i)
			}
		}
		// False positives only ever occur for tag candidates the caller
		// rejects; bound them so the fast path stays fast: a flagged byte
		// must be the tag or sit directly above a true match (borrow).
		for i := range got {
			if uint8(w>>(8*i)) == tag {
				continue
			}
			if i == 0 || uint8(w>>(8*(i-1))) != tag {
				t.Fatalf("matchWord(%#x, %#x) flagged unrelated byte %d", w, tag, i)
			}
		}
	}
	r := rand.New(rand.NewSource(99))
	for n := 0; n < 100000; n++ {
		check(r.Uint64(), uint8(r.Intn(128)))
	}
	// Structured cases: empties everywhere, repeated tags, tag 0, 0x01
	// borrow neighbors.
	check(0x8080808080808080, 0x00)
	check(0x0000000000000000, 0x00)
	check(0x0101010101010101, 0x01)
	check(0x0100010001000100, 0x00)
	for tag := 0; tag < 128; tag++ {
		w := uint64(tag) * lsb
		check(w, uint8(tag))
		check(w, uint8((tag+1)%128))
	}
}

// FuzzRefTable is the differential fuzzer: a byte stream drives interleaved
// Add/Lookup decisions against a map reference.
func FuzzRefTable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := NewRefTable()
		ref := map[uint64][]object.Ref{}
		var order []uint64
		for i, b := range data {
			h := uint64(b % 61) // small key space: duplicates + collisions
			if b%7 == 0 {
				h = uint64(b) << 48 // occasional far-away key
			}
			rv := mkRef(i)
			rt.Add(h, rv)
			if _, ok := ref[h]; !ok {
				order = append(order, h)
			}
			ref[h] = append(ref[h], rv)
		}
		checkAgainstRef(t, rt, ref, order)
	})
}
