package object

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// The raw-slot rehash (rehashScalar) against the generic slot walk it
// replaces for int64 -> int64/float64 maps. Every other test grows such maps
// through rehash alone, so the typed/boxed aggregation differentials cannot
// see a rehash bug: these tests grow two maps on identical pages in lock
// step, one through rehash and one through rehashGeneric, and compare the
// whole pages after every doubling.

// rehashWrapKeys hash to the last slot of every table of up to 4096 slots:
// each one after the first collides there and its probe wraps to slot 0.
var rehashWrapKeys = func() []int64 {
	var keys []int64
	for k := int64(0); len(keys) < 24; k++ {
		if HashInt64(k)&0xFFF == 0xFFF {
			keys = append(keys, k)
		}
	}
	return keys
}()

// rehashSpecialFloats are values whose bits a rehash must move untouched:
// NaNs with payloads and signs, both zeros, both infinities.
var rehashSpecialFloats = [8]float64{
	math.Float64frombits(0x7FF8_0000_0000_00A1),
	math.Float64frombits(0xFFF8_0000_0000_0B02),
	math.Float64frombits(0x7FF0_0000_0000_0001), // signalling
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	-math.SmallestNonzeroFloat64,
}

// rehashDiff puts keys[i] -> vals[i] (a value's 8 stored bytes) into two
// int64-keyed maps of valKind on identical pages. Before a Put that would
// grow, it doubles one map with rehash and the other with rehashGeneric,
// so the Put itself never grows. It fails on the first page difference and
// returns the rehash side's map, the doublings made and whether the last one
// hit ErrPageFull — which must leave both pages as they were.
func rehashDiff(t testing.TB, valKind Kind, pageSize int, keys []int64, vals []uint64) (m OMap, doublings int, full bool) {
	t.Helper()
	var pages [2]*Page
	var allocs [2]*Allocator
	var maps [2]OMap
	for s := range pages {
		pages[s] = NewPage(pageSize, NewRegistry())
		allocs[s] = NewAllocator(pages[s])
		m, err := MakeMap(allocs[s], KInt64, valKind, 8)
		if err != nil {
			t.Fatal(err)
		}
		maps[s] = m
	}
	if !HasScalarSlots(KInt64, valKind) {
		t.Fatalf("an int64 -> %v map has no scalar slots", valKind)
	}
	for i, k := range keys {
		val := Int64Value(int64(vals[i]))
		if valKind == KFloat64 {
			val = Float64Value(math.Float64frombits(vals[i]))
		}
		if n, slots := maps[0].Len(), maps[0].slots(); (n+1)*10 >= slots*7 {
			before := bytes.Clone(pages[0].Data)
			errScalar := maps[0].rehash(allocs[0], slots*2)
			errGeneric := maps[1].rehashGeneric(allocs[1], slots*2)
			if (errScalar == nil) != (errGeneric == nil) {
				t.Fatalf("doubling %d -> %d slots: rehash err %v, rehashGeneric err %v", slots, slots*2, errScalar, errGeneric)
			}
			if !bytes.Equal(pages[0].Data, pages[1].Data) {
				t.Fatalf("doubling %d -> %d slots (%v values): pages differ", slots, slots*2, valKind)
			}
			if errScalar != nil {
				if !errors.Is(errScalar, ErrPageFull) {
					t.Fatalf("doubling %d -> %d slots: %v", slots, slots*2, errScalar)
				}
				if !bytes.Equal(before, pages[0].Data) {
					t.Fatalf("doubling %d -> %d slots failed with ErrPageFull but changed the page", slots, slots*2)
				}
				return maps[0], doublings, true
			}
			doublings++
		}
		for s := range maps {
			if err := maps[s].Put(allocs[s], Int64Value(k), val); err != nil {
				t.Fatalf("Put(%d) after %d doublings: %v", k, doublings, err)
			}
		}
		if !bytes.Equal(pages[0].Data, pages[1].Data) {
			t.Fatalf("Put %d (key %d) after %d doublings: pages differ", i, k, doublings)
		}
	}
	return maps[0], doublings, false
}

func TestScalarRehashMatchesGeneric(t *testing.T) {
	// Sequential keys, the wrapping keys spread among them, negative keys
	// and the int64 extremes, with repeats; values with every special bit
	// pattern.
	var keys []int64
	var vals []uint64
	for i := 0; i < 700; i++ {
		k := int64(i)
		switch {
		case i%29 == 0:
			k = rehashWrapKeys[(i/29)%len(rehashWrapKeys)]
		case i%13 == 0:
			k = -k * 1_000_003
		case i%17 == 0:
			k = math.MinInt64 + int64(i%3)
		case i%19 == 0:
			k = math.MaxInt64 - int64(i%3)
		case i%7 == 0:
			k = int64(i / 2) // a repeat
		}
		keys = append(keys, k)
		vals = append(vals, uint64(i))
	}
	for _, valKind := range []Kind{KInt64, KFloat64} {
		vs := vals
		if valKind == KFloat64 {
			vs = make([]uint64, len(vals))
			for i := range vs {
				vs[i] = math.Float64bits(rehashSpecialFloats[i%len(rehashSpecialFloats)])
			}
		}
		// Every allocator is Appendix B's no-reuse region; the subtest
		// names say so.
		t.Run(fmt.Sprintf("%v/no-reuse", valKind), func(t *testing.T) {
			m, doublings, full := rehashDiff(t, valKind, 1<<16, keys, vs)
			if full || doublings != 7 { // 8 -> 1024 slots
				t.Fatalf("%d doublings, page full %v: want 7 and room to spare", doublings, full)
			}
			// The wrapping keys filled the last slot and ran on into slot 0.
			s, _ := m.ScalarSlots(valKind)
			for _, i := range []int{s.Slots() - 1, 0} {
				if k, _, _ := s.EntryAt(i); !slices.Contains(rehashWrapKeys, k) {
					t.Fatalf("slot %d of %d holds key %d, want a wrapping key", i, s.Slots(), k)
				}
			}
			_, doublings, full = rehashDiff(t, valKind, 1<<12, keys, vs)
			if !full || doublings == 0 {
				t.Fatalf("on a 4 KiB page: %d doublings, page full %v: want some, then ErrPageFull", doublings, full)
			}
		})
	}
}

// FuzzScalarRehashMatchesGeneric is the same lock-step comparison over
// fuzz-chosen value kinds, page sizes and key/value streams.
func FuzzScalarRehashMatchesGeneric(f *testing.F) {
	f.Add([]byte{0, 6, 1, 2, 3, 0x80, 4, 250, 2, 9, 255})
	f.Add([]byte{3, 2, 0x80, 0, 248, 0x80, 1, 249, 0x80, 2, 250, 7, 7, 251})
	f.Add([]byte{1, 0, 5, 5, 5, 0x7F, 0xFF, 0x80, 0x81, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		valKind := KInt64
		if data[0]&1 != 0 {
			valKind = KFloat64
		}
		pageSize := 1 << (10 + data[1]%7)
		var keys []int64
		var vals []uint64
		for data = data[2:]; len(data) >= 3 && len(keys) < 4000; data = data[3:] {
			k := int64(int8(data[0]))*257 + int64(data[1])
			switch data[0] {
			case 0x80:
				k = rehashWrapKeys[int(data[1])%len(rehashWrapKeys)]
			case 0x81:
				k = math.MinInt64 + int64(data[1])
			}
			keys = append(keys, k)
			switch b := data[2]; {
			case valKind == KFloat64 && b >= 248:
				vals = append(vals, math.Float64bits(rehashSpecialFloats[b-248]))
			case valKind == KFloat64:
				vals = append(vals, math.Float64bits(float64(int8(b))/4))
			default:
				vals = append(vals, uint64(int64(int8(b))))
			}
		}
		rehashDiff(t, valKind, pageSize, keys, vals)
	})
}
