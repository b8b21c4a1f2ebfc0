package object

import "testing"

// TestHashValuePinned pins HashValue's exact outputs (FNV-1a with the
// engine's per-kind byte feeding). Every hash-dependent order in the
// system — OMap slot layout and growth points, partition routing, agg
// finalize iteration, exchange lane assignment — is a function of these
// values, and spilled and stored byte streams embed the slot layouts they
// induce. The swiss tables deliberately apply their stronger avalanche
// (swiss.Mix64) ONLY inside their own probe math, so these goldens must
// never move; a change here silently breaks replay of any persisted state
// and every bit-for-bit equivalence baseline. If a stronger engine-wide
// mixer is ever wanted, it needs a format version, not an edit.
func TestHashValuePinned(t *testing.T) {
	cases := []struct {
		name string
		v    Value
		want uint64
	}{
		{"bool-false", BoolValue(false), 0xaf63bd4c8601b7df},
		{"bool-true", BoolValue(true), 0xaf63bc4c8601b62c},
		{"int64-0", Int64Value(0), 0xa8c7f832281a39c5},
		{"int64-1", Int64Value(1), 0x89cd31291d2aefa4},
		{"int64-neg1", Int64Value(-1), 0x8cf51a8bfca3883d},
		{"int64-big", Int64Value(1234567890123), 0xe9c3256b4796776e},
		{"int32-7", Int32Value(7), 0x4bd7a317074c5b62},
		{"float64-0", Float64Value(0), 0xa8c7f832281a39c5},
		{"float64-1.5", Float64Value(1.5), 0xaa95e93229a27c80},
		{"float64-neg2.25", Float64Value(-2.25), 0xa8cf843228214657},
		{"string-empty", StringValue(""), 0xcbf29ce484222325},
		{"string-a", StringValue("a"), 0xaf63dc4c8601ec8c},
		{"string-pliny", StringValue("pliny"), 0xb921be4df0078479},
		{"string-long", StringValue("hash tables all the way down"), 0xa7ab96674952625b},
	}
	_, a := newTestPage(t, 1<<12)
	for _, c := range cases {
		if got := HashValue(c.v); got != c.want {
			t.Errorf("HashValue(%s) = %#x, pinned value %#x", c.name, got, c.want)
		}
		if c.v.K != KString {
			continue
		}
		// The same contents read in place off a page: the same hash.
		r, err := MakeString(a, c.v.Str())
		if err != nil {
			t.Fatal(err)
		}
		if got := HashValue(StringRefValue(r)); got != c.want {
			t.Errorf("HashValue(%s, handle-backed) = %#x, pinned value %#x", c.name, got, c.want)
		}
	}
	// Negative zero normalizes to positive zero before hashing, so the two
	// representations stay in one aggregation group.
	if HashValue(Float64Value(negZero())) != HashValue(Float64Value(0)) {
		t.Error("HashValue(-0.0) != HashValue(0.0)")
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}
