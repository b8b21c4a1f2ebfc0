package object

import (
	"bytes"
	"fmt"
	"math"
)

// Value is the tagged scalar that flows between the object model and the
// vectorized execution engine: the result of a member access, method call,
// or lambda evaluation. It is a by-value union; only the field selected by
// K is meaningful.
//
// A KString value has two forms. Go-backed: the contents are a Go string
// (constants, native-lambda results, StringValue). Handle-backed: H refers
// to the string object on its page and nothing is copied — every KString
// read off a page (GetField, Vector.At, OMap.Get/Iterate) has this form, and
// like any KHandle value it is valid exactly as long as that page is. Equal,
// Less, HashValue and every write into a page treat the two forms alike.
// Read the contents with Str (a Go string that outlives the page); code that
// must not copy looks at a handle-backed value's bytes with StringBytes(v.H)
// and at a Go-backed one (H is nil) with Str, which then copies nothing.
type Value struct {
	K Kind
	I int64
	F float64
	B bool
	s string // Go-backed KString contents; unused while H holds the string object
	H Ref
}

// Convenience constructors.

// BoolValue boxes a bool.
func BoolValue(b bool) Value { return Value{K: KBool, B: b} }

// Int32Value boxes an int32 (carried widened in I).
func Int32Value(i int32) Value { return Value{K: KInt32, I: int64(i)} }

// Int64Value boxes an int64.
func Int64Value(i int64) Value { return Value{K: KInt64, I: i} }

// Float64Value boxes a float64.
func Float64Value(f float64) Value { return Value{K: KFloat64, F: f} }

// StringValue boxes a Go string (the Go-backed KString form).
func StringValue(s string) Value { return Value{K: KString, s: s} }

// StringRefValue boxes the string object r without reading it (the
// handle-backed KString form); a nil r is the empty string.
func StringRefValue(r Ref) Value { return Value{K: KString, H: r} }

// HandleValue boxes a handle to any PC object.
func HandleValue(r Ref) Value { return Value{K: KHandle, H: r} }

// Str returns a KString value's contents as a Go string, copying them off
// the page when the value is handle-backed: the call for contents that must
// outlive the page (a Go map key, a result handed to the user). "" for any
// other kind.
func (v Value) Str() string {
	if v.K != KString {
		return ""
	}
	if !v.H.IsNil() {
		return StringContents(v.H)
	}
	return v.s
}

// strBytes returns a KString value's contents without copying: a view of
// the page for a handle-backed value, of the Go string's bytes otherwise
// (bytesOfString: immutable memory, which is why this view stays inside the
// package, with readers only). Nil for any other kind.
func (v Value) strBytes() []byte {
	if v.K != KString {
		return nil
	}
	if !v.H.IsNil() {
		return StringBytes(v.H)
	}
	return bytesOfString(v.s)
}

// AsFloat64 widens numeric values to float64 (used by arithmetic lambdas).
func (v Value) AsFloat64() float64 {
	switch v.K {
	case KFloat64:
		return v.F
	case KInt32, KInt64:
		return float64(v.I)
	case KBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// AsInt64 narrows numeric values to int64.
func (v Value) AsInt64() int64 {
	switch v.K {
	case KInt32, KInt64:
		return v.I
	case KFloat64:
		return int64(v.F)
	case KBool:
		if v.B {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Equal compares two values of compatible kinds.
func (v Value) Equal(o Value) bool {
	switch v.K {
	case KBool:
		return o.K == KBool && v.B == o.B
	case KInt32, KInt64:
		switch o.K {
		case KInt32, KInt64:
			return v.I == o.I
		case KFloat64:
			return float64(v.I) == o.F
		}
		return false
	case KFloat64:
		switch o.K {
		case KFloat64:
			return v.F == o.F
		case KInt32, KInt64:
			return v.F == float64(o.I)
		}
		return false
	case KString:
		return o.K == KString && bytes.Equal(v.strBytes(), o.strBytes())
	case KHandle:
		return o.K == KHandle && v.H == o.H
	default:
		return v.K == o.K
	}
}

// Less imposes an ordering on comparable values (numeric and string kinds).
func (v Value) Less(o Value) bool {
	switch v.K {
	case KInt32, KInt64:
		switch o.K {
		case KInt32, KInt64:
			return v.I < o.I
		case KFloat64:
			return float64(v.I) < o.F
		}
	case KFloat64:
		switch o.K {
		case KFloat64:
			return v.F < o.F
		case KInt32, KInt64:
			return v.F < float64(o.I)
		}
	case KString:
		if o.K == KString {
			return bytes.Compare(v.strBytes(), o.strBytes()) < 0
		}
	}
	return false
}

// String renders the value for diagnostics and test failure messages.
func (v Value) String() string {
	switch v.K {
	case KBool:
		return fmt.Sprintf("%v", v.B)
	case KInt32, KInt64:
		return fmt.Sprintf("%d", v.I)
	case KFloat64:
		return fmt.Sprintf("%g", v.F)
	case KString:
		return fmt.Sprintf("%q", v.strBytes())
	case KHandle:
		if v.H.IsNil() {
			return "nil"
		}
		return fmt.Sprintf("handle@%d", v.H.Off)
	default:
		return "invalid"
	}
}

// FNV-1a parameters of HashValue and HashInt64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashValue computes a 64-bit hash of a scalar value (FNV-1a), used for map
// keys and join-key hashing (the TCAP HASH operation).
func HashValue(v Value) uint64 {
	h := uint64(fnvOffset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * fnvPrime64 }
	mix8 := func(u uint64) {
		for i := 0; i < 8; i++ {
			mix(byte(u >> (8 * i)))
		}
	}
	switch v.K {
	case KBool:
		if v.B {
			mix(1)
		} else {
			mix(0)
		}
	case KInt32, KInt64:
		mix8(uint64(v.I))
	case KFloat64:
		// Normalize -0.0 to 0.0 so equal floats hash equally.
		f := v.F
		if f == 0 {
			f = 0
		}
		mix8(math.Float64bits(f))
	case KString:
		for _, c := range v.strBytes() {
			mix(c)
		}
	case KHandle:
		mix8(uint64(v.H.Off))
	}
	return h
}
