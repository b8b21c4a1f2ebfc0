package pc

import (
	"repro/internal/lambda"
	"repro/internal/object"
)

// Lambda calculus re-exports (paper §4): abstraction families and
// higher-order composition functions used inside computation definitions.

// Term is a lambda expression node.
type Term = lambda.Term

// Arg is a computation input argument.
type Arg = lambda.Arg

// NativeCtx gives native lambdas access to the live output allocator.
type NativeCtx = lambda.NativeCtx

// NativeFn is the opaque native function signature.
//
// Strings in native lambdas. A string argument that came off a page — a
// member read, an element of a string vector, a map key — is handle-backed:
// the Value refers to the string object where it lies and no Go string
// exists yet. Compare, order and hash it with Value.Equal, Value.Less and
// object.HashValue, and hand it to OMap.Put, Vector.PushBack or
// object.SetField as it is: the contents move page to page. To look at the
// bytes without copying them, object.StringBytes(v.H) views a handle-backed
// value's (v.H is not nil) on its page — read-only, and valid while the input
// page is: for the duration of the call, never beyond it. To keep the
// contents (a Go map key, a field of a Go struct returned to the driver,
// concatenation) call v.Str(), which copies them into a Go string; that
// copy is the only allocation a string costs, so take it outside per-row
// paths where you can (on a Go-backed value, v.H nil, Str copies nothing).
// Results may be returned in either form:
// StringValue(s) for a Go string, StringRefValue(r) for a string object the
// native allocated with ctx.Alloc.
type NativeFn = lambda.NativeFn

// Abstraction families.

// FromMember is makeLambdaFromMember.
func FromMember(recv Term, field string) Term { return lambda.FromMember(recv, field) }

// FromMethod is makeLambdaFromMethod.
func FromMethod(recv Term, method string) Term { return lambda.FromMethod(recv, method) }

// FromSelf is makeLambdaFromSelf.
func FromSelf(recv Term) Term { return lambda.FromSelf(recv) }

// FromNative is makeLambda: wraps an opaque native function. Logic hidden
// here is invisible to the optimizer — expose intent through the calculus
// where possible.
func FromNative(name string, ret Kind, fn NativeFn, deps ...Term) Term {
	return lambda.FromNative(name, ret, fn, deps...)
}

// Literal constants.

// ConstF64 lifts a float64 literal.
func ConstF64(f float64) Term { return lambda.ConstF64(f) }

// ConstI64 lifts an int64 literal.
func ConstI64(i int64) Term { return lambda.ConstI64(i) }

// ConstStr lifts a string literal.
func ConstStr(s string) Term { return lambda.ConstStr(s) }

// Higher-order composition functions.

// Eq composes an equality comparison term.
func Eq(l, r Term) Term { return lambda.Eq(l, r) }

// Ne composes an inequality comparison term.
func Ne(l, r Term) Term { return lambda.Ne(l, r) }

// Gt composes a greater-than comparison term.
func Gt(l, r Term) Term { return lambda.Gt(l, r) }

// Ge composes a greater-or-equal comparison term.
func Ge(l, r Term) Term { return lambda.Ge(l, r) }

// Lt composes a less-than comparison term.
func Lt(l, r Term) Term { return lambda.Lt(l, r) }

// Le composes a less-or-equal comparison term.
func Le(l, r Term) Term { return lambda.Le(l, r) }

// And composes a logical conjunction term.
func And(l, r Term) Term { return lambda.And(l, r) }

// Or composes a logical disjunction term.
func Or(l, r Term) Term { return lambda.Or(l, r) }

// Not composes a logical negation term.
func Not(x Term) Term { return lambda.Not(x) }

// Add composes an arithmetic addition term.
func Add(l, r Term) Term { return lambda.Add(l, r) }

// Sub composes an arithmetic subtraction term.
func Sub(l, r Term) Term { return lambda.Sub(l, r) }

// Mul composes an arithmetic multiplication term.
func Mul(l, r Term) Term { return lambda.Mul(l, r) }

// Div composes an arithmetic division term.
func Div(l, r Term) Term { return lambda.Div(l, r) }

// Value constructors (object model scalars).

// BoolValue boxes a bool.
func BoolValue(b bool) Value { return object.BoolValue(b) }

// Int64Value boxes an int64.
func Int64Value(i int64) Value { return object.Int64Value(i) }

// Float64Value boxes a float64.
func Float64Value(f float64) Value { return object.Float64Value(f) }

// StringValue boxes a Go string.
func StringValue(s string) Value { return object.StringValue(s) }

// StringRefValue boxes a string object without copying it off its page.
func StringRefValue(r Ref) Value { return object.StringRefValue(r) }

// HandleValue boxes an object reference.
func HandleValue(r Ref) Value { return object.HandleValue(r) }
