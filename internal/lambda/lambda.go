// Package lambda implements PC's domain-specific lambda calculus (paper §4).
//
// A PC programmer does not hand the system a computation over data; they
// hand it an *expression* built from lambda abstraction families
// (FromMember, FromMethod, FromNative, FromSelf) and higher-order
// composition functions (Eq, And, Add, ...). The TCAP compiler analyzes the
// expression — which parts touch which inputs, which parts are opaque native
// code — and lowers it to an optimizable TCAP program. Exposing intent
// through this calculus is what makes "declarative in the large" possible;
// hiding logic inside FromNative is allowed but blinds the optimizer,
// exactly as the paper warns.
package lambda

import (
	"fmt"
	"sort"

	"repro/internal/object"
)

// Op enumerates the higher-order composition functions the calculus ships
// with: boolean comparisons, boolean connectives, and arithmetic.
type Op string

// Composition operators.
const (
	OpEq  Op = "=="
	OpNe  Op = "!="
	OpGt  Op = ">"
	OpGe  Op = ">="
	OpLt  Op = "<"
	OpLe  Op = "<="
	OpAnd Op = "&&"
	OpOr  Op = "||"
	OpNot Op = "!"
	OpAdd Op = "+"
	OpSub Op = "-"
	OpMul Op = "*"
	OpDiv Op = "/"
)

// Term is a node in a lambda expression tree.
type Term interface {
	// Args reports the set of input argument indices the term depends on.
	Args() map[int]bool
	// String renders the term for diagnostics.
	String() string
	isTerm()
}

// Arg is a reference to the i-th input of the computation (a Handle<T> in
// the paper's C++ binding). TypeName names the registered PC object type so
// the compiler can resolve member kinds.
type Arg struct {
	Index    int
	TypeName string
}

// Args reports the argument's own index.
func (a *Arg) Args() map[int]bool { return map[int]bool{a.Index: true} }

// String renders the argument for diagnostics.
func (a *Arg) String() string { return fmt.Sprintf("arg%d:%s", a.Index, a.TypeName) }
func (a *Arg) isTerm()        {}

// Member is makeLambdaFromMember: accesses a member variable of the
// pointed-to object.
type Member struct {
	Recv  Term
	Field string
}

// Args reports the receiver's arguments.
func (m *Member) Args() map[int]bool { return m.Recv.Args() }

// String renders the member access for diagnostics.
func (m *Member) String() string { return fmt.Sprintf("%s.%s", m.Recv, m.Field) }
func (m *Member) isTerm()        {}

// MethodCall is makeLambdaFromMethod: invokes a registered virtual method on
// the pointed-to object. Methods are assumed purely functional (paper §7),
// which licenses redundant-call elimination.
type MethodCall struct {
	Recv   Term
	Method string
}

// Args reports the receiver's arguments.
func (m *MethodCall) Args() map[int]bool { return m.Recv.Args() }

// String renders the method call for diagnostics.
func (m *MethodCall) String() string { return fmt.Sprintf("%s.%s()", m.Recv, m.Method) }
func (m *MethodCall) isTerm()        {}

// NativeCtx gives native lambdas access to the execution context: the live
// output allocator (so makeObject calls land in place on the output page,
// paper Appendix C) and the worker's type registry.
type NativeCtx struct {
	Alloc *object.Allocator
	Reg   *object.Registry
}

// NativeFn is the signature of an opaque native function. Allocation
// failures (page full) are reported by returning an error so the engine can
// rotate the output page and retry the batch.
type NativeFn func(ctx *NativeCtx, args []object.Value) (object.Value, error)

// Native is makeLambda: wraps an opaque native function over the inputs. PC
// cannot look inside it, so it is compiled to a single APPLY with type
// "native" and never participates in algebraic optimization.
type Native struct {
	Name string // diagnostic label
	Ret  object.Kind
	Fn   NativeFn
	Deps []Term // sub-terms whose outputs feed the native function
}

// Args reports every argument the native function's deps read.
func (n *Native) Args() map[int]bool {
	out := map[int]bool{}
	for _, d := range n.Deps {
		for k := range d.Args() {
			out[k] = true
		}
	}
	return out
}

// String renders the native function by name for diagnostics.
func (n *Native) String() string { return fmt.Sprintf("native:%s", n.Name) }
func (n *Native) isTerm()        {}

// Self is makeLambdaFromSelf: the identity function on an input.
type Self struct{ Recv Term }

// Args reports the receiver's arguments.
func (s *Self) Args() map[int]bool { return s.Recv.Args() }

// String renders the identity for diagnostics.
func (s *Self) String() string { return fmt.Sprintf("self(%s)", s.Recv) }
func (s *Self) isTerm()        {}

// Const is a literal constant.
type Const struct{ Val object.Value }

// Args reports no arguments: a constant reads no input.
func (c *Const) Args() map[int]bool { return map[int]bool{} }

// String renders the constant for diagnostics.
func (c *Const) String() string { return c.Val.String() }
func (c *Const) isTerm()        {}

// Binary composes two terms with a higher-order operator.
type Binary struct {
	Op   Op
	L, R Term
}

// Args reports every argument the operands read.
func (b *Binary) Args() map[int]bool {
	out := map[int]bool{}
	for k := range b.L.Args() {
		out[k] = true
	}
	for k := range b.R.Args() {
		out[k] = true
	}
	return out
}

// String renders the operator expression for diagnostics.
func (b *Binary) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }
func (b *Binary) isTerm()        {}

// Unary applies a unary operator (only OpNot).
type Unary struct {
	Op Op
	X  Term
}

// Args reports every argument the operands read.
func (u *Unary) Args() map[int]bool { return u.X.Args() }

// String renders the operator expression for diagnostics.
func (u *Unary) String() string { return fmt.Sprintf("%s%s", u.Op, u.X) }
func (u *Unary) isTerm()        {}

// Abstraction families (paper §4's four built-ins).

// NewArg declares computation input i of the given registered type.
func NewArg(i int, typeName string) *Arg { return &Arg{Index: i, TypeName: typeName} }

// FromMember is makeLambdaFromMember.
func FromMember(recv Term, field string) Term { return &Member{Recv: recv, Field: field} }

// FromMethod is makeLambdaFromMethod.
func FromMethod(recv Term, method string) Term { return &MethodCall{Recv: recv, Method: method} }

// FromSelf is makeLambdaFromSelf.
func FromSelf(recv Term) Term { return &Self{Recv: recv} }

// FromNative is makeLambda: an opaque native function of the given deps.
func FromNative(name string, ret object.Kind, fn NativeFn, deps ...Term) Term {
	return &Native{Name: name, Ret: ret, Fn: fn, Deps: deps}
}

// ConstOf lifts a Go value into a constant term.
func ConstOf(v object.Value) Term { return &Const{Val: v} }

// ConstF64 is a float64 literal.
func ConstF64(f float64) Term { return ConstOf(object.Float64Value(f)) }

// ConstI64 is an int64 literal.
func ConstI64(i int64) Term { return ConstOf(object.Int64Value(i)) }

// ConstStr is a string literal.
func ConstStr(s string) Term { return ConstOf(object.StringValue(s)) }

// Higher-order composition functions.

// Eq is l == r.
func Eq(l, r Term) Term { return &Binary{Op: OpEq, L: l, R: r} }

// Ne is l != r.
func Ne(l, r Term) Term { return &Binary{Op: OpNe, L: l, R: r} }

// Gt is l > r.
func Gt(l, r Term) Term { return &Binary{Op: OpGt, L: l, R: r} }

// Ge is l >= r.
func Ge(l, r Term) Term { return &Binary{Op: OpGe, L: l, R: r} }

// Lt is l < r.
func Lt(l, r Term) Term { return &Binary{Op: OpLt, L: l, R: r} }

// Le is l <= r.
func Le(l, r Term) Term { return &Binary{Op: OpLe, L: l, R: r} }

// And is l && r; predicates split into conjuncts at And (SplitConjuncts).
func And(l, r Term) Term { return &Binary{Op: OpAnd, L: l, R: r} }

// Or is l || r.
func Or(l, r Term) Term { return &Binary{Op: OpOr, L: l, R: r} }

// Not is !x.
func Not(x Term) Term { return &Unary{Op: OpNot, X: x} }

// Add is l + r.
func Add(l, r Term) Term { return &Binary{Op: OpAdd, L: l, R: r} }

// Sub is l - r.
func Sub(l, r Term) Term { return &Binary{Op: OpSub, L: l, R: r} }

// Mul is l * r.
func Mul(l, r Term) Term { return &Binary{Op: OpMul, L: l, R: r} }

// Div is l / r.
func Div(l, r Term) Term { return &Binary{Op: OpDiv, L: l, R: r} }

// SplitConjuncts decomposes a predicate into its top-level AND-ed conjuncts
// (b1 ∧ b2 ∧ ... in the paper's pushdown rule).
func SplitConjuncts(t Term) []Term {
	if b, ok := t.(*Binary); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Term{t}
}

// ArgList returns the sorted argument indices a term depends on.
func ArgList(t Term) []int {
	set := t.Args()
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// IsEquiJoinConjunct reports whether t has the form L == R where L and R
// each depend on exactly one — distinct — input. Such conjuncts become join
// keys; everything else is evaluated as a post-join (or pushed-down) filter.
func IsEquiJoinConjunct(t Term) (left, right Term, li, ri int, ok bool) {
	b, isBin := t.(*Binary)
	if !isBin || b.Op != OpEq {
		return nil, nil, 0, 0, false
	}
	la, ra := ArgList(b.L), ArgList(b.R)
	if len(la) != 1 || len(ra) != 1 || la[0] == ra[0] {
		return nil, nil, 0, 0, false
	}
	return b.L, b.R, la[0], ra[0], true
}

// Walk visits every node of the term tree in post-order.
func Walk(t Term, visit func(Term)) {
	switch n := t.(type) {
	case *Member:
		Walk(n.Recv, visit)
	case *MethodCall:
		Walk(n.Recv, visit)
	case *Self:
		Walk(n.Recv, visit)
	case *Binary:
		Walk(n.L, visit)
		Walk(n.R, visit)
	case *Unary:
		Walk(n.X, visit)
	case *Native:
		for _, d := range n.Deps {
			Walk(d, visit)
		}
	}
	visit(t)
}
