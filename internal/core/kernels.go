package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
)

// Kernel constructors: each lambda term node lowers to one TCAP APPLY whose
// executable is a closure built here. The closures are monomorphic over
// column types where it matters — the Go analogue of the C++ binding's
// template-instantiated pipeline stages (paper §5.3).

// resolveField looks a member up through the handle's type code (the vTable
// fetch of the member kernel's one-entry cache).
func resolveField(ctx *engine.Ctx, tc uint32, field string) (*object.Field, error) {
	ti := ctx.Reg.Lookup(tc)
	if ti == nil {
		return nil, fmt.Errorf("core: unregistered type code %d", tc)
	}
	f := ti.Field(field)
	if f == nil {
		return nil, fmt.Errorf("core: type %s has no member %q", ti.Name, field)
	}
	return f, nil
}

// memberKernel reads a member variable from each object of a handle column.
// Dispatch is through the type code in each handle with a one-entry cache,
// mirroring vTable lookup amortized over a vector: a row whose handle
// carries the cached code costs one compare, and the cache is consulted
// only on a nil handle or a code change. The output path is monomorphic on
// the cached field's kind: scalar members fill a typed column directly
// (I64Col/F64Col/...) with no per-row Value boxing, and a string member
// fills a StrCol with handles to the string objects — the contents stay on
// the page. The column is the statement's scratch (engine.ColBuf). Only
// columns that mix member kinds across type codes fall back to the boxed
// path.
func memberKernel(field string) engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		rc, ok := in[0].(engine.RefCol)
		if !ok {
			return nil, fmt.Errorf("core: member access %q over non-handle column", field)
		}
		if len(rc) == 0 {
			return engine.ValCol(nil), nil
		}
		if rc[0].IsNil() {
			return nil, fmt.Errorf("core: member access %q on nil handle", field)
		}
		m := memberCache{ctx: ctx, field: field, code: rc[0].TypeCode()}
		f, err := resolveField(ctx, m.code, field)
		if err != nil {
			return nil, err
		}
		m.f = f
		n := len(rc)
		switch f.Kind {
		case object.KInt64:
			out, col := engine.ColBuf[engine.I64Col](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = object.GetI64(r, m.f)
			}
			return col, nil
		case object.KInt32:
			out, col := engine.ColBuf[engine.I64Col](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = int64(object.GetI32(r, m.f))
			}
			return col, nil
		case object.KFloat64:
			out, col := engine.ColBuf[engine.F64Col](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = object.GetF64(r, m.f)
			}
			return col, nil
		case object.KBool:
			out, col := engine.ColBuf[engine.BoolCol](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = object.GetBool(r, m.f)
			}
			return col, nil
		case object.KString:
			out, col := engine.ColBuf[engine.StrCol](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = object.StringRefValue(object.GetHandleField(r, m.f))
			}
			return col, nil
		case object.KHandle:
			out, col := engine.ColBuf[engine.RefCol](ctx, n)
			for i, r := range rc {
				if r.IsNil() || r.TypeCode() != m.code {
					if same, err := m.next(r); err != nil || !same {
						return memberFallback(ctx, rc, field, err)
					}
				}
				out[i] = object.GetHandleField(r, m.f)
			}
			return col, nil
		default:
			return memberBoxed(ctx, rc, field)
		}
	}
}

// memberCache is the member kernel's one-entry vTable cache for one batch.
type memberCache struct {
	ctx   *engine.Ctx
	field string
	code  uint32
	f     *object.Field
}

// next moves the cache to handle r, which is nil or carries another type
// code, and reports whether the typed loop can go on (the member keeps its
// kind).
func (m *memberCache) next(r object.Ref) (bool, error) {
	if r.IsNil() {
		return false, fmt.Errorf("core: member access %q on nil handle", m.field)
	}
	tc := r.TypeCode()
	nf, err := resolveField(m.ctx, tc, m.field)
	if err != nil {
		return false, err
	}
	same := nf.Kind == m.f.Kind
	m.code, m.f = tc, nf
	return same, nil
}

// memberFallback ends a typed member loop that stopped: with err when the
// cache could not move, else through the boxed path.
func memberFallback(ctx *engine.Ctx, rc engine.RefCol, field string, err error) (engine.Column, error) {
	if err != nil {
		return nil, err
	}
	return memberBoxed(ctx, rc, field)
}

// memberBoxed is the generic fallback for member columns whose kind changes
// mid-vector (heterogeneous type codes with differently-typed members).
func memberBoxed(ctx *engine.Ctx, rc engine.RefCol, field string) (engine.Column, error) {
	var cachedCode uint32
	var cachedField *object.Field
	out := make([]object.Value, len(rc))
	for i, r := range rc {
		if r.IsNil() {
			return nil, fmt.Errorf("core: member access %q on nil handle", field)
		}
		tc := r.TypeCode()
		if tc != cachedCode || cachedField == nil {
			f, err := resolveField(ctx, tc, field)
			if err != nil {
				return nil, err
			}
			cachedCode, cachedField = tc, f
		}
		out[i] = object.GetField(r, cachedField)
	}
	return engine.ColumnOf(out), nil
}

// methodKernel invokes a registered virtual method on each object of a
// handle column (dynamic dispatch through the handle's type code). Like the
// member kernel, the output path is monomorphic on the method's declared
// return kind: results are written straight into a typed column, and only
// methods whose returned kind disagrees with the declaration (or changes
// across type codes) fall back to boxing.
func methodKernel(method string) engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		rc, ok := in[0].(engine.RefCol)
		if !ok {
			return nil, fmt.Errorf("core: method call %q over non-handle column", method)
		}
		if len(rc) == 0 {
			return engine.ValCol(nil), nil
		}
		var cachedCode uint32
		var cached object.Method
		resolve := func(r object.Ref) error {
			if r.IsNil() {
				return fmt.Errorf("core: method call %q on nil handle", method)
			}
			tc := r.TypeCode()
			if tc == cachedCode && cached.Fn != nil {
				return nil
			}
			ti := ctx.Reg.Lookup(tc)
			if ti == nil {
				return fmt.Errorf("core: unregistered type code %d", tc)
			}
			m, ok := ti.Method(method)
			if !ok {
				return fmt.Errorf("core: type %s has no method %q", ti.Name, method)
			}
			cachedCode, cached = tc, m
			return nil
		}
		if err := resolve(rc[0]); err != nil {
			return nil, err
		}
		// boxedFrom finishes a column whose rows [0, from) are already in
		// vals: methods are user code and may be expensive or
		// non-idempotent, so the typed prefix is re-boxed, never
		// re-invoked.
		boxedFrom := func(vals []object.Value, from int) (engine.Column, error) {
			for i := from; i < len(rc); i++ {
				if err := resolve(rc[i]); err != nil {
					return nil, err
				}
				vals[i] = cached.Fn(rc[i])
			}
			return engine.ColumnOf(vals), nil
		}
		switch cached.Ret {
		case object.KInt32, object.KInt64:
			out, col := engine.ColBuf[engine.I64Col](ctx, len(rc))
			for i, r := range rc {
				if err := resolve(r); err != nil {
					return nil, err
				}
				v := cached.Fn(r)
				if v.K != object.KInt32 && v.K != object.KInt64 {
					vals := make([]object.Value, len(rc))
					for j := 0; j < i; j++ {
						vals[j] = object.Int64Value(out[j])
					}
					vals[i] = v
					return boxedFrom(vals, i+1)
				}
				out[i] = v.I
			}
			return col, nil
		case object.KFloat64:
			out, col := engine.ColBuf[engine.F64Col](ctx, len(rc))
			for i, r := range rc {
				if err := resolve(r); err != nil {
					return nil, err
				}
				v := cached.Fn(r)
				if v.K != object.KFloat64 {
					vals := make([]object.Value, len(rc))
					for j := 0; j < i; j++ {
						vals[j] = object.Float64Value(out[j])
					}
					vals[i] = v
					return boxedFrom(vals, i+1)
				}
				out[i] = v.F
			}
			return col, nil
		case object.KBool:
			out, col := engine.ColBuf[engine.BoolCol](ctx, len(rc))
			for i, r := range rc {
				if err := resolve(r); err != nil {
					return nil, err
				}
				v := cached.Fn(r)
				if v.K != object.KBool {
					vals := make([]object.Value, len(rc))
					for j := 0; j < i; j++ {
						vals[j] = object.BoolValue(out[j])
					}
					vals[i] = v
					return boxedFrom(vals, i+1)
				}
				out[i] = v.B
			}
			return col, nil
		case object.KString:
			out, col := engine.ColBuf[engine.StrCol](ctx, len(rc))
			for i, r := range rc {
				if err := resolve(r); err != nil {
					return nil, err
				}
				v := cached.Fn(r)
				if v.K != object.KString {
					vals := make([]object.Value, len(rc))
					copy(vals, out[:i])
					vals[i] = v
					return boxedFrom(vals, i+1)
				}
				out[i] = v
			}
			return col, nil
		case object.KHandle:
			out, col := engine.ColBuf[engine.RefCol](ctx, len(rc))
			for i, r := range rc {
				if err := resolve(r); err != nil {
					return nil, err
				}
				v := cached.Fn(r)
				if v.K != object.KHandle {
					vals := make([]object.Value, len(rc))
					for j := 0; j < i; j++ {
						vals[j] = object.HandleValue(out[j])
					}
					vals[i] = v
					return boxedFrom(vals, i+1)
				}
				out[i] = v.H
			}
			return col, nil
		default:
			return boxedFrom(make([]object.Value, len(rc)), 0)
		}
	}
}

// constKernel produces a constant column sized to the batch (the first
// input column supplies the length).
func constKernel(v object.Value) engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		n := in[0].Len()
		switch v.K {
		case object.KFloat64:
			out, col := engine.ColBuf[engine.F64Col](ctx, n)
			for i := range out {
				out[i] = v.F
			}
			return col, nil
		case object.KInt32, object.KInt64:
			out, col := engine.ColBuf[engine.I64Col](ctx, n)
			for i := range out {
				out[i] = v.I
			}
			return col, nil
		case object.KBool:
			out, col := engine.ColBuf[engine.BoolCol](ctx, n)
			for i := range out {
				out[i] = v.B
			}
			return col, nil
		case object.KString:
			out, col := engine.ColBuf[engine.StrCol](ctx, n)
			for i := range out {
				out[i] = v
			}
			return col, nil
		default:
			out, col := engine.ColBuf[engine.ValCol](ctx, n)
			for i := range out {
				out[i] = v
			}
			return col, nil
		}
	}
}

// nativeKernel applies an opaque native lambda row-wise. The native context
// exposes the live output allocator so makeObject-style calls allocate in
// place on the output page.
func nativeKernel(fn lambda.NativeFn, nargs int) engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		if len(in) != nargs {
			return nil, fmt.Errorf("core: native lambda expects %d inputs, got %d", nargs, len(in))
		}
		n := in[0].Len()
		nctx := &lambda.NativeCtx{Alloc: ctx.Alloc(), Reg: ctx.Reg}
		args := ctx.ArgBuf(len(in))
		out := make([]object.Value, n)
		for i := 0; i < n; i++ {
			for j, c := range in {
				args[j] = c.Value(i)
			}
			v, err := fn(nctx, args)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return engine.ColumnOf(out), nil
	}
}

// binaryKernel composes two columns with a higher-order operator. Monomorphic
// fast paths cover the common float64/int64/string/bool pairings; a boxed
// fallback handles mixed kinds.
func binaryKernel(op lambda.Op) engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		if len(in) != 2 {
			return nil, fmt.Errorf("core: binary %s expects 2 inputs", op)
		}
		l, r := in[0], in[1]
		if l.Len() != r.Len() {
			return nil, fmt.Errorf("core: binary %s over mismatched lengths %d/%d", op, l.Len(), r.Len())
		}
		switch op {
		case lambda.OpAnd, lambda.OpOr:
			lb, lok := l.(engine.BoolCol)
			rb, rok := r.(engine.BoolCol)
			if !lok || !rok {
				return nil, fmt.Errorf("core: %s over non-boolean columns", op)
			}
			out, col := engine.ColBuf[engine.BoolCol](ctx, len(lb))
			if op == lambda.OpAnd {
				for i := range lb {
					out[i] = lb[i] && rb[i]
				}
			} else {
				for i := range lb {
					out[i] = lb[i] || rb[i]
				}
			}
			return col, nil
		}

		if lf, ok := l.(engine.F64Col); ok {
			if rf, ok := r.(engine.F64Col); ok {
				return f64Binary(ctx, op, lf, rf)
			}
		}
		if li, ok := l.(engine.I64Col); ok {
			if ri, ok := r.(engine.I64Col); ok {
				return i64Binary(ctx, op, li, ri)
			}
		}
		if ls, ok := l.(engine.StrCol); ok {
			if rs, ok := r.(engine.StrCol); ok {
				return strBinary(ctx, op, ls, rs)
			}
		}
		return boxedBinary(ctx, op, l, r)
	}
}

func f64Binary(ctx *engine.Ctx, op lambda.Op, l, r engine.F64Col) (engine.Column, error) {
	n := len(l)
	switch op {
	case lambda.OpEq, lambda.OpNe, lambda.OpGt, lambda.OpGe, lambda.OpLt, lambda.OpLe:
		out, col := engine.ColBuf[engine.BoolCol](ctx, n)
		for i := 0; i < n; i++ {
			out[i] = cmpBool(op, l[i] == r[i], l[i] < r[i])
		}
		return col, nil
	case lambda.OpAdd:
		out, col := engine.ColBuf[engine.F64Col](ctx, n)
		for i := range out {
			out[i] = l[i] + r[i]
		}
		return col, nil
	case lambda.OpSub:
		out, col := engine.ColBuf[engine.F64Col](ctx, n)
		for i := range out {
			out[i] = l[i] - r[i]
		}
		return col, nil
	case lambda.OpMul:
		out, col := engine.ColBuf[engine.F64Col](ctx, n)
		for i := range out {
			out[i] = l[i] * r[i]
		}
		return col, nil
	case lambda.OpDiv:
		out, col := engine.ColBuf[engine.F64Col](ctx, n)
		for i := range out {
			out[i] = l[i] / r[i]
		}
		return col, nil
	}
	return nil, fmt.Errorf("core: unsupported float op %s", op)
}

func i64Binary(ctx *engine.Ctx, op lambda.Op, l, r engine.I64Col) (engine.Column, error) {
	n := len(l)
	switch op {
	case lambda.OpEq, lambda.OpNe, lambda.OpGt, lambda.OpGe, lambda.OpLt, lambda.OpLe:
		out, col := engine.ColBuf[engine.BoolCol](ctx, n)
		for i := 0; i < n; i++ {
			out[i] = cmpBool(op, l[i] == r[i], l[i] < r[i])
		}
		return col, nil
	case lambda.OpAdd:
		out, col := engine.ColBuf[engine.I64Col](ctx, n)
		for i := range out {
			out[i] = l[i] + r[i]
		}
		return col, nil
	case lambda.OpSub:
		out, col := engine.ColBuf[engine.I64Col](ctx, n)
		for i := range out {
			out[i] = l[i] - r[i]
		}
		return col, nil
	case lambda.OpMul:
		out, col := engine.ColBuf[engine.I64Col](ctx, n)
		for i := range out {
			out[i] = l[i] * r[i]
		}
		return col, nil
	case lambda.OpDiv:
		out, col := engine.ColBuf[engine.I64Col](ctx, n)
		for i := range out {
			if r[i] == 0 {
				return nil, fmt.Errorf("core: integer division by zero")
			}
			out[i] = l[i] / r[i]
		}
		return col, nil
	}
	return nil, fmt.Errorf("core: unsupported int op %s", op)
}

func strBinary(ctx *engine.Ctx, op lambda.Op, l, r engine.StrCol) (engine.Column, error) {
	n := len(l)
	switch op {
	case lambda.OpEq, lambda.OpNe, lambda.OpGt, lambda.OpGe, lambda.OpLt, lambda.OpLe:
		out, col := engine.ColBuf[engine.BoolCol](ctx, n)
		for i := 0; i < n; i++ {
			out[i] = cmpBool(op, l[i].Equal(r[i]), l[i].Less(r[i]))
		}
		return col, nil
	case lambda.OpAdd:
		out, col := engine.ColBuf[engine.StrCol](ctx, n)
		for i := range out {
			out[i] = object.StringValue(l[i].Str() + r[i].Str())
		}
		return col, nil
	}
	return nil, fmt.Errorf("core: unsupported string op %s", op)
}

func boxedBinary(ctx *engine.Ctx, op lambda.Op, l, r engine.Column) (engine.Column, error) {
	n := l.Len()
	switch op {
	case lambda.OpEq, lambda.OpNe, lambda.OpGt, lambda.OpGe, lambda.OpLt, lambda.OpLe:
		out, col := engine.ColBuf[engine.BoolCol](ctx, n)
		for i := 0; i < n; i++ {
			lv, rv := l.Value(i), r.Value(i)
			out[i] = cmpBool(op, lv.Equal(rv), lv.Less(rv))
		}
		return col, nil
	case lambda.OpAdd, lambda.OpSub, lambda.OpMul, lambda.OpDiv:
		out, col := engine.ColBuf[engine.F64Col](ctx, n)
		for i := 0; i < n; i++ {
			a, b := l.Value(i).AsFloat64(), r.Value(i).AsFloat64()
			switch op {
			case lambda.OpAdd:
				out[i] = a + b
			case lambda.OpSub:
				out[i] = a - b
			case lambda.OpMul:
				out[i] = a * b
			default:
				out[i] = a / b
			}
		}
		return col, nil
	}
	return nil, fmt.Errorf("core: unsupported boxed op %s", op)
}

func cmpBool(op lambda.Op, eq, lt bool) bool {
	switch op {
	case lambda.OpEq:
		return eq
	case lambda.OpNe:
		return !eq
	case lambda.OpLt:
		return lt
	case lambda.OpLe:
		return lt || eq
	case lambda.OpGt:
		return !lt && !eq
	case lambda.OpGe:
		return !lt
	}
	return false
}

// notKernel negates a boolean column.
func notKernel() engine.ApplyKernel {
	return func(ctx *engine.Ctx, in []engine.Column) (engine.Column, error) {
		bc, ok := in[0].(engine.BoolCol)
		if !ok {
			return nil, fmt.Errorf("core: ! over non-boolean column")
		}
		out, col := engine.ColBuf[engine.BoolCol](ctx, len(bc))
		for i, b := range bc {
			out[i] = !b
		}
		return col, nil
	}
}
