// Package agglib is the shared library of named aggregation families.
// Both the master and the worker binary (cmd/pcworker) import it, so an
// aggregation named here resolves to the *same* spec on both sides of the
// process boundary — the names, not the closures, cross the wire. Anonymous
// core.Aggregate computations keep working in-process; only jobs shipped to
// worker processes need a family.
//
// Every family is a typed fold (engine.AggSpec.Fold): it states its algebra
// as data, so master and workers alike fold its typed columns in place and
// nobody hand-writes a Combine.
package agglib

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
)

// family is one group-by over an int64 key field: the fold, the kind of the
// value field it folds, and whether it counts rows instead of reading one.
type family struct {
	op    object.FoldOp
	val   object.Kind
	count bool
}

// families is every family this package registers, by name prefix.
var families = map[string]family{
	"sumI64":   {op: object.FoldSum, val: object.KInt64},
	"minI64":   {op: object.FoldMin, val: object.KInt64},
	"maxI64":   {op: object.FoldMax, val: object.KInt64},
	"sumF64":   {op: object.FoldSum, val: object.KFloat64},
	"minF64":   {op: object.FoldMin, val: object.KFloat64},
	"maxF64":   {op: object.FoldMax, val: object.KFloat64},
	"countI64": {op: object.FoldSum, val: object.KInt64, count: true},
}

func init() {
	for prefix, f := range families {
		core.RegisterAggFamily(prefix, f.spec)
	}
}

// spec constructs the spec for "<family>|<typeName>|<keyField>|<valField>":
// group by the type's int64 keyField, fold its valField (countI64: count the
// rows), and finalize each group back into an object of the input type with
// the key and the result in those two fields.
func (f family) spec(args []string, reg *object.Registry) (*engine.AggSpec, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("agglib: a family wants type|keyField|valField, got %d args", len(args))
	}
	typeName, keyField, valField := args[0], args[1], args[2]
	ti := reg.LookupName(typeName)
	if ti == nil {
		return nil, fmt.Errorf("agglib: output type %q is not registered", typeName)
	}
	key, val := ti.Field(keyField), ti.Field(valField)
	if key == nil || val == nil {
		return nil, fmt.Errorf("agglib: type %q lacks field %q or %q", typeName, keyField, valField)
	}
	if key.Kind != object.KInt64 || val.Kind != f.val {
		return nil, fmt.Errorf("agglib: %s.%s must be %v and %s.%s %v, got %v and %v",
			typeName, keyField, object.KInt64, typeName, valField, f.val, key.Kind, val.Kind)
	}
	return &engine.AggSpec{
		KeyKind: object.KInt64,
		ValKind: f.val,
		Fold:    f.op,
		Finalize: func(a *object.Allocator, k, v object.Value) (object.Ref, error) {
			out, err := a.MakeObject(ti)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(out, key, k.I)
			if f.val == object.KFloat64 {
				object.SetF64(out, val, v.F)
			} else {
				object.SetI64(out, val, v.I)
			}
			return out, nil
		},
	}, nil
}

// New builds the shippable group-by aggregation of the named family
// ("sumI64", "minF64", "countI64", ...) over a scan of (db, set): group rows
// of typeName by its int64 keyField and fold its valField, which also
// receives the result (countI64 reads no value: it counts the group's rows
// into valField). The returned computation carries the family name, so
// proc-mode clusters can ship it to worker processes.
func New(reg *object.Registry, name, db, set, typeName, keyField, valField string) (*core.Aggregate, error) {
	f, ok := families[name]
	if !ok {
		return nil, fmt.Errorf("agglib: no aggregation family %q", name)
	}
	spec, err := f.spec([]string{typeName, keyField, valField}, reg)
	if err != nil {
		return nil, err
	}
	val := func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, valField) }
	if f.count {
		val = func(*lambda.Arg) lambda.Term { return lambda.ConstI64(1) }
	}
	return &core.Aggregate{
		In:       core.NewScan(db, set, typeName),
		ArgType:  typeName,
		Name:     strings.Join([]string{name, typeName, keyField, valField}, "|"),
		Key:      func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, keyField) },
		Val:      val,
		KeyKind:  spec.KeyKind,
		ValKind:  spec.ValKind,
		Fold:     spec.Fold,
		Finalize: spec.Finalize,
	}, nil
}

// SumI64 is New for the "sumI64" family: group rows of typeName by its
// int64 keyField, sum its int64 valField.
func SumI64(reg *object.Registry, db, set, typeName, keyField, valField string) (*core.Aggregate, error) {
	return New(reg, "sumI64", db, set, typeName, keyField, valField)
}
