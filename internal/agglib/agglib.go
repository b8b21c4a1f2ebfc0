// Package agglib is the shared library of named aggregation families.
// Both the master and the worker binary (cmd/pcworker) import it, so an
// aggregation named here resolves to the *same* Combine/Finalize closures
// on both sides of the process boundary — the names, not the closures,
// cross the wire. Anonymous core.Aggregate computations keep working
// in-process; only jobs shipped to worker processes need a family.
package agglib

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
)

// families is every family this package registers, by name prefix.
var families = map[string]core.AggFamilyFn{
	"sumI64": buildSumI64,
}

func init() {
	for prefix, fn := range families {
		core.RegisterAggFamily(prefix, fn)
	}
}

// buildSumI64 constructs the spec for "sumI64|<typeName>|<keyField>|<valField>":
// group by an int64 field, sum an int64 field, and finalize each group back
// into an object of the input type with key and sum in those two fields.
func buildSumI64(args []string, reg *object.Registry) (*engine.AggSpec, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("agglib: sumI64 wants type|keyField|valField, got %d args", len(args))
	}
	typeName, keyField, valField := args[0], args[1], args[2]
	ti := reg.LookupName(typeName)
	if ti == nil {
		return nil, fmt.Errorf("agglib: sumI64 output type %q is not registered", typeName)
	}
	key, val := ti.Field(keyField), ti.Field(valField)
	if key == nil || val == nil {
		return nil, fmt.Errorf("agglib: type %q lacks field %q or %q", typeName, keyField, valField)
	}
	return &engine.AggSpec{
		KeyKind: object.KInt64,
		ValKind: object.KInt64,
		Combine: func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Int64Value(cur.I + next.I), nil
		},
		Finalize: func(a *object.Allocator, k, v object.Value) (object.Ref, error) {
			out, err := a.MakeObject(ti)
			if err != nil {
				return object.NilRef, err
			}
			object.SetI64(out, key, k.I)
			object.SetI64(out, val, v.I)
			return out, nil
		},
	}, nil
}

// SumI64 builds the shippable group-by-sum aggregation over a scan of
// (db, set): group rows of typeName by its int64 keyField, sum its int64
// valField. The returned computation carries the family name, so proc-mode
// clusters can ship it to worker processes.
func SumI64(reg *object.Registry, db, set, typeName, keyField, valField string) (*core.Aggregate, error) {
	name := fmt.Sprintf("sumI64|%s|%s|%s", typeName, keyField, valField)
	spec, err := buildSumI64([]string{typeName, keyField, valField}, reg)
	if err != nil {
		return nil, err
	}
	return &core.Aggregate{
		In:       core.NewScan(db, set, typeName),
		ArgType:  typeName,
		Name:     name,
		Key:      func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, keyField) },
		Val:      func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, valField) },
		KeyKind:  spec.KeyKind,
		ValKind:  spec.ValKind,
		Combine:  spec.Combine,
		Finalize: spec.Finalize,
	}, nil
}
