package engine

import (
	"fmt"

	"repro/internal/object"
)

// BatchSize is the default number of objects per vector pushed through a
// pipeline; the paper tunes this to L1/L2 cache size.
const BatchSize = 256

// Column is one vector of a vector list. Concrete types are monomorphic
// slices so inner loops over a column are tight typed loops — the engine's
// substitute for the C++ binding's template-instantiated pipeline stages.
type Column interface {
	Len() int
	// Value returns element i boxed (slow path; used by generic kernels
	// and natives).
	Value(i int) object.Value
	// Gather builds a new column from the selected indices.
	Gather(idx []int) Column
}

// BoolCol is a vector of booleans (e.g. filter inputs).
type BoolCol []bool

// Len reports the number of elements.
func (c BoolCol) Len() int { return len(c) }

// Value returns element i boxed.
func (c BoolCol) Value(i int) object.Value { return object.BoolValue(c[i]) }

// Gather builds a new column from the selected indices.
func (c BoolCol) Gather(idx []int) Column {
	out := make(BoolCol, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// I64Col is a vector of int64 values.
type I64Col []int64

// Len reports the number of elements.
func (c I64Col) Len() int { return len(c) }

// Value returns element i boxed.
func (c I64Col) Value(i int) object.Value { return object.Int64Value(c[i]) }

// Gather builds a new column from the selected indices.
func (c I64Col) Gather(idx []int) Column {
	out := make(I64Col, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// F64Col is a vector of float64 values.
type F64Col []float64

// Len reports the number of elements.
func (c F64Col) Len() int { return len(c) }

// Value returns element i boxed.
func (c F64Col) Value(i int) object.Value { return object.Float64Value(c[i]) }

// Gather builds a new column from the selected indices.
func (c F64Col) Gather(idx []int) Column {
	out := make(F64Col, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// U64Col is a vector of hash values (the HASH operation's output).
type U64Col []uint64

// Len reports the number of elements.
func (c U64Col) Len() int { return len(c) }

// Value returns element i boxed.
func (c U64Col) Value(i int) object.Value { return object.Int64Value(int64(c[i])) }

// Gather builds a new column from the selected indices.
func (c U64Col) Gather(idx []int) Column {
	out := make(U64Col, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// StrCol is a vector of strings: KString values in either form, so one
// column carries views of the string objects on the batch's pages (member
// reads, flattened string vectors) and Go strings (constants, native
// results) alike. Nothing is copied off a page until a consumer asks for
// Str(); the views are valid while the batch's pages are pinned.
type StrCol []object.Value

// Len reports the number of elements.
func (c StrCol) Len() int { return len(c) }

// Value returns element i, which is already boxed.
func (c StrCol) Value(i int) object.Value { return c[i] }

// Gather builds a new column from the selected indices.
func (c StrCol) Gather(idx []int) Column {
	out := make(StrCol, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// RefCol is a vector of handles to PC objects.
type RefCol []object.Ref

// Len reports the number of elements.
func (c RefCol) Len() int { return len(c) }

// Value returns element i boxed.
func (c RefCol) Value(i int) object.Value { return object.HandleValue(c[i]) }

// Gather builds a new column from the selected indices.
func (c RefCol) Gather(idx []int) Column {
	out := make(RefCol, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// ValCol is the generic fallback column of boxed values.
type ValCol []object.Value

// Len reports the number of elements.
func (c ValCol) Len() int { return len(c) }

// Value returns element i boxed.
func (c ValCol) Value(i int) object.Value { return c[i] }

// Gather builds a new column from the selected indices.
func (c ValCol) Gather(idx []int) Column {
	out := make(ValCol, len(idx))
	for j, i := range idx {
		out[j] = c[i]
	}
	return out
}

// ColumnOf builds the tightest column type for a slice of boxed values.
func ColumnOf(vals []object.Value) Column {
	if len(vals) == 0 {
		return ValCol(nil)
	}
	k := vals[0].K
	for _, v := range vals[1:] {
		if v.K != k {
			return ValCol(vals)
		}
	}
	switch k {
	case object.KBool:
		out := make(BoolCol, len(vals))
		for i, v := range vals {
			out[i] = v.B
		}
		return out
	case object.KInt32, object.KInt64:
		out := make(I64Col, len(vals))
		for i, v := range vals {
			out[i] = v.I
		}
		return out
	case object.KFloat64:
		out := make(F64Col, len(vals))
		for i, v := range vals {
			out[i] = v.F
		}
		return out
	case object.KString:
		return StrCol(vals)
	case object.KHandle:
		out := make(RefCol, len(vals))
		for i, v := range vals {
			out[i] = v.H
		}
		return out
	default:
		return ValCol(vals)
	}
}

// VectorList is the unit of data flowing through a pipeline: an ordered set
// of equal-length named columns (paper §5.2).
type VectorList struct {
	Names []string
	Cols  []Column
}

// NewVectorList builds a vector list from parallel name/column slices.
func NewVectorList(names []string, cols []Column) (*VectorList, error) {
	if len(names) != len(cols) {
		return nil, fmt.Errorf("engine: %d names for %d columns", len(names), len(cols))
	}
	n := -1
	for i, c := range cols {
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("engine: column %q length %d != %d", names[i], c.Len(), n)
		}
	}
	return &VectorList{Names: names, Cols: cols}, nil
}

// Rows returns the number of rows (0 for an empty list).
func (vl *VectorList) Rows() int {
	if len(vl.Cols) == 0 {
		return 0
	}
	return vl.Cols[0].Len()
}

// Col returns the named column, or nil.
func (vl *VectorList) Col(name string) Column {
	for i, n := range vl.Names {
		if n == name {
			return vl.Cols[i]
		}
	}
	return nil
}

// Project returns a new vector list with the named columns (shallow copy of
// column references — the paper's zero-copy column passing). Both slices
// are presized with one spare slot — nearly every caller Appends the
// statement's new column next — so the per-statement-per-batch path does
// one allocation instead of a growth chain.
func (vl *VectorList) Project(names []string) (*VectorList, error) {
	out := &VectorList{Names: make([]string, 0, len(names)+1), Cols: make([]Column, 0, len(names)+1)}
	if err := vl.projectInto(out, names); err != nil {
		return nil, err
	}
	return out, nil
}

// projectInto is Project onto dst's header, reusing its slices: a
// pipeline's per-statement output header is projected afresh every batch.
func (vl *VectorList) projectInto(dst *VectorList, names []string) error {
	dst.Names, dst.Cols = dst.Names[:0], dst.Cols[:0]
	for _, n := range names {
		c := vl.Col(n)
		if c == nil {
			return fmt.Errorf("engine: missing column %q", n)
		}
		dst.Names = append(dst.Names, n)
		dst.Cols = append(dst.Cols, c)
	}
	return nil
}

// Append adds a new named column.
func (vl *VectorList) Append(name string, c Column) {
	vl.Names = append(vl.Names, name)
	vl.Cols = append(vl.Cols, c)
}

// GatherAll filters every column to the selected row indices.
func (vl *VectorList) GatherAll(idx []int) *VectorList {
	out := &VectorList{Names: append([]string(nil), vl.Names...), Cols: make([]Column, len(vl.Cols))}
	for i, c := range vl.Cols {
		out.Cols[i] = c.Gather(idx)
	}
	return out
}
