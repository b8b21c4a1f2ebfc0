// Package tcap defines TCAP, PC's functional domain-specific intermediate
// language (paper §5.2). A TCAP program is a DAG of statements; each
// statement consumes a named *vector list* (a tuple of named columns of PC
// objects or scalars), applies one atomic operation, and produces a new
// named vector list. Because every operation carries a key-value metadata
// map describing what it was compiled from, TCAP is optimizable with
// relational-style rules (package optimizer) before physical planning
// (package physical).
package tcap

import (
	"fmt"
	"sort"
	"strings"
)

// OpKind enumerates TCAP's atomic operations.
type OpKind int

// TCAP operations. SCAN and OUTPUT anchor the DAG at stored sets; APPLY,
// FILTER, HASH, JOIN, AGGREGATE and FLATTEN are the paper's operator set
// (FLATTEN backs MultiSelectionComp's set-valued projection).
const (
	OpScan OpKind = iota
	OpApply
	OpFilter
	OpHash
	OpJoin
	OpAggregate
	OpFlatten
	OpOutput
	// OpSort orders a vector list on one or more key columns (Applied
	// names the key columns in precedence order; Info carries per-key
	// directions and an optional top-k limit). Distributed execution is a
	// merge network over the exchange: per-thread sorted runs stream to
	// one consumer, which merges every run page as a lane.
	OpSort
	// OpDistinct deduplicates on a key column, riding the aggregation
	// path as a keys-only sink (Applied names the key column).
	OpDistinct
	// OpWindow computes a running aggregate over the globally sorted
	// stream produced by a sort merge (Applied names the sort-key columns
	// followed by the value column; Info carries directions and the
	// window spec name).
	OpWindow
)

// String returns the operation's TCAP keyword ("SCAN", "APPLY", …).
func (k OpKind) String() string {
	switch k {
	case OpScan:
		return "SCAN"
	case OpApply:
		return "APPLY"
	case OpFilter:
		return "FILTER"
	case OpHash:
		return "HASH"
	case OpJoin:
		return "JOIN"
	case OpAggregate:
		return "AGGREGATE"
	case OpFlatten:
		return "FLATTEN"
	case OpOutput:
		return "OUTPUT"
	case OpSort:
		return "SORT"
	case OpDistinct:
		return "DISTINCT"
	case OpWindow:
		return "WINDOW"
	default:
		return fmt.Sprintf("OP(%d)", int(k))
	}
}

// ColumnsRef names a vector list and a subset of its columns, e.g.
// "WDNm_1(dep,emp,sup,nm1)".
type ColumnsRef struct {
	Name string
	Cols []string
}

// String renders the reference in TCAP syntax, "name(col,col,…)".
func (c ColumnsRef) String() string {
	return c.Name + "(" + strings.Join(c.Cols, ",") + ")"
}

// Has reports whether the reference includes column col.
func (c ColumnsRef) Has(col string) bool {
	for _, x := range c.Cols {
		if x == col {
			return true
		}
	}
	return false
}

// Stmt is one TCAP statement:
//
//	Out(cols) <= OP(Applied, Copied, 'Comp', 'Stage', [(k,v),...]);
//
// Applied names the input columns the operation consumes; Copied names the
// input columns shallow-copied to the output. For APPLY/HASH/FLATTEN the
// output's final column(s) are newly produced. JOIN takes a second pair
// (Applied2, Copied2) for its right input. SCAN and OUTPUT carry Db/Set.
type Stmt struct {
	Out     ColumnsRef
	Op      OpKind
	Applied ColumnsRef
	Copied  ColumnsRef

	// Applied2/Copied2 are used only by OpJoin (the right input).
	Applied2 ColumnsRef
	Copied2  ColumnsRef

	// Comp is the Computation the statement was compiled from
	// (e.g. "Join_2212"); Stage names the compiled pipeline stage
	// (e.g. "att_acc_1"). The pair keys the executor's kernel registry.
	Comp  string
	Stage string

	// Db/Set anchor SCAN and OUTPUT statements at stored sets.
	Db, Set string

	// Info is the operation's key-value metadata — informational for
	// execution, vital for optimization (paper §5.2).
	Info map[string]string
}

// NewColumns returns the names of columns the statement creates (columns in
// Out not copied from an input).
func (s *Stmt) NewColumns() []string {
	copied := map[string]bool{}
	for _, c := range s.Copied.Cols {
		copied[c] = true
	}
	for _, c := range s.Copied2.Cols {
		copied[c] = true
	}
	var out []string
	for _, c := range s.Out.Cols {
		if !copied[c] {
			out = append(out, c)
		}
	}
	return out
}

// InfoKeysSorted returns metadata keys in deterministic order (printing).
func (s *Stmt) InfoKeysSorted() []string {
	keys := make([]string, 0, len(s.Info))
	for k := range s.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the statement.
func (s *Stmt) Clone() *Stmt {
	c := *s
	c.Out.Cols = append([]string(nil), s.Out.Cols...)
	c.Applied.Cols = append([]string(nil), s.Applied.Cols...)
	c.Copied.Cols = append([]string(nil), s.Copied.Cols...)
	c.Applied2.Cols = append([]string(nil), s.Applied2.Cols...)
	c.Copied2.Cols = append([]string(nil), s.Copied2.Cols...)
	c.Info = make(map[string]string, len(s.Info))
	for k, v := range s.Info {
		c.Info[k] = v
	}
	return &c
}

// Program is an ordered list of TCAP statements forming a DAG.
type Program struct {
	Stmts []*Stmt
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	out := &Program{Stmts: make([]*Stmt, len(p.Stmts))}
	for i, s := range p.Stmts {
		out.Stmts[i] = s.Clone()
	}
	return out
}

// Producer returns the statement producing the named vector list, or nil.
func (p *Program) Producer(name string) *Stmt {
	for _, s := range p.Stmts {
		if s.Out.Name == name {
			return s
		}
	}
	return nil
}

// Consumers returns the statements reading the named vector list.
func (p *Program) Consumers(name string) []*Stmt {
	var out []*Stmt
	for _, s := range p.Stmts {
		if s.Op == OpScan {
			continue
		}
		if s.Applied.Name == name || (s.Op == OpJoin && s.Applied2.Name == name) {
			out = append(out, s)
		}
	}
	return out
}

// Validate checks structural invariants: each statement's inputs must be
// produced earlier, every referenced column must exist in the producer's
// output, and output names must be unique.
func (p *Program) Validate() error {
	produced := map[string]*Stmt{}
	for i, s := range p.Stmts {
		check := func(ref ColumnsRef, which string) error {
			if ref.Name == "" {
				return nil
			}
			prod, ok := produced[ref.Name]
			if !ok {
				return fmt.Errorf("tcap: stmt %d (%s): %s input %q not yet produced", i, s.Out.Name, which, ref.Name)
			}
			for _, c := range ref.Cols {
				if !prod.Out.Has(c) {
					return fmt.Errorf("tcap: stmt %d (%s): column %q not in %s", i, s.Out.Name, c, prod.Out)
				}
			}
			return nil
		}
		if s.Op != OpScan {
			if err := check(s.Applied, "applied"); err != nil {
				return err
			}
			if err := check(s.Copied, "copied"); err != nil {
				return err
			}
		}
		if s.Op == OpJoin {
			if err := check(s.Applied2, "applied2"); err != nil {
				return err
			}
			if err := check(s.Copied2, "copied2"); err != nil {
				return err
			}
		}
		if s.Op != OpOutput {
			if s.Out.Name == "" {
				return fmt.Errorf("tcap: stmt %d lacks an output name", i)
			}
			if _, dup := produced[s.Out.Name]; dup {
				return fmt.Errorf("tcap: duplicate output name %q", s.Out.Name)
			}
			produced[s.Out.Name] = s
		}
	}
	return nil
}

// Sinks returns the statements whose output no other statement consumes
// (typically the OUTPUT statements).
func (p *Program) Sinks() []*Stmt {
	var out []*Stmt
	for _, s := range p.Stmts {
		if s.Op == OpOutput || len(p.Consumers(s.Out.Name)) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// IsAncestor reports whether statement a is an ancestor of statement b in
// the dataflow DAG (a's output feeds, possibly transitively, b's input).
// Used by optimization rules such as redundant-method-call elimination.
func (p *Program) IsAncestor(a, b *Stmt) bool {
	if a == b {
		return false
	}
	seen := map[string]bool{}
	var reach func(s *Stmt) bool
	reach = func(s *Stmt) bool {
		if s == nil || s.Op == OpScan {
			return false
		}
		for _, in := range []string{s.Applied.Name, s.Applied2.Name} {
			if in == "" || seen[in] {
				continue
			}
			seen[in] = true
			prod := p.Producer(in)
			if prod == a || reach(prod) {
				return true
			}
		}
		return false
	}
	return reach(b)
}

// Remove deletes a statement from the program.
func (p *Program) Remove(target *Stmt) {
	for i, s := range p.Stmts {
		if s == target {
			p.Stmts = append(p.Stmts[:i], p.Stmts[i+1:]...)
			return
		}
	}
}
