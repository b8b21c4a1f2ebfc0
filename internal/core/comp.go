// Package core implements PlinyCompute's primary contribution glue: the
// Computation toolkit (SelectionComp, JoinComp, AggregateComp,
// MultiSelectionComp — paper §4), the TCAP compiler that lowers user-written
// lambda term construction functions into optimizable TCAP programs (paper
// §5), one worker's stage work over the vectorized engine (StageEnv, which
// every cluster worker runs), and the single-process executor that runs a
// physical plan through it as one worker.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
)

// Computation is a node in a user's query graph. Users build graphs from
// the concrete types below and hand the sinks (Write computations) to
// Compile; the system decides join orders, join algorithms, and
// materialization — "declarative in the large".
type Computation interface {
	// Inputs returns upstream computations.
	Inputs() []Computation
	// label is the computation-kind prefix used to name the compiled
	// Computation ("Sel", "Join", ...).
	label() string
}

// Scan reads a stored set of registered objects.
type Scan struct {
	Db, Set  string
	TypeName string
}

// Inputs returns no inputs (Scan is a source).
func (s *Scan) Inputs() []Computation { return nil }
func (s *Scan) label() string         { return "Scan" }

// NewScan creates a set reader (the paper's ObjectReader).
func NewScan(db, set, typeName string) *Scan { return &Scan{Db: db, Set: set, TypeName: typeName} }

// Write stores its input computation's output into a set (the paper's
// Writer).
type Write struct {
	Db, Set string
	In      Computation
}

// Inputs returns the written computation.
func (w *Write) Inputs() []Computation { return []Computation{w.In} }
func (w *Write) label() string         { return "Out" }

// NewWrite creates a set writer.
func NewWrite(db, set string, in Computation) *Write { return &Write{Db: db, Set: set, In: in} }

// Selection is SelectionComp: relational selection plus projection over one
// input. Predicate and Projection are lambda term construction functions
// (paper §4); a nil Predicate accepts everything, a nil Projection is the
// identity.
type Selection struct {
	In         Computation
	ArgType    string
	Predicate  func(arg *lambda.Arg) lambda.Term
	Projection func(arg *lambda.Arg) lambda.Term
}

// Inputs returns the single input.
func (s *Selection) Inputs() []Computation { return []Computation{s.In} }
func (s *Selection) label() string         { return "Sel" }

// MultiSelection is MultiSelectionComp: selection with a set-valued
// projection. Projection must produce a handle to a PC Vector; each element
// becomes one output object (lowered to FLATTEN).
type MultiSelection struct {
	In         Computation
	ArgType    string
	Predicate  func(arg *lambda.Arg) lambda.Term
	Projection func(arg *lambda.Arg) lambda.Term
}

// Inputs returns the single input.
func (m *MultiSelection) Inputs() []Computation { return []Computation{m.In} }
func (m *MultiSelection) label() string         { return "MSel" }

// JoinKind selects a join's output semantics. Inner joins emit one row per
// matching pair; semi joins emit each left row with at least one match; anti
// joins emit each left row with no match. The outer kinds additionally emit
// the unmatched rows of one (left/right) or both (full) sides, null-extended.
type JoinKind int

// Join kinds. Semi and anti joins are binary (exactly two inputs) and keep
// only left-side objects, so they need no Projection. The outer kinds
// (left/right/full) are accepted by the cluster's callback join API
// (Cluster.HashPartitionJoinKind), which surfaces the absent side of a
// null-extended row as object.NilRef; the lambda/TCAP compiler does not
// lower them (a lambda projection cannot observe an absent input).
const (
	JoinInner JoinKind = iota
	JoinSemi
	JoinAnti
	JoinLeft
	JoinRight
	JoinFull
)

// Join is JoinComp: a join of arbitrary arity and arbitrary predicate. The
// compiler analyzes the predicate's lambda term, extracts equi-join
// conjuncts to drive hash joins, re-verifies them after probing, and pushes
// the rest into post-join filters (which the optimizer may then push below
// the join). The user never specifies join order or algorithm.
//
// Kind selects the join semantics. JoinSemi/JoinAnti require exactly two
// inputs and a predicate that is a single equi-join conjunct; the left input
// streams through as the probe side, the right input builds an exact key-value
// set (no hash-collision re-verification is needed), and the output is the
// left-side object — Projection must be nil.
type Join struct {
	In         []Computation
	ArgTypes   []string
	Kind       JoinKind
	Predicate  func(args []*lambda.Arg) lambda.Term
	Projection func(args []*lambda.Arg) lambda.Term
}

// Inputs returns all join inputs.
func (j *Join) Inputs() []Computation { return j.In }
func (j *Join) label() string         { return "Join" }

// Aggregate is AggregateComp: for each input object it extracts a key and a
// value (lambda terms), combines values per key with an associative Combine
// or a declared Fold, and finalizes each (key, aggregate) pair into an output
// object.
type Aggregate struct {
	In      Computation
	ArgType string

	// Name, when non-empty, identifies this aggregation in a registered
	// aggregation family ("family|arg|arg|..."), making the computation
	// shippable: the compiler records it in the AGGREGATE statement's Info
	// and Rebuild resolves it back to an identical spec on the receiving
	// side (Combine/Finalize are native Go closures and cannot cross a
	// process boundary by value). Anonymous aggregations (empty Name) work
	// exactly as before but only execute in the process that built them.
	Name string

	Key func(arg *lambda.Arg) lambda.Term
	Val func(arg *lambda.Arg) lambda.Term

	KeyKind object.Kind
	ValKind object.Kind

	// Combine is the aggregation's algebra as a closure. A scalar sum, min
	// or max is declared as a Fold instead and leaves Combine nil (see
	// engine.AggSpec.Fold: the engine then folds typed columns in place).
	Combine  engine.CombineFn
	Fold     object.FoldOp
	Finalize func(a *object.Allocator, key, val object.Value) (object.Ref, error)
}

// Inputs returns the single input.
func (a *Aggregate) Inputs() []Computation { return []Computation{a.In} }
func (a *Aggregate) label() string         { return "Agg" }

// SortKey is one ordering key of an OrderBy or Window: a lambda term
// extracting the key from the input object, the key's scalar kind, and the
// sort direction. NULL-valued keys (terms evaluating to an invalid Value)
// sort before every present value in ascending order and after in
// descending order; float NaNs are all one key, after +Inf ascending and
// first descending.
type SortKey struct {
	Term func(arg *lambda.Arg) lambda.Term
	Kind object.Kind
	Desc bool
}

// OrderBy is the ORDER BY / top-k computation: it totally orders its input
// on Keys (in precedence order, stable in the input's arrival order) and,
// when Limit is positive, keeps only the first Limit objects. Distributed
// execution is a merge network: per-thread sorted runs stream over the
// exchange and one consumer merges them page by page — with a bounded-heap
// fast path when Limit is set.
type OrderBy struct {
	In      Computation
	ArgType string
	Keys    []SortKey
	Limit   int
}

// Inputs returns the single input.
func (o *OrderBy) Inputs() []Computation { return []Computation{o.In} }
func (o *OrderBy) label() string         { return "Sort" }

// Distinct deduplicates its input on a key, emitting one output object per
// distinct key value via Make. It rides the aggregation path as a keys-only
// sink (the running "value" is the key itself, combined keep-first), so it
// inherits the agg path's shuffle, swiss-table probing, and recovery for
// free. Key kinds follow the same rules as Aggregate keys.
type Distinct struct {
	In      Computation
	ArgType string
	Key     func(arg *lambda.Arg) lambda.Term
	KeyKind object.Kind
	Make    func(a *object.Allocator, key object.Value) (object.Ref, error)
}

// Inputs returns the single input.
func (d *Distinct) Inputs() []Computation { return []Computation{d.In} }
func (d *Distinct) label() string         { return "Dist" }

// Window is a window-style running aggregate over the sorted stream: the
// input is totally ordered on Keys exactly like OrderBy, then each object's
// Val is folded into a running accumulator with Combine (in sorted order),
// and Emit produces one output object per input object from the object and
// the accumulator's value at that point — e.g. a running total ordered by
// date. The fold happens on the consumer side of the sort's merge network,
// so the running value is globally consistent across workers.
type Window struct {
	In      Computation
	ArgType string
	Keys    []SortKey
	Val     func(arg *lambda.Arg) lambda.Term
	ValKind object.Kind
	Combine engine.CombineFn
	Emit    func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error)
}

// Inputs returns the single input.
func (w *Window) Inputs() []Computation { return []Computation{w.In} }
func (w *Window) label() string         { return "Win" }

// topoOrder returns every computation reachable from the sinks in
// dependency order (inputs before consumers).
func topoOrder(sinks []Computation) ([]Computation, error) {
	var order []Computation
	state := map[Computation]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(c Computation) error
	visit = func(c Computation) error {
		switch state[c] {
		case 1:
			return fmt.Errorf("core: computation graph has a cycle")
		case 2:
			return nil
		}
		state[c] = 1
		for _, in := range c.Inputs() {
			if in == nil {
				return fmt.Errorf("core: %T has a nil input", c)
			}
			if err := visit(in); err != nil {
				return err
			}
		}
		state[c] = 2
		order = append(order, c)
		return nil
	}
	for _, s := range sinks {
		if err := visit(s); err != nil {
			return nil, err
		}
	}
	return order, nil
}
