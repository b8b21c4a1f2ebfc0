package core

// Rebuild is the receiving half of program shipping: a worker OS process
// (cmd/pcworker) gets a job as optimized TCAP text — the same rendering the
// master fingerprints — and reconstructs an executable CompileResult from
// it. The TCAP Info entries the compiler records are the whole contract:
// every APPLY carries enough Info to rebuild its kernel, SCAN carries its
// type binding, and a *named* AGGREGATE carries the family name that
// resolves its Combine/Finalize on this side of the process boundary.
//
// A SORT statement carries its per-key "desc" flags and its "limit" as
// Info, which rebuild its SortSpec. What cannot cross the boundary stays
// explicit: method-call kernels, opaque native functions that were never
// registered by name, anonymous aggregations, joins, windows and DISTINCT
// (whose Combine/Emit and Make are closures) all return an error naming the
// statement instead of silently executing something different from what
// the master compiled.

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/tcap"
)

// AggFamilyFn builds one aggregation family member's spec from the
// pipe-separated arguments of its name ("sumI64|Rec|grp|val" calls the
// "sumI64" family with ["Rec", "grp", "val"]). The registry holds the
// session's registered user types, so Finalize can resolve its output
// layout by name.
type AggFamilyFn func(args []string, reg *object.Registry) (*engine.AggSpec, error)

var (
	rebuildMu   sync.RWMutex
	aggFamilies = map[string]AggFamilyFn{}
	nativeFns   = map[string]struct {
		fn    lambda.NativeFn
		nargs int
	}{}
)

// RegisterAggFamily registers a named aggregation family (typically from a
// package init, so master and worker binaries that import the same package
// agree on the name). Re-registering a prefix replaces it.
func RegisterAggFamily(prefix string, fn AggFamilyFn) {
	rebuildMu.Lock()
	aggFamilies[prefix] = fn
	rebuildMu.Unlock()
}

// RegisterNativeFn registers a named native function so APPLY statements
// with Info type "native" survive shipping. The name must match the
// lambda.Native's Name on the compiling side.
func RegisterNativeFn(name string, fn lambda.NativeFn, nargs int) {
	rebuildMu.Lock()
	nativeFns[name] = struct {
		fn    lambda.NativeFn
		nargs int
	}{fn, nargs}
	rebuildMu.Unlock()
}

// Rebuild parses a shipped TCAP program and reconstructs its executable
// CompileResult against reg's registered types.
func Rebuild(progText string, reg *object.Registry) (*CompileResult, error) {
	prog, err := tcap.Parse(progText)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding shipped program: %w", err)
	}
	res := &CompileResult{
		Prog:      prog,
		Stages:    engine.NewStageRegistry(),
		AggSpecs:  map[string]*engine.AggSpec{},
		SortSpecs: map[string]*SortSpec{},
	}
	for _, s := range prog.Stmts {
		switch s.Op {
		case tcap.OpApply:
			k, err := rebuildKernel(s)
			if err != nil {
				return nil, err
			}
			res.Stages.Register(s.Comp, s.Stage, k)
		case tcap.OpAggregate:
			spec, err := rebuildAggSpec(s, reg)
			if err != nil {
				return nil, err
			}
			res.AggSpecs[s.Out.Name] = spec
		case tcap.OpSort:
			spec, err := rebuildSortSpec(s)
			if err != nil {
				return nil, err
			}
			res.SortSpecs[s.Out.Name] = spec
		case tcap.OpJoin, tcap.OpWindow, tcap.OpDistinct:
			return nil, fmt.Errorf("core: %s statements are not shippable (stmt %q)", s.Op, s.Out.Name)
		case tcap.OpFilter, tcap.OpHash, tcap.OpFlatten, tcap.OpOutput:
			// Structural statements: the engine executes them without a
			// registered kernel (the compiler registers none either).
		}
	}
	return res, nil
}

// rebuildKernel reconstructs one APPLY statement's kernel from its Info.
func rebuildKernel(s *tcap.Stmt) (engine.ApplyKernel, error) {
	switch s.Info["type"] {
	case "attAccess":
		return memberKernel(s.Info["attName"]), nil
	case "methodCall":
		return nil, fmt.Errorf("core: method-call kernel %q is not shippable (stmt %q)",
			s.Info["methodName"], s.Out.Name)
	case "const":
		v, err := rebuildConst(s)
		if err != nil {
			return nil, err
		}
		return constKernel(v), nil
	case "native":
		rebuildMu.RLock()
		def, ok := nativeFns[s.Info["name"]]
		rebuildMu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("core: native function %q is not registered on this side (stmt %q)",
				s.Info["name"], s.Out.Name)
		}
		if def.nargs != len(s.Applied.Cols) {
			return nil, fmt.Errorf("core: native function %q takes %d args, statement %q applies %d",
				s.Info["name"], def.nargs, s.Out.Name, len(s.Applied.Cols))
		}
		return nativeKernel(def.fn, def.nargs), nil
	case "equalityCheck", "comparison", "arith":
		return binaryKernel(lambda.Op(s.Info["op"])), nil
	case "bool":
		if s.Info["op"] == "!" {
			return notKernel(), nil
		}
		return binaryKernel(lambda.Op(s.Info["op"])), nil
	default:
		return nil, fmt.Errorf("core: unknown APPLY kernel type %q (stmt %q)", s.Info["type"], s.Out.Name)
	}
}

// rebuildConst reconstructs a constant's exact value from the lossless
// "kind"/"cval" Info pair constInfo wrote at compile time.
func rebuildConst(s *tcap.Stmt) (object.Value, error) {
	kindStr, ok := s.Info["kind"]
	if !ok {
		return object.Value{}, fmt.Errorf("core: const statement %q lacks a machine-readable value", s.Out.Name)
	}
	kind, err := strconv.Atoi(kindStr)
	if err != nil {
		return object.Value{}, fmt.Errorf("core: const statement %q: bad kind %q", s.Out.Name, kindStr)
	}
	cval := s.Info["cval"]
	switch object.Kind(kind) {
	case object.KBool:
		b, err := strconv.ParseBool(cval)
		if err != nil {
			return object.Value{}, fmt.Errorf("core: const statement %q: %w", s.Out.Name, err)
		}
		return object.BoolValue(b), nil
	case object.KInt32:
		i, err := strconv.ParseInt(cval, 10, 32)
		if err != nil {
			return object.Value{}, fmt.Errorf("core: const statement %q: %w", s.Out.Name, err)
		}
		return object.Int32Value(int32(i)), nil
	case object.KInt64:
		i, err := strconv.ParseInt(cval, 10, 64)
		if err != nil {
			return object.Value{}, fmt.Errorf("core: const statement %q: %w", s.Out.Name, err)
		}
		return object.Int64Value(i), nil
	case object.KFloat64:
		f, err := strconv.ParseFloat(cval, 64)
		if err != nil {
			return object.Value{}, fmt.Errorf("core: const statement %q: %w", s.Out.Name, err)
		}
		return object.Float64Value(f), nil
	case object.KString:
		return object.StringValue(cval), nil
	default:
		return object.Value{}, fmt.Errorf("core: const statement %q: unshippable kind %d", s.Out.Name, kind)
	}
}

// rebuildAggSpec resolves a named aggregation's family spec from the
// AGGREGATE statement's Info.
func rebuildAggSpec(s *tcap.Stmt, reg *object.Registry) (*engine.AggSpec, error) {
	name := s.Info["agg"]
	if name == "" {
		return nil, fmt.Errorf("core: anonymous aggregation %q is not shippable (set Aggregate.Name)", s.Out.Name)
	}
	parts := strings.Split(name, "|")
	rebuildMu.RLock()
	fn, ok := aggFamilies[parts[0]]
	rebuildMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: aggregation family %q is not registered on this side (stmt %q)",
			parts[0], s.Out.Name)
	}
	spec, err := fn(parts[1:], reg)
	if err != nil {
		return nil, fmt.Errorf("core: aggregation %q: %w", name, err)
	}
	return spec, nil
}

// rebuildSortSpec reads a SORT statement's SortSpec back from the Info the
// compiler wrote: one "a"/"d" flag per key column, and the top-k "limit"
// when there is one.
func rebuildSortSpec(s *tcap.Stmt) (*SortSpec, error) {
	flags := strings.Split(s.Info["desc"], ",")
	if len(flags) != len(s.Applied.Cols) {
		return nil, fmt.Errorf("core: sort statement %q orders %d keys but carries %d desc flags",
			s.Out.Name, len(s.Applied.Cols), len(flags))
	}
	spec := &SortSpec{NumKeys: len(flags), Desc: make([]bool, len(flags))}
	for i, f := range flags {
		if f != "a" && f != "d" {
			return nil, fmt.Errorf("core: sort statement %q: bad desc flag %q", s.Out.Name, f)
		}
		spec.Desc[i] = f == "d"
	}
	if l, ok := s.Info["limit"]; ok {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("core: sort statement %q: bad limit %q", s.Out.Name, l)
		}
		spec.Limit = n
	}
	return spec, nil
}
