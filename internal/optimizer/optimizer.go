// Package optimizer implements PC's rule-based TCAP optimizer (paper §7).
// The C++ system drives Prolog transformation rules to a fixpoint; here the
// rules are Go passes fired iteratively until no rule improves the program.
//
// Implemented rules:
//
//  1. Redundant APPLY elimination — two APPLYs of the same type
//     (methodCall/attAccess) invoking the same method/member over the same
//     data column, where one is the other's ancestor, collapse into one
//     (method calls are purely functional by contract).
//  2. Filter pushdown past joins — a post-join conjunct whose inputs depend
//     on only one join input is recomputed on that input's pipeline and
//     filtered before the join's HASH, shrinking both the hash table and
//     the probe stream.
//  3. Dead column elimination — columns no downstream statement reads are
//     dropped from Copied/Out lists.
//
// Kernel fusion is no rule here: the engine fuses every chained
// APPLY/FILTER/HASH run of the statements a stage executes, so a program
// re-parsed from its TCAP text fuses exactly as the optimized original.
//
// Rules rely on the compiler's SSA discipline: every column name is produced
// by exactly one statement.
package optimizer

import (
	"repro/internal/tcap"
)

// Stats counts rule applications (tests and the pcbench tooling).
type Stats struct {
	RedundantApplies int
	FiltersPushed    int
	ColumnsDropped   int
	Iterations       int
}

// Optimize drives all rules to a fixpoint on a copy of the program.
func Optimize(prog *tcap.Program) (*tcap.Program, *Stats, error) {
	p := prog.Clone()
	st := &Stats{}
	for iter := 0; iter < 64; iter++ {
		st.Iterations = iter + 1
		changed := false
		if removeRedundantApplies(p, st) {
			changed = true
		}
		if pushFiltersPastJoins(p, st) {
			changed = true
		}
		if !changed {
			break
		}
	}
	// Dead-column elimination runs once at the end (it does not enable
	// further rule firings but shrinks vector lists).
	eliminateDeadColumns(p, st)
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, st, nil
}

// producerIdx returns the index of the statement producing the column, or
// -1. SSA discipline: at most one producer.
func producerIdx(p *tcap.Program, col string) int {
	for i, s := range p.Stmts {
		for _, c := range s.NewColumns() {
			if c == col {
				return i
			}
		}
		if s.Op == tcap.OpScan || s.Op == tcap.OpJoin {
			for _, c := range s.Out.Cols {
				if c == col {
					return i
				}
			}
		}
	}
	return -1
}

// renameColRefs rewrites references to column old as column new in Applied
// lists of statements after fromIdx (Copied lists are handled by dropCol).
func renameColRefs(p *tcap.Program, fromIdx int, old, new string) {
	for i := fromIdx; i < len(p.Stmts); i++ {
		s := p.Stmts[i]
		for j, c := range s.Applied.Cols {
			if c == old {
				s.Applied.Cols[j] = new
			}
		}
		for j, c := range s.Applied2.Cols {
			if c == old {
				s.Applied2.Cols[j] = new
			}
		}
	}
}

// dropColEverywhere removes a column from all Out/Copied lists downstream.
func dropColEverywhere(p *tcap.Program, fromIdx int, col string) {
	drop := func(ref *tcap.ColumnsRef) {
		out := ref.Cols[:0]
		for _, c := range ref.Cols {
			if c != col {
				out = append(out, c)
			}
		}
		ref.Cols = out
	}
	for i := fromIdx; i < len(p.Stmts); i++ {
		s := p.Stmts[i]
		drop(&s.Out)
		drop(&s.Copied)
		drop(&s.Copied2)
	}
}

// rewireListConsumers repoints statements consuming list old to list new.
func rewireListConsumers(p *tcap.Program, old, new string) {
	for _, s := range p.Stmts {
		if s.Op == tcap.OpScan {
			continue
		}
		if s.Applied.Name == old {
			s.Applied.Name = new
		}
		if s.Copied.Name == old {
			s.Copied.Name = new
		}
		if s.Op == tcap.OpJoin {
			if s.Applied2.Name == old {
				s.Applied2.Name = new
			}
			if s.Copied2.Name == old {
				s.Copied2.Name = new
			}
		}
	}
}

// removeRedundantApplies fires rule 1 once per call (returning whether it
// changed the program); the fixpoint driver re-invokes it.
func removeRedundantApplies(p *tcap.Program, st *Stats) bool {
	for i, s1 := range p.Stmts {
		if s1.Op != tcap.OpApply {
			continue
		}
		t1 := s1.Info["type"]
		if t1 != "methodCall" && t1 != "attAccess" {
			continue
		}
		for j := i + 1; j < len(p.Stmts); j++ {
			s2 := p.Stmts[j]
			if s2.Op != tcap.OpApply || s2.Info["type"] != t1 {
				continue
			}
			if s2.Info["methodName"] != s1.Info["methodName"] ||
				s2.Info["attName"] != s1.Info["attName"] {
				continue
			}
			// Same data object: identical applied columns (SSA names).
			if len(s1.Applied.Cols) != len(s2.Applied.Cols) {
				continue
			}
			same := true
			for k := range s1.Applied.Cols {
				if s1.Applied.Cols[k] != s2.Applied.Cols[k] {
					same = false
					break
				}
			}
			if !same {
				continue
			}
			if !p.IsAncestor(s1, s2) {
				continue
			}
			// s1's result column must still be visible at s2's input.
			c1 := s1.NewColumns()[0]
			inProd := p.Producer(s2.Applied.Name)
			if inProd == nil || !inProd.Out.Has(c1) {
				continue
			}
			// Collapse: downstream uses of s2's column become c1,
			// consumers of s2's list read its input list, and s2's
			// column vanishes.
			c2 := s2.NewColumns()[0]
			p.Remove(s2)
			renameColRefs(p, 0, c2, c1)
			dropColEverywhere(p, 0, c2)
			rewireListConsumers(p, s2.Out.Name, s2.Applied.Name)
			st.RedundantApplies++
			return true
		}
	}
	return false
}

// eliminateDeadColumns walks the program backwards collecting, for every
// list, the columns downstream statements actually reference, then trims
// Out/Copied lists accordingly.
func eliminateDeadColumns(p *tcap.Program, st *Stats) {
	needed := map[string]map[string]bool{} // list name -> needed columns
	need := func(list string, cols []string) {
		if needed[list] == nil {
			needed[list] = map[string]bool{}
		}
		for _, c := range cols {
			needed[list][c] = true
		}
	}
	for i := len(p.Stmts) - 1; i >= 0; i-- {
		s := p.Stmts[i]
		switch s.Op {
		case tcap.OpScan:
			continue
		case tcap.OpOutput:
			need(s.Applied.Name, s.Applied.Cols)
			continue
		}
		// Trim this statement's outputs to what downstream needs; new
		// columns are always kept (the statement exists to create
		// them — redundant-apply removal handles useless creators).
		isNeeded := needed[s.Out.Name]
		keepAll := isNeeded == nil // unread lists: materialization targets, keep as-is
		newCols := map[string]bool{}
		for _, c := range s.NewColumns() {
			newCols[c] = true
		}
		// SORT/WINDOW sinks consume their Copied object column directly
		// (like OUTPUT consumes its Applied) — it never appears in Out, so
		// downstream liveness says nothing about it. Keep it untrimmed.
		sinkReads := s.Op == tcap.OpSort || s.Op == tcap.OpWindow
		if !keepAll {
			trim := func(ref *tcap.ColumnsRef) {
				out := ref.Cols[:0]
				for _, c := range ref.Cols {
					if isNeeded[c] || newCols[c] {
						out = append(out, c)
					} else {
						st.ColumnsDropped++
					}
				}
				ref.Cols = out
			}
			trim(&s.Out)
			if !sinkReads {
				trim(&s.Copied)
			}
			trim(&s.Copied2)
		}
		// Propagate requirements to inputs.
		need(s.Applied.Name, s.Applied.Cols)
		need(s.Applied.Name, s.Copied.Cols)
		if s.Op == tcap.OpJoin {
			need(s.Applied2.Name, s.Applied2.Cols)
			need(s.Applied2.Name, s.Copied2.Cols)
		}
	}
}
