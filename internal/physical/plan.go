// Package physical implements PC's physical planner (paper Appendix C/D):
// it breaks an optimized TCAP DAG into JobStages — PipelineJobStages that
// stream vector lists through fused stages, BuildHashTableJobStages that
// materialize join build sides, and AggregationJobStages that merge shuffled
// pre-aggregates — and orders them by artifact dependencies. Data is
// constructed where it is ultimately needed: a merge whose output list's
// only consumer is an OUTPUT finalizes straight into the stored set, with
// no materialized list and no OUTPUT pipeline after it.
package physical

import (
	"fmt"
	"sort"

	"repro/internal/tcap"
)

// StageKind distinguishes streaming pipelines from aggregation merges.
type StageKind int

// Stage kinds (the paper's PipelineJobStage, BuildHashTableJobStage,
// AggregationJobStage; materialization is a pipeline with a set sink).
const (
	StagePipeline StageKind = iota
	StageAggregation
	// StageSortMerge is the root of a sort's merge network: it merges the
	// workers' sorted runs (shuffled through the exchange as SortRow
	// pages) into the final global order, applying the top-k limit and
	// any window running-aggregate.
	StageSortMerge
)

// SinkKind is a pipeline's terminal.
type SinkKind int

// Pipeline sinks.
const (
	SinkOutput      SinkKind = iota // write result objects to a stored set
	SinkPreAgg                      // pre-aggregate into partitioned maps
	SinkJoinBuild                   // build a join hash table
	SinkMaterialize                 // materialize an intermediate object set
	SinkSort                        // emit one sorted run per executor thread
)

// String names the sink kind as Plan.String prints it.
func (k SinkKind) String() string {
	switch k {
	case SinkOutput:
		return "output"
	case SinkPreAgg:
		return "pre-agg"
	case SinkJoinBuild:
		return "join-build"
	case SinkMaterialize:
		return "materialize"
	case SinkSort:
		return "sort-runs"
	default:
		return "?"
	}
}

// JobStage is one schedulable unit.
type JobStage struct {
	ID   int
	Kind StageKind

	// Pipeline fields.
	Scan       *tcap.Stmt   // source SCAN, nil when reading a materialization
	SourceList string       // materialized source vector list name (when Scan == nil)
	SourceCol  string       // column name objects are scanned into
	Stmts      []*tcap.Stmt // mid-pipeline statements in order
	Sink       SinkKind
	SinkStmt   *tcap.Stmt // OUTPUT / AGGREGATE / consuming JOIN / last stmt

	// Aggregation fields.
	AggList string // the AGGREGATE output list this stage merges

	// Output is the OUTPUT statement whose stored set the stage's pages
	// are appended to: a pipeline's OUTPUT sink (SinkStmt), or the only
	// consumer of a merge stage's output list. Nil for a stage that leaves
	// an artifact for later stages.
	Output *tcap.Stmt

	// Exchange links: a producing stage and the consuming stage that
	// merges its shuffled output are marked as a pair so the scheduler
	// launches them together and connects them with a streaming exchange
	// (internal/exchange) instead of running them sequentially with a
	// barrier shuffle between. ExchangeTo points from the producer to its
	// consumer; ExchangeFrom points back (nil = not exchange-linked).
	ExchangeTo   *JobStage
	ExchangeFrom *JobStage

	// Produces names what the stage leaves: "set:<db>.<set>" when it
	// writes a stored set (Output), else an artifact — "mat:", "aggmaps:",
	// "sortruns:" or "table:" and a list name — that stages listing it in
	// DependsOn read.
	Produces  string
	DependsOn []string
}

// Plan is an ordered set of job stages.
type Plan struct {
	Stages []*JobStage
}

// Build derives the physical plan from a validated TCAP program.
func Build(prog *tcap.Program) (*Plan, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	b := &builder{prog: prog, boundaries: map[string]bool{}}

	// A list is a materialization boundary when several statements
	// consume it, or when it is a merge's (finalized) output that anything
	// but a lone OUTPUT reads: the merge writes that OUTPUT's set itself.
	for _, s := range prog.Stmts {
		if isMerge(s) && b.finalOutput(s.Out.Name) == nil {
			b.boundaries[s.Out.Name] = true
		}
		if s.Op != tcap.OpOutput && s.Op != tcap.OpScan {
			if len(prog.Consumers(s.Out.Name)) > 1 {
				b.boundaries[s.Out.Name] = true
			}
		}
	}

	// Pipelines rooted at SCANs (a stored set may be re-scanned by each
	// consumer) and at materialization boundaries.
	for _, s := range prog.Stmts {
		if s.Op == tcap.OpScan {
			for _, cons := range prog.Consumers(s.Out.Name) {
				if err := b.buildPipeline(s, s.Out.Name, s.Out.Cols[0], cons); err != nil {
					return nil, err
				}
			}
		}
	}
	boundaryNames := make([]string, 0, len(b.boundaries))
	for name := range b.boundaries {
		boundaryNames = append(boundaryNames, name)
	}
	sort.Strings(boundaryNames)
	for _, name := range boundaryNames {
		col, err := b.boundaryColumn(name)
		if err != nil {
			return nil, err
		}
		for _, cons := range prog.Consumers(name) {
			if err := b.buildPipeline(nil, name, col, cons); err != nil {
				return nil, err
			}
		}
	}

	p := &Plan{Stages: b.stages}
	return p, p.order()
}

type builder struct {
	prog       *tcap.Program
	boundaries map[string]bool
	stages     []*JobStage
	nextID     int
}

// isMerge reports whether s ends its pipeline at a shuffle whose merge
// stage finalizes s's output list.
func isMerge(s *tcap.Stmt) bool {
	switch s.Op {
	case tcap.OpAggregate, tcap.OpDistinct, tcap.OpSort, tcap.OpWindow:
		return true
	}
	return false
}

// finalOutput returns the OUTPUT that is list's only consumer, or nil.
func (b *builder) finalOutput(list string) *tcap.Stmt {
	if cons := b.prog.Consumers(list); len(cons) == 1 && cons[0].Op == tcap.OpOutput {
		return cons[0]
	}
	return nil
}

// setArtifact names the stored set an OUTPUT statement writes.
func setArtifact(out *tcap.Stmt) string { return "set:" + out.Db + "." + out.Set }

// linkMerge ends producer st at merge statement cur, its sink streaming
// artifact prefix+list, and adds the exchange-linked merge stage of kind
// that consumes it: the scheduler runs the pair together, the shuffle
// streaming between them. The merge finalizes into "mat:<list>" for later
// pipelines, or straight into the set of the list's lone OUTPUT consumer.
func (b *builder) linkMerge(st *JobStage, cur *tcap.Stmt, sink SinkKind, prefix string, kind StageKind) {
	st.Sink, st.SinkStmt, st.Produces = sink, cur, prefix+cur.Out.Name
	merge := &JobStage{
		ID:           b.nextID,
		Kind:         kind,
		AggList:      cur.Out.Name,
		SinkStmt:     cur,
		Produces:     "mat:" + cur.Out.Name,
		DependsOn:    []string{st.Produces},
		ExchangeFrom: st,
	}
	if out := b.finalOutput(cur.Out.Name); out != nil {
		merge.Output, merge.Produces = out, setArtifact(out)
	}
	st.ExchangeTo = merge
	b.nextID++
	b.stages = append(b.stages, st, merge)
}

// boundaryColumn finds the single column downstream consumers reference in
// a materialized list (computation outputs are single-object-column lists).
func (b *builder) boundaryColumn(name string) (string, error) {
	cols := map[string]bool{}
	for _, cons := range b.prog.Consumers(name) {
		refs := [][]string{}
		if cons.Applied.Name == name {
			refs = append(refs, cons.Applied.Cols, cons.Copied.Cols)
		}
		if cons.Op == tcap.OpJoin && cons.Applied2.Name == name {
			refs = append(refs, cons.Applied2.Cols, cons.Copied2.Cols)
		}
		for _, rr := range refs {
			for _, c := range rr {
				cols[c] = true
			}
		}
	}
	if len(cols) != 1 {
		return "", fmt.Errorf("physical: materialized list %q referenced through %d columns; computation outputs must be single-column", name, len(cols))
	}
	for c := range cols {
		return c, nil
	}
	return "", fmt.Errorf("physical: materialized list %q has no consumers", name)
}

// buildPipeline follows the consumer chain from a source until a breaker.
func (b *builder) buildPipeline(scan *tcap.Stmt, srcList, srcCol string, first *tcap.Stmt) error {
	st := &JobStage{ID: b.nextID, Kind: StagePipeline, Scan: scan, SourceCol: srcCol}
	b.nextID++
	if scan == nil {
		st.SourceList = srcList
		st.DependsOn = append(st.DependsOn, "mat:"+srcList)
	}

	cur := first
	curList := srcList
	for {
		switch {
		case cur.Op == tcap.OpOutput:
			st.Sink = SinkOutput
			st.SinkStmt, st.Output = cur, cur
			st.Produces = setArtifact(cur)
			b.stages = append(b.stages, st)
			return nil

		case cur.Op == tcap.OpSort || cur.Op == tcap.OpWindow:
			// This pipeline produces per-thread sorted runs; the
			// SortMerge stage merges them globally.
			b.linkMerge(st, cur, SinkSort, "sortruns:", StageSortMerge)
			return nil

		case cur.Op == tcap.OpAggregate || cur.Op == tcap.OpDistinct:
			// The AggregationJobStage merges the shuffled pre-aggregated
			// maps and finalizes output objects.
			b.linkMerge(st, cur, SinkPreAgg, "aggmaps:", StageAggregation)
			return nil

		case cur.Op == tcap.OpJoin && cur.Applied2.Name == curList:
			// This pipeline feeds the join's build side.
			st.Sink = SinkJoinBuild
			st.SinkStmt = cur
			st.Produces = "table:" + curList
			b.stages = append(b.stages, st)
			return nil

		default:
			// Mid-pipeline statement (APPLY/HASH/FILTER/FLATTEN or
			// JOIN probe).
			if cur.Op == tcap.OpJoin {
				st.DependsOn = append(st.DependsOn, "table:"+cur.Applied2.Name)
			}
			st.Stmts = append(st.Stmts, cur)
			curList = cur.Out.Name
			if b.boundaries[curList] {
				st.Sink = SinkMaterialize
				st.SinkStmt = cur
				st.Produces = "mat:" + curList
				b.stages = append(b.stages, st)
				return nil
			}
			consumers := b.prog.Consumers(curList)
			switch len(consumers) {
			case 0:
				// Dangling non-boundary output: materialize it.
				st.Sink = SinkMaterialize
				st.SinkStmt = cur
				st.Produces = "mat:" + curList
				b.stages = append(b.stages, st)
				return nil
			case 1:
				cur = consumers[0]
			default:
				return fmt.Errorf("physical: list %q has %d consumers but is not a boundary", curList, len(consumers))
			}
		}
	}
}

// order topologically sorts stages by artifact dependencies (stable by ID
// among ready stages).
func (p *Plan) order() error {
	produced := map[string]*JobStage{}
	for _, s := range p.Stages {
		if s.Produces != "" {
			produced[s.Produces] = s
		}
	}
	state := map[*JobStage]int{}
	var out []*JobStage
	var visit func(s *JobStage) error
	visit = func(s *JobStage) error {
		switch state[s] {
		case 1:
			return fmt.Errorf("physical: cyclic stage dependencies at %q", s.Produces)
		case 2:
			return nil
		}
		state[s] = 1
		deps := append([]string(nil), s.DependsOn...)
		sort.Strings(deps)
		for _, d := range deps {
			if dep, ok := produced[d]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			} else {
				return fmt.Errorf("physical: stage %d depends on unproduced artifact %q", s.ID, d)
			}
		}
		state[s] = 2
		out = append(out, s)
		return nil
	}
	ordered := append([]*JobStage(nil), p.Stages...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].ID < ordered[j].ID })
	for _, s := range ordered {
		if err := visit(s); err != nil {
			return err
		}
	}
	p.Stages = out
	return nil
}

// String renders the plan for diagnostics and the Figure 3 tooling, one
// line per stage: a merge stage that writes its OUTPUT's set directly
// reads "sink=output -> set:<db>.<set>", as an OUTPUT pipeline does.
func (p *Plan) String() string {
	out := ""
	for _, s := range p.Stages {
		switch s.Kind {
		case StageAggregation, StageSortMerge:
			name, sink, link := "AGGREGATION", "", ""
			if s.Kind == StageSortMerge {
				name = "SORTMERGE"
			}
			if s.Output != nil {
				sink = " sink=" + SinkOutput.String()
			}
			if s.ExchangeFrom != nil {
				link = fmt.Sprintf(" <~ stage %d (exchange)", s.ExchangeFrom.ID)
			}
			out += fmt.Sprintf("stage %d: %s %s%s -> %s%s\n", s.ID, name, s.AggList, sink, s.Produces, link)
		default:
			src := s.SourceList
			if s.Scan != nil {
				src = "scan " + s.Scan.Db + "." + s.Scan.Set
			}
			link := ""
			if s.ExchangeTo != nil {
				link = fmt.Sprintf(" ~> stage %d (exchange)", s.ExchangeTo.ID)
			}
			out += fmt.Sprintf("stage %d: PIPELINE [%s] %d stmts sink=%s -> %s%s\n",
				s.ID, src, len(s.Stmts), s.Sink, s.Produces, link)
		}
	}
	return out
}
