package physical

import (
	"strings"
	"testing"

	"repro/internal/tcap"
)

// figure3Program transcribes the paper's Figure 3 DAG: three joins feeding
// an aggregation. Inputs 1 and 2 join, input 3 joins the result, input 4
// joins that, and the aggregate consumes the final join (statement numbers
// match the figure's node labels loosely).
const figure3Program = `
S1(a) <= SCAN('db', 'in1', 'C1', []);
S2(b) <= SCAN('db', 'in2', 'C2', []);
S3(c) <= SCAN('db', 'in3', 'C3', []);
S4(d) <= SCAN('db', 'in4', 'C4', []);
H1(a,h1) <= HASH(S1(a), S1(a), 'J1', 'h1', []);
H2(b,h2) <= HASH(S2(b), S2(b), 'J1', 'h2', []);
J1(a,b) <= JOIN(H1(h1), H1(a), H2(h2), H2(b), 'J1', []);
H3(a,b,h3) <= HASH(J1(a), J1(a,b), 'J2', 'h3', []);
H4(c,h4) <= HASH(S3(c), S3(c), 'J2', 'h4', []);
J2(a,b,c) <= JOIN(H3(h3), H3(a,b), H4(h4), H4(c), 'J2', []);
H5(a,b,c,h5) <= HASH(J2(a), J2(a,b,c), 'J3', 'h5', []);
H6(d,h6) <= HASH(S4(d), S4(d), 'J3', 'h6', []);
J3(a,b,c,d) <= JOIN(H5(h5), H5(a,b,c), H6(h6), H6(d), 'J3', []);
K(a,kv) <= APPLY(J3(a), J3(a), 'Agg', 'key', []);
V(a,kv,vv) <= APPLY(K(a), K(a,kv), 'Agg', 'val', []);
A(res) <= AGGREGATE(V(kv,vv), V(), 'Agg', 'agg', []);
O() <= OUTPUT(A(res), 'db', 'result', 'Out', []);
`

func TestFigure3Pipelining(t *testing.T) {
	prog, err := tcap.Parse(figure3Program)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	var builds, preAgg, aggStages, outputs int
	for _, s := range plan.Stages {
		switch {
		case s.Kind == StageAggregation:
			aggStages++
			if s.Output == nil || s.Produces != "set:db.result" {
				t.Errorf("aggregation stage %d produces %q, want set:db.result\n%s", s.ID, s.Produces, plan.String())
			}
		case s.Sink == SinkJoinBuild:
			builds++
		case s.Sink == SinkPreAgg:
			preAgg++
		case s.Sink == SinkOutput:
			outputs++
		}
	}
	// Figure 3's decomposition: the three join build sides each become
	// their own pipeline; the probe side runs S1 through all three joins
	// into the aggregation; plus the aggregation merge, which finalizes
	// straight into the output set — the aggregate's only consumer is the
	// OUTPUT, so no output pipeline reads it back.
	if builds != 3 {
		t.Errorf("join-build pipelines = %d, want 3\n%s", builds, plan.String())
	}
	if preAgg != 1 {
		t.Errorf("pre-agg pipelines = %d, want 1\n%s", preAgg, plan.String())
	}
	if aggStages != 1 {
		t.Errorf("aggregation stages = %d, want 1\n%s", aggStages, plan.String())
	}
	if outputs != 0 {
		t.Errorf("output pipelines = %d, want 0\n%s", outputs, plan.String())
	}
}

func TestFigure3StageOrdering(t *testing.T) {
	prog, err := tcap.Parse(figure3Program)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Artifacts must be produced before consumed in the final order.
	produced := map[string]bool{}
	for _, s := range plan.Stages {
		for _, d := range s.DependsOn {
			if !produced[d] {
				t.Errorf("stage %d consumes %q before production\n%s", s.ID, d, plan.String())
			}
		}
		produced[s.Produces] = true
	}
}

func TestProbePipelineContainsAllThreeJoins(t *testing.T) {
	prog, err := tcap.Parse(figure3Program)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Stages {
		if s.Sink == SinkPreAgg {
			joins := 0
			for _, st := range s.Stmts {
				if st.Op == tcap.OpJoin {
					joins++
				}
			}
			if joins != 3 {
				t.Errorf("probe pipeline has %d joins, want 3 (joins pipeline through probes)", joins)
			}
			return
		}
	}
	t.Fatal("no pre-agg pipeline found")
}

func TestMultiConsumerForcesMaterialization(t *testing.T) {
	src := `
S(a) <= SCAN('db', 'in', 'C', []);
X(a,b) <= APPLY(S(a), S(a), 'C', 's1', []);
Y1(a,b,c) <= APPLY(X(b), X(a,b), 'C', 's2', []);
Y2(a,b,d) <= APPLY(X(b), X(a,b), 'C', 's3', []);
O1() <= OUTPUT(Y1(c), 'db', 'o1', 'C', []);
O2() <= OUTPUT(Y2(d), 'db', 'o2', 'C', []);
`
	prog, err := tcap.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// X's consumers reference columns a and b — more than one column, so
	// boundary materialization must reject it (computation outputs are
	// single-column).
	if _, err := Build(prog); err == nil || !strings.Contains(err.Error(), "single-column") {
		t.Errorf("expected single-column boundary error, got %v", err)
	}

	// With consumers referencing only one column it plans fine.
	src2 := `
S(a) <= SCAN('db', 'in', 'C', []);
X(b) <= APPLY(S(a), S(), 'C', 's1', []);
Y1(b,c) <= APPLY(X(b), X(b), 'C', 's2', []);
Y2(b,d) <= APPLY(X(b), X(b), 'C', 's3', []);
O1() <= OUTPUT(Y1(c), 'db', 'o1', 'C', []);
O2() <= OUTPUT(Y2(d), 'db', 'o2', 'C', []);
`
	prog2, err := tcap.Parse(src2)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog2)
	if err != nil {
		t.Fatal(err)
	}
	var mats int
	for _, s := range plan.Stages {
		if s.Sink == SinkMaterialize {
			mats++
		}
	}
	if mats != 1 {
		t.Errorf("materializations = %d, want 1\n%s", mats, plan.String())
	}
}

func TestRescanForMultipleScanConsumers(t *testing.T) {
	// Two computations scanning the same set produce two pipelines each
	// re-scanning the stored set (no materialization needed).
	src := `
S(a) <= SCAN('db', 'in', 'C', []);
Y1(a,c) <= APPLY(S(a), S(a), 'C', 's2', []);
Y2(a,d) <= APPLY(S(a), S(a), 'C', 's3', []);
O1() <= OUTPUT(Y1(c), 'db', 'o1', 'C', []);
O2() <= OUTPUT(Y2(d), 'db', 'o2', 'C', []);
`
	prog, err := tcap.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	var scans int
	for _, s := range plan.Stages {
		if s.Scan != nil {
			scans++
		}
	}
	if scans != 2 {
		t.Errorf("scan-rooted pipelines = %d, want 2\n%s", scans, plan.String())
	}
}

func TestPlanStringIsInformative(t *testing.T) {
	prog, _ := tcap.Parse(figure3Program)
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.String()
	for _, want := range []string{"PIPELINE", "AGGREGATION", "join-build", "output"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan string missing %q:\n%s", want, out)
		}
	}
}

func TestAggregationStagesAreExchangeLinked(t *testing.T) {
	prog, err := tcap.Parse(figure3Program)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(prog)
	if err != nil {
		t.Fatal(err)
	}
	links := 0
	for _, s := range plan.Stages {
		switch {
		case s.Sink == SinkPreAgg && s.Kind == StagePipeline:
			if s.ExchangeTo == nil || s.ExchangeTo.Kind != StageAggregation ||
				s.ExchangeTo.AggList != s.SinkStmt.Out.Name {
				t.Errorf("pre-agg stage %d is not exchange-linked to its consumer\n%s", s.ID, plan.String())
			}
			if s.ExchangeTo.ExchangeFrom != s {
				t.Errorf("stage %d's consumer does not link back\n%s", s.ID, plan.String())
			}
			links++
		case s.ExchangeTo != nil || (s.Kind != StageAggregation && s.ExchangeFrom != nil):
			t.Errorf("stage %d unexpectedly exchange-linked\n%s", s.ID, plan.String())
		}
	}
	if links != 1 {
		t.Fatalf("exchange links = %d, want 1\n%s", links, plan.String())
	}
}

// TestMergeOutputShapes plans both shapes of a merge's output list: a list
// whose only consumer is an OUTPUT is written by the merge stage itself,
// with no "mat:" list and no OUTPUT pipeline, and a list another statement
// reads — a second OUTPUT, or an APPLY before the OUTPUT — keeps its
// "mat:" list and one pipeline per consumer.
func TestMergeOutputShapes(t *testing.T) {
	const head = `
S(a) <= SCAN('db', 'in', 'C', []);
K(a,k) <= APPLY(S(a), S(a), 'C', 'key', []);
`
	for _, tc := range []struct {
		name, body string
		stages     int
		writes     string // what the merge stage produces
	}{
		{"aggregate", `
A(r) <= AGGREGATE(K(k,a), K(), 'C', 'agg', []);
O() <= OUTPUT(A(r), 'db', 'out', 'C', []);`, 2, "set:db.out"},
		{"sort", `
R(a) <= SORT(K(k), K(a), 'C', []);
O() <= OUTPUT(R(a), 'db', 'out', 'C', []);`, 2, "set:db.out"},
		{"sort read twice", `
R(a) <= SORT(K(k), K(a), 'C', []);
O1() <= OUTPUT(R(a), 'db', 'o1', 'C', []);
O2() <= OUTPUT(R(a), 'db', 'o2', 'C', []);`, 4, "mat:R"},
		{"apply after aggregate", `
A(r) <= AGGREGATE(K(k,a), K(), 'C', 'agg', []);
B(r,s) <= APPLY(A(r), A(r), 'C', 'f', []);
O() <= OUTPUT(B(s), 'db', 'out', 'C', []);`, 3, "mat:A"},
	} {
		prog, err := tcap.Parse(head + tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		plan, err := Build(prog)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(plan.Stages) != tc.stages {
			t.Errorf("%s: %d stages, want %d\n%s", tc.name, len(plan.Stages), tc.stages, plan.String())
		}
		for _, s := range plan.Stages {
			if s.ExchangeFrom == nil {
				continue
			}
			if s.Produces != tc.writes || (s.Output != nil) != strings.HasPrefix(tc.writes, "set:") {
				t.Errorf("%s: merge stage produces %q (output %v), want %q\n%s", tc.name, s.Produces, s.Output != nil, tc.writes, plan.String())
			}
		}
	}
}
