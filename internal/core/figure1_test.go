package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/tcap"
)

// TestFigure1Pipeline reproduces Figure 1: the first four stages of the
// §5.2 three-way-join TCAP pipeline, executed stage by stage over a vector
// list, observing the column evolution the figure draws:
//
//	stage 1 (att_acc):     dep,emp,sup          -> +nm1 (Dep.deptName)
//	stage 2 (method_call): dep,emp,sup,nm1      -> +nm2 (Emp::getDeptName())
//	stage 3 (==):          nm1,nm2              -> +bl  (bit vector)
//	stage 4 (FILTER):      dep,emp,sup filtered by bl
func TestFigure1Pipeline(t *testing.T) {
	reg := object.NewRegistry()
	dep := object.NewStruct("Dep").AddField("deptName", object.KString).MustBuild(reg)
	emp := object.NewStruct("Emp").AddField("deptName", object.KString).MustBuild(reg)
	emp.Methods["getDeptName"] = object.Method{Name: "getDeptName", Ret: object.KString,
		Fn: func(r object.Ref) object.Value {
			return object.StringValue(object.GetStrField(r, emp.Field("deptName")))
		}}
	sup := object.NewStruct("Sup").AddField("dept", object.KString).MustBuild(reg)

	p := object.NewPage(1<<16, reg)
	a := object.NewAllocator(p)
	mk := func(ti *object.TypeInfo, field, val string) object.Ref {
		r, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		if err := object.SetStrField(a, r, ti.Field(field), val); err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Three candidate (dep, emp, sup) combinations; the middle one has a
	// department mismatch and must be filtered out.
	deps := engine.RefCol{mk(dep, "deptName", "eng"), mk(dep, "deptName", "hr"), mk(dep, "deptName", "ops")}
	emps := engine.RefCol{mk(emp, "deptName", "eng"), mk(emp, "deptName", "sales"), mk(emp, "deptName", "ops")}
	sups := engine.RefCol{mk(sup, "dept", "eng"), mk(sup, "dept", "hr"), mk(sup, "dept", "ops")}

	// The four TCAP statements of Figure 1, in the paper's own naming.
	prog, err := tcap.Parse(`
In(dep,emp,sup) <= SCAN('db', 'three', 'Join_2212', []);
WDNm_1(dep,emp,sup,nm1) <= APPLY(In(dep), In(dep,emp,sup), 'Join_2212', 'att_acc_1', [('attName', 'deptName'), ('type', 'attAccess')]);
WDNm_2(dep,emp,sup,nm1,nm2) <= APPLY(WDNm_1(emp), WDNm_1(dep,emp,sup,nm1), 'Join_2212', 'method_call_2', [('methodName', 'getDeptName'), ('type', 'methodCall')]);
WBl_1(dep,emp,sup,bl) <= APPLY(WDNm_2(nm1,nm2), WDNm_2(dep,emp,sup), 'Join_2212', '==_3', [('type', 'equalityCheck')]);
Flt_1(dep,emp,sup) <= FILTER(WBl_1(bl), WBl_1(dep,emp,sup), 'Join_2212', []);
`)
	if err != nil {
		t.Fatal(err)
	}
	stages := engine.NewStageRegistry()
	stages.Register("Join_2212", "att_acc_1", memberKernel("deptName"))
	stages.Register("Join_2212", "method_call_2", methodKernel("getDeptName"))
	stages.Register("Join_2212", "==_3", binaryKernel(lambda.OpEq))

	out, err := engine.NewOutputPageSet(reg, 1<<16, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &engine.Ctx{Reg: reg, Out: out}
	vl := &engine.VectorList{Names: []string{"dep", "emp", "sup"}, Cols: []engine.Column{deps, emps, sups}}

	// Execute the non-scan statements one by one, checking the columns
	// Figure 1 shows being appended.
	pipe := &engine.Pipeline{Stmts: prog.Stmts[1:2], Reg: stages}
	_ = pipe
	cur := vl
	run := func(idx int) *engine.VectorList {
		t.Helper()
		next, err := engine.ExecuteStmtForTest(ctx, stages, prog.Stmts[idx], cur)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}
	cur = run(1)
	if nm1 := cur.Col("nm1"); nm1 == nil {
		t.Fatal("stage 1 did not produce nm1")
	} else if nm1.(engine.StrCol)[0].Str() != "eng" {
		t.Errorf("nm1[0] = %v", nm1.Value(0))
	}
	cur = run(2)
	if nm2 := cur.Col("nm2"); nm2 == nil {
		t.Fatal("stage 2 did not produce nm2")
	} else if nm2.(engine.StrCol)[1].Str() != "sales" {
		t.Errorf("nm2[1] = %v", nm2.Value(1))
	}
	cur = run(3)
	bl, ok := cur.Col("bl").(engine.BoolCol)
	if !ok {
		t.Fatal("stage 3 did not produce a boolean bit vector")
	}
	if !bl[0] || bl[1] || !bl[2] {
		t.Errorf("bit vector = %v, want [true false true]", bl)
	}
	cur = run(4)
	if cur.Rows() != 2 {
		t.Fatalf("filtered rows = %d, want 2", cur.Rows())
	}
	// Only matching departments remain.
	kept := cur.Col("dep").(engine.RefCol)
	if object.GetStrField(kept[0], dep.Field("deptName")) != "eng" ||
		object.GetStrField(kept[1], dep.Field("deptName")) != "ops" {
		t.Error("wrong rows survived the filter")
	}
}
