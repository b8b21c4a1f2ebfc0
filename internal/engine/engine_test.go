package engine

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/tcap"
)

// TestEngineImports pins the engine's place in the layering: it executes
// TCAP over pages of objects and knows nothing of where pages are stored
// or how faults are injected — the storage server and the fault plan
// belong to the runtime above it (internal/cluster).
func TestEngineImports(t *testing.T) {
	allowed := map[string]bool{
		"repro/internal/object": true, "repro/internal/tcap": true, "repro/internal/swiss": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "repro/") && !allowed[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
		}
	}
}

func TestColumnOfPicksTightTypes(t *testing.T) {
	cases := []struct {
		vals []object.Value
		want string
	}{
		{[]object.Value{object.Float64Value(1), object.Float64Value(2)}, "engine.F64Col"},
		{[]object.Value{object.Int64Value(1)}, "engine.I64Col"},
		{[]object.Value{object.BoolValue(true)}, "engine.BoolCol"},
		{[]object.Value{object.StringValue("x")}, "engine.StrCol"},
		{[]object.Value{object.Float64Value(1), object.StringValue("x")}, "engine.ValCol"},
	}
	for _, c := range cases {
		got := fmt.Sprintf("%T", ColumnOf(c.vals))
		if got != c.want {
			t.Errorf("ColumnOf(%v) = %s, want %s", c.vals, got, c.want)
		}
	}
}

// strCol is a StrCol of Go-backed strings.
func strCol(ss ...string) StrCol {
	out := make(StrCol, len(ss))
	for i, s := range ss {
		out[i] = object.StringValue(s)
	}
	return out
}

func TestVectorListProjectAndGather(t *testing.T) {
	vl, err := NewVectorList(
		[]string{"a", "b"},
		[]Column{F64Col{1, 2, 3}, strCol("x", "y", "z")},
	)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := vl.Project([]string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Cols) != 1 || proj.Col("b") == nil {
		t.Error("Project lost column")
	}
	g := vl.GatherAll([]int{2, 0})
	if g.Col("a").(F64Col)[0] != 3 || g.Col("b").(StrCol)[1].Str() != "x" {
		t.Errorf("GatherAll wrong: %+v", g)
	}
	if _, err := NewVectorList([]string{"a"}, []Column{F64Col{1}, F64Col{2}}); err == nil {
		t.Error("mismatched names/cols should fail")
	}
	if _, err := NewVectorList([]string{"a", "b"}, []Column{F64Col{1}, F64Col{2, 3}}); err == nil {
		t.Error("uneven column lengths should fail")
	}
}

func TestExecFilterStmt(t *testing.T) {
	s := &tcap.Stmt{
		Op:      tcap.OpFilter,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"keep"}},
		Copied:  tcap.ColumnsRef{Name: "in", Cols: []string{"v"}},
		Out:     tcap.ColumnsRef{Name: "out", Cols: []string{"v"}},
	}
	vl := &VectorList{
		Names: []string{"v", "keep"},
		Cols:  []Column{F64Col{10, 20, 30, 40}, BoolCol{true, false, true, false}},
	}
	out, err := execFilter(s, vl)
	if err != nil {
		t.Fatal(err)
	}
	got := out.Col("v").(F64Col)
	if len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Errorf("filtered = %v", got)
	}
}

func TestExecHashStmt(t *testing.T) {
	s := &tcap.Stmt{
		Op:      tcap.OpHash,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"k"}},
		Copied:  tcap.ColumnsRef{Name: "in", Cols: []string{"k"}},
		Out:     tcap.ColumnsRef{Name: "out", Cols: []string{"k", "h"}},
	}
	vl := &VectorList{Names: []string{"k"}, Cols: []Column{I64Col{5, 5, 7}}}
	out, err := execHash(nil, s, vl)
	if err != nil {
		t.Fatal(err)
	}
	h := out.Col("h").(U64Col)
	if h[0] != h[1] {
		t.Error("equal keys must hash equally")
	}
	if h[0] == h[2] {
		t.Error("different keys should (here) hash differently")
	}
	// String and float hash paths.
	for _, col := range []Column{strCol("a", "a", "b"), F64Col{1, 1, 2}} {
		vl := &VectorList{Names: []string{"k"}, Cols: []Column{col}}
		out, err := execHash(nil, s, vl)
		if err != nil {
			t.Fatal(err)
		}
		h := out.Col("h").(U64Col)
		if h[0] != h[1] || h[0] == h[2] {
			t.Errorf("hash of %T inconsistent", col)
		}
	}
}

// TestExecHashRefColumn covers the typed handle-column fallback: objects
// whose type registers a Hash are hashed through it (the referenced
// object's key value), and string objects hash by contents — so equal keys
// on different pages collide as join partners.
func TestExecHashRefColumn(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("HashRec").AddField("key", object.KInt64).MustBuild(reg)
	ti.Hash = func(r object.Ref) uint64 {
		return object.HashValue(object.Int64Value(object.GetI64(r, ti.Field("key"))))
	}
	mk := func(p *object.Page, a *object.Allocator, key int64) object.Ref {
		r, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		object.SetI64(r, ti.Field("key"), key)
		return r
	}
	p1 := object.NewPage(4096, reg)
	a1 := object.NewAllocator(p1)
	p2 := object.NewPage(4096, reg)
	a2 := object.NewAllocator(p2)

	s := &tcap.Stmt{
		Op:      tcap.OpHash,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"k"}},
		Copied:  tcap.ColumnsRef{Name: "in", Cols: []string{"k"}},
		Out:     tcap.ColumnsRef{Name: "out", Cols: []string{"k", "h"}},
	}
	ctx := &Ctx{Reg: reg}
	// Equal keys on different pages must hash equally (offset hashing
	// could not provide this); different keys must not.
	vl := &VectorList{Names: []string{"k"}, Cols: []Column{RefCol{
		mk(p1, a1, 42), mk(p2, a2, 42), mk(p1, a1, 7),
	}}}
	out, err := execHash(ctx, s, vl)
	if err != nil {
		t.Fatal(err)
	}
	h := out.Col("h").(U64Col)
	if h[0] != h[1] {
		t.Error("equal keys on different pages must hash equally via TypeInfo.Hash")
	}
	if h[0] == h[2] {
		t.Error("different keys should hash differently")
	}

	// String objects hash by contents.
	s1, _ := object.MakeString(a1, "same")
	s2, _ := object.MakeString(a2, "same")
	s3, _ := object.MakeString(a1, "other")
	vl = &VectorList{Names: []string{"k"}, Cols: []Column{RefCol{s1, s2, s3}}}
	out, err = execHash(ctx, s, vl)
	if err != nil {
		t.Fatal(err)
	}
	h = out.Col("h").(U64Col)
	if h[0] != h[1] {
		t.Error("equal string contents on different pages must hash equally")
	}
	if h[0] == h[2] {
		t.Error("different string contents should hash differently")
	}
}

func TestExecJoinProbeStmt(t *testing.T) {
	reg := object.NewRegistry()
	p := object.NewPage(4096, reg)
	a := object.NewAllocator(p)
	s1, _ := object.MakeString(a, "x")
	s2, _ := object.MakeString(a, "y")

	table := NewJoinTable()
	table.Add(100, s1)
	table.Add(100, s2)
	table.Add(200, s1)

	stmt := &tcap.Stmt{
		Op:       tcap.OpJoin,
		Applied:  tcap.ColumnsRef{Name: "L", Cols: []string{"h"}},
		Copied:   tcap.ColumnsRef{Name: "L", Cols: []string{"v"}},
		Applied2: tcap.ColumnsRef{Name: "B", Cols: []string{"h2"}},
		Copied2:  tcap.ColumnsRef{Name: "B", Cols: []string{"obj"}},
		Out:      tcap.ColumnsRef{Name: "out", Cols: []string{"v", "obj"}},
	}
	ctx := &Ctx{Reg: reg, Tables: map[string]*JoinTable{"B": table}, Stats: &Stats{}}
	vl := &VectorList{
		Names: []string{"v", "h"},
		Cols:  []Column{I64Col{1, 2, 3}, U64Col{100, 999, 200}},
	}
	out, err := execJoinProbe(ctx, stmt, vl)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 matches twice, row 2 never, row 3 once => 3 output rows.
	if out.Rows() != 3 {
		t.Fatalf("probe output rows = %d, want 3", out.Rows())
	}
	v := out.Col("v").(I64Col)
	if v[0] != 1 || v[1] != 1 || v[2] != 3 {
		t.Errorf("gathered probe column wrong: %v", v)
	}
	if ctx.Stats.JoinProbeRows != 3 {
		t.Errorf("JoinProbeRows = %d, want 3", ctx.Stats.JoinProbeRows)
	}
}

// TestKeySetOutlivesBuildPage: a semi/anti join's key set is Go-side state
// that outlives the build side's pages, so string keys arriving as views of
// a page are copied into it (canonKey). The build page is recycled and
// overwritten before the probe; membership must not change.
func TestKeySetOutlivesBuildPage(t *testing.T) {
	reg := object.NewRegistry()
	build := object.NewPage(1<<12, reg)
	viewsOn := func(p *object.Page, ss ...string) StrCol {
		a := object.NewAllocator(p)
		col := make(StrCol, len(ss))
		for i, s := range ss {
			r, err := object.MakeString(a, s)
			if err != nil {
				t.Fatal(err)
			}
			col[i] = object.StringRefValue(r)
		}
		return col
	}
	sink := NewKeySetBuildSink("k")
	if err := sink.Consume(nil, &VectorList{Names: []string{"k"}, Cols: []Column{viewsOn(build, "d0", "d1", "")}}, nil); err != nil {
		t.Fatal(err)
	}
	build.Reset()
	viewsOn(build, "zz", "yy", "x") // same offsets, other bytes

	probe := &VectorList{
		Names: []string{"id", "k"},
		Cols: []Column{I64Col{0, 1, 2, 3, 4, 5},
			append(viewsOn(object.NewPage(1<<12, reg), "d0", "zz", ""), strCol("d1", "yy", "d2")...)},
	}
	ctx := &Ctx{Reg: reg, Tables: map[string]*JoinTable{"B": sink.Table}, Stats: &Stats{}}
	for joinType, want := range map[string][]int64{"semi": {0, 2, 3}, "anti": {1, 4, 5}} {
		stmt := &tcap.Stmt{
			Op:       tcap.OpJoin,
			Applied:  tcap.ColumnsRef{Name: "L", Cols: []string{"k"}},
			Copied:   tcap.ColumnsRef{Name: "L", Cols: []string{"id"}},
			Applied2: tcap.ColumnsRef{Name: "B", Cols: []string{"k2"}},
			Info:     map[string]string{"joinType": joinType},
		}
		out, err := execJoinSemiAnti(ctx, stmt, probe)
		if err != nil {
			t.Fatal(err)
		}
		if got := out.Col("id").(I64Col); !slices.Equal(got, I64Col(want)) {
			t.Errorf("%s join over a recycled build page kept rows %v, want %v", joinType, got, want)
		}
	}
}

func TestExecFlattenStmt(t *testing.T) {
	reg := object.NewRegistry()
	p := object.NewPage(1<<16, reg)
	a := object.NewAllocator(p)
	mkVec := func(vals ...int64) object.Ref {
		v, _ := object.MakeVector(a, object.KInt64, len(vals))
		for _, x := range vals {
			_ = v.PushBackI64(a, x)
		}
		return v.Ref
	}
	stmt := &tcap.Stmt{
		Op:      tcap.OpFlatten,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"vec"}},
		Copied:  tcap.ColumnsRef{Name: "in", Cols: []string{"id"}},
		Out:     tcap.ColumnsRef{Name: "out", Cols: []string{"id", "elem"}},
	}
	vl := &VectorList{
		Names: []string{"id", "vec"},
		Cols:  []Column{I64Col{1, 2, 3}, RefCol{mkVec(10, 11), mkVec(), mkVec(30)}},
	}
	out, err := execFlatten(stmt, vl)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 3 {
		t.Fatalf("flattened rows = %d, want 3", out.Rows())
	}
	ids := out.Col("id").(I64Col)
	elems := out.Col("elem").(I64Col)
	if ids[0] != 1 || ids[1] != 1 || ids[2] != 3 {
		t.Errorf("replicated ids = %v", ids)
	}
	if elems[0] != 10 || elems[1] != 11 || elems[2] != 30 {
		t.Errorf("elements = %v", elems)
	}
}

func TestOutputSinkRotationProducesZombiePages(t *testing.T) {
	// Force tiny pages so the sink must seal several (the live/zombie
	// output page discipline of Appendix C).
	reg := object.NewRegistry()
	ti := object.NewStruct("Blob").AddField("x", object.KFloat64).MustBuild(reg)
	stats := &Stats{}
	sink, err := NewOutputSink(reg, 1024, nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Reg: reg, Out: sink.Out, Stats: stats}
	_ = ctx
	var refs RefCol
	for i := 0; i < 100; i++ {
		// Allocate each object on the sink's live page (as projection
		// kernels would).
		r, err := sink.Out.Alloc.MakeObject(ti)
		if err == object.ErrPageFull {
			if err := sink.Out.Rotate(); err != nil {
				t.Fatal(err)
			}
			r, err = sink.Out.Alloc.MakeObject(ti)
			if err != nil {
				t.Fatal(err)
			}
		} else if err != nil {
			t.Fatal(err)
		}
		object.SetF64(r, ti.Field("x"), float64(i))
		refs = append(refs, r)
		if err := sink.appendWithRotate(r); err != nil {
			t.Fatal(err)
		}
	}
	pages := sink.Pages()
	if len(pages) < 2 {
		t.Fatalf("expected multiple sealed pages, got %d", len(pages))
	}
	if stats.PagesSealed == 0 {
		t.Error("PagesSealed not counted")
	}
	if got := CountObjects(pages); got != 100 {
		t.Errorf("objects across pages = %d, want 100", got)
	}
	// Every object must be readable from its final page.
	sum := 0.0
	for _, p := range pages {
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		for i := 0; i < root.Len(); i++ {
			sum += object.GetF64(root.HandleAt(i), ti.Field("x"))
		}
	}
	if sum != 99*100/2 {
		t.Errorf("sum = %g, want %g", sum, float64(99*100/2))
	}
}

func sumCombine(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
	if !exists {
		return object.Float64Value(next.AsFloat64()), nil
	}
	return object.Float64Value(cur.F + next.AsFloat64()), nil
}

func TestAggSinkAndMerge(t *testing.T) {
	reg := object.NewRegistry()
	const parts = 4
	stats := &Stats{}
	sink, err := NewAggSink(reg, 1<<14, parts,
		&AggSpec{KeyKind: object.KInt64, ValKind: object.KFloat64, Combine: sumCombine}, "key", "val", nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Reg: reg, Out: sink.Out, Stats: stats}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}

	// 1000 rows across 10 keys; per-key sum should be exact.
	for batch := 0; batch < 10; batch++ {
		keys := make(I64Col, 100)
		vals := make(F64Col, 100)
		for i := range keys {
			keys[i] = int64(i % 10)
			vals[i] = 1
		}
		vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
		if err := sink.Consume(ctx, vl, stmt); err != nil {
			t.Fatal(err)
		}
	}
	spec := &AggSpec{KeyKind: object.KInt64, ValKind: object.KFloat64, Combine: sumCombine}
	totalKeys := 0
	totalSum := 0.0
	for part := 0; part < parts; part++ {
		finals, _, err := MergeAggMapsStream(reg, SliceSource(sink.Pages()), part, parts, spec, 1<<14, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		finals[0].Iterate(func(k, v object.Value) bool {
			totalKeys++
			totalSum += v.F
			if v.F != 100 {
				t.Errorf("key %d sum = %g, want 100", k.I, v.F)
			}
			return true
		})
	}
	if totalKeys != 10 {
		t.Errorf("merged keys = %d, want 10", totalKeys)
	}
	if totalSum != 1000 {
		t.Errorf("total = %g, want 1000", totalSum)
	}
}

func TestAggSinkRotatesOnTinyPages(t *testing.T) {
	reg := object.NewRegistry()
	stats := &Stats{}
	sink, err := NewAggSink(reg, 4096, 2,
		&AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}, "key", "val", nil, stats)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Reg: reg, Out: sink.Out, Stats: stats}
	stmt := &tcap.Stmt{Op: tcap.OpAggregate,
		Applied: tcap.ColumnsRef{Name: "in", Cols: []string{"key", "val"}}}
	keys := make(StrCol, 500)
	vals := make(F64Col, 500)
	for i := range keys {
		keys[i] = object.StringValue(fmt.Sprintf("key-%d", i%50))
		vals[i] = 2
	}
	vl := &VectorList{Names: []string{"key", "val"}, Cols: []Column{keys, vals}}
	if err := sink.Consume(ctx, vl, stmt); err != nil {
		t.Fatal(err)
	}
	if len(sink.Pages()) < 2 {
		t.Fatalf("tiny pages should force rotation; got %d pages", len(sink.Pages()))
	}
	// Partial aggregates must still merge exactly.
	spec := &AggSpec{KeyKind: object.KString, ValKind: object.KFloat64, Combine: sumCombine}
	total := 0.0
	for part := 0; part < 2; part++ {
		finals, _, err := MergeAggMapsStream(reg, SliceSource(sink.Pages()), part, 2, spec, 1<<14, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		finals[0].Iterate(func(k, v object.Value) bool {
			total += v.F
			return true
		})
	}
	if total != 1000 {
		t.Errorf("merged total = %g, want 1000", total)
	}
}

func TestScanPagesBatches(t *testing.T) {
	reg := object.NewRegistry()
	ti := object.NewStruct("T").AddField("x", object.KInt64).MustBuild(reg)
	p := object.NewPage(1<<18, reg)
	a := object.NewAllocator(p)
	root, _ := object.MakeVector(a, object.KHandle, 0)
	root.Retain()
	p.SetRoot(root.Off)
	for i := 0; i < 700; i++ {
		r, err := a.MakeObject(ti)
		if err != nil {
			t.Fatal(err)
		}
		object.SetI64(r, ti.Field("x"), int64(i))
		_ = root.PushBackHandle(a, r)
	}
	var batches, rows int
	err := ScanPages([]*object.Page{p}, "obj", 256, func(vl *VectorList) error {
		batches++
		rows += vl.Rows()
		if vl.Col("obj") == nil {
			t.Fatal("scan column missing")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 700 {
		t.Errorf("scanned rows = %d, want 700", rows)
	}
	if batches != 3 { // 256+256+188
		t.Errorf("batches = %d, want 3", batches)
	}
	if CountObjects([]*object.Page{p}) != 700 {
		t.Errorf("CountObjects wrong")
	}
}
