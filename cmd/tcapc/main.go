// tcapc demonstrates PC's compilation stack on the paper's running
// examples: it compiles a computation graph's lambda terms to TCAP, runs
// the rule-based optimizer, and prints the physical plan.
//
//	go run ./cmd/tcapc -example sel       # §7 redundant-method-call example
//	go run ./cmd/tcapc -example join      # §7 filter-pushdown example
//	go run ./cmd/tcapc -example join3     # §4/§5.2 three-way join (Figure 1)
//	go run ./cmd/tcapc -example fig3      # Figure 3's 3-join + aggregation DAG
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/lambda"
	"repro/internal/object"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

func main() {
	example := flag.String("example", "sel", "sel | join | join3 | fig3")
	flag.Parse()

	var write *core.Write
	switch *example {
	case "sel":
		write = selExample()
	case "join":
		write = joinExample()
	case "join3":
		write = join3Example()
	case "fig3":
		write = fig3Example()
	default:
		log.Fatalf("unknown example %q", *example)
	}

	res, err := core.Compile(write)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("---- compiled TCAP ----")
	fmt.Print(res.Prog.Print())

	opt, stats, err := optimizer.Optimize(res.Prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n---- optimized TCAP (rules fired: %d redundant applies, %d filters pushed, %d dead columns) ----\n",
		stats.RedundantApplies, stats.FiltersPushed, stats.ColumnsDropped)
	fmt.Print(opt.Print())

	plan, err := physical.Build(opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n---- physical plan (job stages) ----")
	fmt.Print(plan.String())
}

// selExample is §7's redundant-method-call selection.
func selExample() *core.Write {
	sel := &core.Selection{
		In:      core.NewScan("db", "emps", "Emp"),
		ArgType: "Emp",
		Predicate: func(emp *lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(50000)),
				lambda.Lt(lambda.FromMethod(emp, "getSalary"), lambda.ConstF64(100000)),
			)
		},
	}
	return core.NewWrite("db", "out", sel)
}

// joinExample is §7's filter-pushdown join.
func joinExample() *core.Write {
	join := &core.Join{
		In:       []core.Computation{core.NewScan("db", "emps", "Emp"), core.NewScan("db", "sups", "Sup")},
		ArgTypes: []string{"Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Gt(lambda.FromMethod(args[0], "getSalary"), lambda.ConstF64(50000)),
				lambda.Eq(lambda.FromMethod(args[0], "getSupervisor"), lambda.FromMember(args[1], "name")),
			)
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	return core.NewWrite("db", "joined", join)
}

// join3Example is the §4 Dep/Emp/Sup three-way join behind Figure 1.
func join3Example() *core.Write {
	join := &core.Join{
		In: []core.Computation{
			core.NewScan("db", "deps", "Dep"),
			core.NewScan("db", "emps", "Emp"),
			core.NewScan("db", "sups", "Sup"),
		},
		ArgTypes: []string{"Dep", "Emp", "Sup"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(
				lambda.Eq(lambda.FromMember(args[0], "deptName"), lambda.FromMethod(args[1], "getDeptName")),
				lambda.Eq(lambda.FromMember(args[0], "deptName"), lambda.FromMethod(args[2], "getDept")),
			)
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	return core.NewWrite("db", "threeway", join)
}

// fig3Example reproduces Figure 3's shape: three joins feeding an
// aggregation.
func fig3Example() *core.Write {
	scan := func(set string) *core.Scan { return core.NewScan("db", set, "Rec") }
	eq := func(args []*lambda.Arg, i, j int) lambda.Term {
		return lambda.Eq(lambda.FromMember(args[i], "key"), lambda.FromMember(args[j], "key"))
	}
	join := &core.Join{
		In:       []core.Computation{scan("in1"), scan("in2"), scan("in3"), scan("in4")},
		ArgTypes: []string{"Rec", "Rec", "Rec", "Rec"},
		Predicate: func(args []*lambda.Arg) lambda.Term {
			return lambda.And(eq(args, 0, 1), lambda.And(eq(args, 0, 2), eq(args, 0, 3)))
		},
		Projection: func(args []*lambda.Arg) lambda.Term { return lambda.FromSelf(args[0]) },
	}
	agg := &core.Aggregate{
		In:      join,
		ArgType: "Rec",
		Key:     func(arg *lambda.Arg) lambda.Term { return lambda.FromMember(arg, "key") },
		Val:     func(arg *lambda.Arg) lambda.Term { return lambda.ConstF64(1) },
		KeyKind: object.KInt64,
		ValKind: object.KFloat64,
		Fold:    object.FoldSum,
		Finalize: func(a *object.Allocator, key, val object.Value) (object.Ref, error) {
			return a.MakeRaw(8)
		},
	}
	return core.NewWrite("db", "result", agg)
}
