// pcbench regenerates the tables of the paper's evaluation (§8) at laptop
// scale, printing measured results next to the paper's reported numbers.
// (The repo's regression benchmark is benchmark/: bash benchmark/run.sh -all.)
//
//	go run ./cmd/pcbench            # all tables
//	go run ./cmd/pcbench -table 3   # one table
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "run only this table (2-8); 0 = all")
	flag.Parse()

	type exp struct {
		id  int
		run func() (*bench.Table, error)
	}
	experiments := []exp{
		{2, func() (*bench.Table, error) { return bench.RunTable2(bench.DefaultTable2()) }},
		{3, func() (*bench.Table, error) { return bench.RunTable3(bench.DefaultTable3()) }},
		{4, func() (*bench.Table, error) { return bench.RunTable4(bench.DefaultTable4()) }},
		{5, func() (*bench.Table, error) { return bench.RunTable5(bench.DefaultTable5()) }},
		{6, func() (*bench.Table, error) { return bench.RunTable6(bench.DefaultTable6()) }},
		{7, func() (*bench.Table, error) { return bench.RunTable7(repoRoot()) }},
		{8, func() (*bench.Table, error) { return bench.RunTable8(bench.DefaultTable8()) }},
	}
	for _, e := range experiments {
		if *table != 0 && e.id != *table {
			continue
		}
		t, err := e.run()
		if err != nil {
			log.Fatalf("table %d: %v", e.id, err)
		}
		fmt.Println(t.Format())
	}
}

// repoRoot finds the module root (for the SLOC table) by walking up from
// the working directory until go.mod appears.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir
		}
		parent := dir + "/.."
		if abs, err := os.Stat(parent); err != nil || !abs.IsDir() {
			return "."
		}
		dir = parent
		if len(dir) > 4096 {
			return "."
		}
	}
}
