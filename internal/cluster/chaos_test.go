package cluster

// The chaos campaign: a seeded sweep of single-fault schedules
// (fault.Seeded) across cluster shapes, memory budgets and crash sites,
// asserting the total-crash-coverage contract on every schedule — a job
// that absorbs an injected panic must produce rows bit-for-bit identical
// to a fault-free run, a job that trips an injected I/O error must fail
// cleanly with the injection named in the error, and either way the step
// must leak nothing (no live spill slots).

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/object"
)

// chaosWorkloads are the jobs the campaign crashes: the fault sites each can
// reach (the spill sites arm only under a budget), its input, and a runner
// returning rows in a deterministic order. Every crashed consumer replays
// its retained stream from page 0. High group cardinality keeps the
// aggregation's shuffle pages full so a one-page budget actually spills;
// the outer join's key ranges overlap only partly, so the unmatched tail
// and the ProbeBitmap site are reached.
var chaosWorkloads = []struct {
	name  string
	sites func(budget int64) []fault.Site
	load  func(t *testing.T, c *Cluster, rec *object.TypeInfo)
	run   func(c *Cluster, rec *object.TypeInfo) ([]string, error)
}{
	{"join",
		func(budget int64) []fault.Site {
			return withSpillSites(budget, fault.PageSeal, fault.BuildPage, fault.ProbePage, fault.Emit)
		},
		func(t *testing.T, c *Cluster, rec *object.TypeInfo) {
			loadIntRows(t, c, rec, "db", "left", 600, 18)
			loadIntRows(t, c, rec, "db", "right", 90, 18)
		},
		func(c *Cluster, rec *object.TypeInfo) ([]string, error) {
			return joinKindRows(c, rec, core.JoinInner)
		}},
	{"sort",
		func(int64) []fault.Site {
			return []fault.Site{fault.PageSeal, fault.Delivery, fault.Finalize}
		},
		func(t *testing.T, c *Cluster, rec *object.TypeInfo) {
			loadIntRows(t, c, rec, "db", "rows", 1400, 23)
		},
		func(c *Cluster, rec *object.TypeInfo) ([]string, error) {
			return intSortRows(c, rec, "orderby", "sorted")
		}},
	{"outerjoin",
		func(budget int64) []fault.Site {
			return withSpillSites(budget, fault.PageSeal, fault.BuildPage, fault.ProbePage, fault.Emit, fault.ProbeBitmap)
		},
		func(t *testing.T, c *Cluster, rec *object.TypeInfo) {
			loadIntRows(t, c, rec, "db", "left", 600, 18)
			loadIntRowsOff(t, c, rec, "db", "right", 90, 18, 9)
		},
		func(c *Cluster, rec *object.TypeInfo) ([]string, error) {
			return joinKindRows(c, rec, core.JoinFull)
		}},
	{"agg",
		func(budget int64) []fault.Site {
			return withSpillSites(budget, fault.PageSeal, fault.Delivery, fault.Finalize)
		},
		func(t *testing.T, c *Cluster, rec *object.TypeInfo) {
			loadIntRows(t, c, rec, "db", "rows", 4000, 499)
		},
		func(c *Cluster, rec *object.TypeInfo) ([]string, error) {
			rows, _, err := intAggRows(c, rec, nil)
			return rows, err
		}},
}

func withSpillSites(budget int64, sites ...fault.Site) []fault.Site {
	if budget > 0 {
		sites = append(sites, fault.SpillEnqueue, fault.SpillWrite, fault.SpillRead)
	}
	return sites
}

// TestChaosCampaign sweeps Workers {1,2,4} × Threads {1,2,8} × budgets
// {unbounded, one page} × the four workloads × 6 consecutive seeds — 432
// fault schedules — and requires every site a workload lists to have fired
// within that workload, so a site the workload can no longer reach fails
// the campaign instead of passing on another workload's hits. -short runs
// the one 2×2 cell (48 schedules), too few seeds to reach every site.
func TestChaosCampaign(t *testing.T) {
	workers, threads := []int{1, 2, 4}, []int{1, 2, 8}
	if testing.Short() {
		workers, threads = []int{2}, []int{2}
	}
	const seedsPerCell = 6
	seed := int64(1) // consecutive seeds cycle a cell's sites
	fired := map[fault.Site]int{}
	for _, wl := range chaosWorkloads {
		wlFired := map[fault.Site]int{}
		swept := map[fault.Site]bool{}
		for _, w := range workers {
			for _, th := range threads {
				for _, budget := range []int64{0, spillBudget} {
					build := func(plan *fault.Plan) (*Cluster, *object.TypeInfo) {
						c, err := New(Config{Workers: w, Threads: th, PageSize: 1 << 12,
							MemoryBudget: budget, Fault: plan})
						if err != nil {
							t.Fatal(err)
						}
						rec := intRecType(c)
						wl.load(t, c, rec)
						return c, rec
					}
					cell := fmt.Sprintf("%s w=%d t=%d budget=%d", wl.name, w, th, budget)
					refC, refRec := build(nil)
					want, err := wl.run(refC, refRec)
					if err != nil || len(want) == 0 {
						t.Fatalf("%s: fault-free reference: %d rows, %v", cell, len(want), err)
					}
					sites := wl.sites(budget)
					for _, s := range sites {
						swept[s] = true
					}
					for i := 0; i < seedsPerCell; i++ {
						plan := fault.Seeded(seed, w, sites)
						label := fmt.Sprintf("%s seed=%d [%s]", cell, seed, plan)
						seed++
						c, rec := build(plan)
						got, err := wl.run(c, rec)
						site := plan.Injections()[0].Site
						switch {
						case err == nil:
							if !equalRows(got, want) {
								t.Errorf("%s: rows differ from the fault-free run (%d vs %d)", label, len(got), len(want))
							}
						case site.IsError() && strings.Contains(err.Error(), "fault: injected"):
							// An injected I/O error failed the job cleanly —
							// the accepted outcome for error sites.
						default:
							t.Errorf("%s: unexpected failure: %v", label, err)
						}
						assertNoJoinLeaks(t, c, label)
						if plan.Fired() > 0 {
							fired[site]++
							wlFired[site]++
						}
					}
				}
			}
		}
		if !testing.Short() {
			for s := range swept {
				if wlFired[s] == 0 {
					t.Errorf("%s: site %s never fired in the workload's schedules", wl.name, s)
				}
			}
		}
	}
	if len(fired) == 0 {
		t.Error("no fault schedule fired — the sweep exercised nothing")
	}
	t.Logf("%d schedules; fired per site: %v", seed-1, fired)
}
