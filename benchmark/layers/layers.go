//go:build layerprobes

// Package layers is the per-layer tier of pcsuite: it drives each internal
// package's public functions in isolation on the workload's own pages and
// keys, and reads the counters the cluster already keeps. It is compiled
// only into the traced run (build tag layerprobes): a later change to a
// probed signature loses per-layer numbers, loudly, but never the build or
// the end-to-end tier.
//
// Layers are measured from outside. A probe gives a rate for a known amount
// of work; it is not the time the job spent in that layer. The attribution
// table multiplies counters by probe unit costs and says so.
package layers

import (
	"fmt"
	"time"

	"repro/benchmark/suite"
	"repro/internal/engine"
	"repro/internal/object"
	"repro/pc"
)

func init() {
	suite.Probes = run
	suite.Counters = counters
}

// counters reads the cumulative counters a cluster keeps: the transport's
// accounting block and every worker backend's engine.Stats.
func counters(c *pc.Client) map[string]float64 {
	st := c.Cluster.Transport.Stats()
	bytes, pages := st.Counters()
	var es engine.Stats
	reforks := 0
	for _, w := range c.Cluster.Workers {
		es.Merge(&w.Front.Backend().Stats)
		reforks += w.Front.ReForks
	}
	return map[string]float64{
		"cluster.shipped_bytes_per_row": float64(bytes),
		"cluster.shipped_pages_per_job": float64(pages),
		"cluster.checkpoints_per_job":   float64(st.Checkpoints),
		"cluster.max_inflight_bytes":    float64(st.MaxBytesInFlight),
		"cluster.max_reorder_pages":     float64(st.MaxReorderPages),
		"cluster.reconnects":            float64(st.Reconnects),
		"cluster.retries":               float64(reforks),
		"engine.rows_per_job":           float64(es.Rows),
		"engine.pages_sealed_per_job":   float64(es.PagesSealed),
		"engine.hash_probes_per_row":    float64(es.HashProbes),
		"engine.hash_resizes_per_job":   float64(es.HashResizes),
	}
}

// Probe sizes: enough work for a stable rate, little enough that the whole
// battery stays within a few seconds.
const (
	maxProbePages = 64      // pages a page-moving probe touches (16 MiB at 256 KiB)
	maxProbeKeys  = 1 << 20 // keys a hash or sort probe touches
	probeReps     = 3       // a probe's rate is the median of this many passes
)

// prober carries one traced run's inputs through the probes.
type prober struct {
	in  suite.ProbeInput
	res *suite.Result
	reg *object.Registry
	// pages are stored pages of the workload's main input (or flat pages
	// built from its keys when the workload stores nothing between jobs);
	// refs are the objects on them, in scan order.
	pages []*object.Page
	refs  []object.Ref
	keys  []int64
}

// probe is one layer probe and the metrics it produces.
type probe struct {
	fn    func() error
	names []string
}

func (p *prober) probes() []probe {
	return []probe{
		{p.planning, []string{"core.compile_s_p50", "optimizer.optimize_s_p50", "physical.build_s_p50", "tcap.print_parse_s_p50"}},
		{p.emptyJob, []string{"cluster.empty_job_s_p50"}},
		{p.shipMem, []string{"cluster.ship_mem_bytes_per_s"}},
		{p.shipUnix, []string{"cluster.ship_unix_bytes_per_s"}},
		{p.procSpawn, []string{"cluster.proc_spawn_s"}},
		{p.checkpointCost, []string{"cluster.checkpoint_cost_frac"}},
		{p.boundaryCost, []string{"cluster.boundary_cost_frac"}},
		{p.executor, []string{"engine.executor_rows_per_s"}},
		{p.scan, []string{"engine.scan_rows_per_s"}},
		{p.sortKeys, []string{"engine.sortkey_encode_per_s", "engine.sortmerge_rows_per_s"}},
		{p.joinTable, []string{"engine.jointable_add_per_s", "engine.jointable_probe_per_s"}},
		{p.objectBuild, []string{"object.build_flat_rows_per_s", "object.build_nested_rows_per_s"}},
		{p.objectPages, []string{"object.frombytes_pages_per_s", "object.deepcopy_rows_per_s", "object.page_fill_frac", "object.bytes_per_row"}},
		{p.omap, []string{"object.omap_update_per_s", "object.omap_get_per_s"}},
		{p.swiss, []string{"swiss.reftable_add_per_s", "swiss.reftable_lookup_per_s", "swiss.index_lookup_per_s", "swiss.vs_gomap"}},
		{p.exchange, []string{"exchange.pages_per_s", "exchange.bytes_per_s"}},
		{p.wire, []string{"wire.encode_bytes_per_s", "wire.decode_bytes_per_s", "wire.frame_overhead_bytes"}},
		{p.storage, []string{"storage.append_bytes_per_s", "storage.load_bytes_per_s", "storage.spill_roundtrip_bytes_per_s", "storage.disk_bytes_per_user_byte"}},
	}
}

func run(in suite.ProbeInput, res *suite.Result) {
	p := &prober{in: in, res: res, reg: in.Client.Registry(), keys: in.Keys}
	if len(p.keys) > maxProbeKeys {
		p.keys = p.keys[:maxProbeKeys]
	}
	err := p.loadPages()
	if len(p.keys) == 0 {
		err = fmt.Errorf("the workload has no input rows")
	}
	if in.Client.Cluster.Cfg.ProcBin != "" {
		// What the master's backends counted is its own small share.
		for _, n := range []string{"engine.rows_per_job", "engine.pages_sealed_per_job", "engine.hash_probes_per_row", "engine.hash_resizes_per_job"} {
			delete(res.Metrics, n)
			res.Missing[n] = "proc-mode workers do not report their engine.Stats to the master"
		}
	}
	for _, probe := range p.probes() {
		perr := err // without pages and keys no probe can run
		if perr == nil {
			perr = probe.fn()
		}
		if perr != nil {
			p.missing(perr.Error(), probe.names...)
		}
	}
	if err == nil {
		p.attribution(in.Log)
	}
}

// missing records why metrics could not be measured, unless a probe
// already measured them before it failed.
func (p *prober) missing(reason string, names ...string) {
	for _, n := range names {
		if _, ok := p.res.Metrics[n]; !ok {
			p.res.Missing[n] = reason
		}
	}
}

// errNA marks a probe that does not apply to the workload.
func errNA(why string) error { return fmt.Errorf("not applicable: %s", why) }

// loadPages fetches the stored pages of the workload's main input from the
// workers' storage servers and lists the objects on them.
func (p *prober) loadPages() error {
	if p.in.Set != "" {
		for _, w := range p.in.Client.Cluster.Workers {
			pages, err := w.Front.Store.Pages(p.in.Db, p.in.Set)
			if err != nil {
				continue // no share of the set on this worker
			}
			p.pages = append(p.pages, pages...)
			if len(p.pages) >= maxProbePages {
				break
			}
		}
	} else {
		// The workload drops its set inside every job (ingest_scan):
		// rebuild the same flat rows.
		ti := p.reg.LookupName(p.in.TypeName)
		if ti == nil || len(ti.Fields) < 2 {
			return fmt.Errorf("type %q is not a registered flat row", p.in.TypeName)
		}
		var err error
		p.pages, err = object.BuildPages(p.reg, suite.PageSize, len(p.keys), func(a *object.Allocator, i int) (object.Ref, error) {
			r, err := a.MakeObject(ti)
			if err == nil {
				object.SetI64(r, &ti.Fields[0], p.keys[i])
				object.SetI64(r, &ti.Fields[1], int64(i))
			}
			return r, err
		})
		if err != nil {
			return err
		}
	}
	if len(p.pages) > maxProbePages {
		p.pages = p.pages[:maxProbePages]
	}
	for _, pg := range p.pages {
		if pg.Root() == 0 {
			continue
		}
		root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
		for i := 0; i < root.Len(); i++ {
			p.refs = append(p.refs, root.HandleAt(i))
		}
	}
	if len(p.refs) == 0 {
		return fmt.Errorf("no stored objects found for %s.%s", p.in.Db, p.in.Set)
	}
	return nil
}

func (p *prober) pageBytes() int {
	n := 0
	for _, pg := range p.pages {
		n += int(pg.Used())
	}
	return n
}

// rate runs pass probeReps times and returns work per second at the median
// pass time.
func rate(work int, pass func() error) (float64, error) {
	var times []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := pass(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return float64(work) / suite.Median(times), nil
}
