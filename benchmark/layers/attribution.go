//go:build layerprobes

package layers

import (
	"fmt"
	"io"

	"repro/benchmark/suite"
)

// attribution prints, per layer, a counter times a probe's unit cost as an
// ESTIMATED share of pc.job_s_p50. It is a model, not a measurement: probes run
// a layer alone and in one thread, jobs overlap layers across two workers.
// ROADMAP's job-profile item will replace it with spans inside the engine,
// and the two must then agree.
func (p *prober) attribution(w io.Writer) {
	m := p.res.Metrics
	get := func(name string) (float64, bool) {
		v, ok := m[name]
		return v.Value, ok && v.Value != 0
	}
	rows := float64(p.in.Rows)
	par := float64(suite.Workers * suite.Threads)
	type line struct {
		layer, how string
		seconds    float64
	}
	var lines []line
	add := func(layer, how string, seconds float64) { lines = append(lines, line{layer, how, seconds}) }

	if v, ok := get("cluster.empty_job_s_p50"); ok {
		add("core+optimizer+physical+cluster", "fixed cost: the job on empty input", v)
	}
	if r, ok := get("engine.scan_rows_per_s"); ok {
		add("engine (scan)", "rows / scan rate / threads", rows/r/par)
	}
	if probes, ok := get("engine.hash_probes_per_row"); ok {
		if r, ok := get("swiss.index_lookup_per_s"); ok {
			add("swiss (hash probes)", "hash probes / index lookup rate / threads", probes*rows/r/par)
		}
	}
	if b, ok := get("cluster.shipped_bytes_per_row"); ok {
		if r, ok := get("exchange.bytes_per_s"); ok {
			add("exchange", "shipped bytes / exchange rate", b*rows/r)
		}
		ship := "cluster.ship_mem_bytes_per_s"
		if p.in.Client.Cluster.Cfg.ProcBin != "" {
			ship = "cluster.ship_unix_bytes_per_s"
			if enc, ok := get("wire.encode_bytes_per_s"); ok {
				if dec, ok := get("wire.decode_bytes_per_s"); ok {
					add("wire", "shipped bytes x (1/encode + 1/decode rate)", b*rows*(1/enc+1/dec))
				}
			}
		}
		if r, ok := get(ship); ok {
			add("cluster (transport)", "shipped bytes / "+ship, b*rows/r)
		}
	}
	if p.in.Client.Cluster.Cfg.DataDir != "" {
		if bpr, ok := get("object.bytes_per_row"); ok {
			if r, ok := get("storage.load_bytes_per_s"); ok {
				add("storage (load)", "stored input bytes / load rate", bpr*rows/r)
			}
		}
	}
	if p.in.Workload == "sort_full" {
		if r, ok := get("engine.sortkey_encode_per_s"); ok {
			add("engine (sort keys)", "rows / encode rate / threads", rows/r/par)
		}
		if r, ok := get("engine.sortmerge_rows_per_s"); ok {
			add("engine (run build + merge)", "rows / sortmerge rate", rows/r)
		}
	}
	if p.in.Workload == "join_part" {
		if r, ok := get("engine.jointable_probe_per_s"); ok {
			add("engine (join probe)", "probe rows / probe rate / threads", rows/r/par)
		}
		if r, ok := get("object.deepcopy_rows_per_s"); ok {
			add("object (deep copy)", "rows / deep-copy rate / threads", rows/r/par)
		}
	}
	if v, ok := get("pc.result_read_s_p50"); ok {
		add("pc (result read)", "measured span", v)
	}
	if v, ok := get("pc.dropset_s_p50"); ok {
		add("pc (drop set)", "measured span", v)
	}

	fmt.Fprintf(w, "  -- %s: ESTIMATED attribution of pc.job_s_p50 = %.4f s (counter x probe unit cost; shares may overlap) --\n", p.in.Workload, p.in.JobS)
	total := 0.0
	for _, l := range lines {
		fmt.Fprintf(w, "  %-34s %9.4f s %6.1f%%  %s\n", l.layer, l.seconds, 100*l.seconds/p.in.JobS, l.how)
		total += l.seconds
	}
	fmt.Fprintf(w, "  %-34s %9.4f s %6.1f%%  pc.job_s_p50 minus the rows above: kernels, sinks, merge, finalize, waiting\n",
		"not attributed", p.in.JobS-total, 100*(p.in.JobS-total)/p.in.JobS)
}
