package suite

import (
	"math"
	"slices"
)

// MetricDef names one metric of the suite. The tables below are the single
// source of truth; BENCHMARK.json repeats them and a test keeps the two
// equal.
type MetricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// EndToEnd is what a tool author submitting batch jobs sees. Times are the
// fastest of their repetitions at the reference machine's speed (see
// calibrate.go); the medians, unscaled, are in the per-layer tier. fail_frac
// is reported too (Result.Failed / Result.Attempted) but is not listed here:
// its healthy value is 0 and any other value fails the run outright.
var EndToEnd = []MetricDef{
	{"job_s_min", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"goloop_frac", "ratio", "higher", 0.25},
	{"alloc_bytes_per_row", "B/row", "lower", 0.05},
	{"allocs_per_row", "1/row", "lower", 0.05},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the traced tier, layer by layer (the prefix is the
// package). A traced run reports every one of them; a metric a workload
// cannot produce is reported as 0 with a reason in Result.Missing.
var PerLayer = []MetricDef{
	// pc: spans around the driver's own public calls, and the job times as
	// the wall clock saw them (the end-to-end tier scales and takes minima).
	{Name: "pc.job_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.rows_per_s_wall", Unit: "rows/s", Better: "higher"},
	{Name: "pc.machine_speed_frac", Unit: "ratio", Better: "higher"},
	{Name: "pc.execute_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.result_read_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.dropset_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.job_s_p75", Unit: "s", Better: "lower"},
	{Name: "pc.buildpages_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.senddata_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.reopen_s_p50", Unit: "s", Better: "lower"},
	{Name: "pc.scanset_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "pc.load_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "pc.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	// planning layers, on the workload's own graph.
	{Name: "core.compile_s_p50", Unit: "s", Better: "lower"},
	{Name: "optimizer.optimize_s_p50", Unit: "s", Better: "lower"},
	{Name: "physical.build_s_p50", Unit: "s", Better: "lower"},
	{Name: "tcap.print_parse_s_p50", Unit: "s", Better: "lower"},
	// cluster: counters, probes, differentials.
	{Name: "cluster.stages_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.shipped_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "cluster.shipped_pages_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.checkpoints_per_job", Unit: "count", Better: "lower"},
	{Name: "cluster.max_inflight_bytes", Unit: "B", Better: "lower"},
	{Name: "cluster.max_reorder_pages", Unit: "count", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.reconnects", Unit: "count", Better: "lower"},
	{Name: "cluster.empty_job_s_p50", Unit: "s", Better: "lower"},
	{Name: "cluster.ship_mem_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "cluster.ship_unix_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "cluster.proc_spawn_s", Unit: "s", Better: "lower"},
	{Name: "cluster.checkpoint_cost_frac", Unit: "ratio", Better: "lower"},
	{Name: "cluster.boundary_cost_frac", Unit: "ratio", Better: "lower"},
	// engine.
	{Name: "engine.executor_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "engine.scan_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "engine.sortkey_encode_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.sortmerge_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "engine.jointable_add_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.jointable_probe_per_s", Unit: "1/s", Better: "higher"},
	{Name: "engine.rows_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.pages_sealed_per_job", Unit: "count", Better: "lower"},
	{Name: "engine.hash_probes_per_row", Unit: "1/row", Better: "lower"},
	{Name: "engine.hash_resizes_per_job", Unit: "count", Better: "lower"},
	// object.
	{Name: "object.build_flat_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "object.build_nested_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "object.frombytes_pages_per_s", Unit: "1/s", Better: "higher"},
	{Name: "object.deepcopy_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "object.omap_update_per_s", Unit: "1/s", Better: "higher"},
	{Name: "object.omap_get_per_s", Unit: "1/s", Better: "higher"},
	{Name: "object.page_fill_frac", Unit: "ratio", Better: "higher"},
	{Name: "object.bytes_per_row", Unit: "B/row", Better: "lower"},
	// swiss.
	{Name: "swiss.reftable_add_per_s", Unit: "1/s", Better: "higher"},
	{Name: "swiss.reftable_lookup_per_s", Unit: "1/s", Better: "higher"},
	{Name: "swiss.index_lookup_per_s", Unit: "1/s", Better: "higher"},
	{Name: "swiss.vs_gomap", Unit: "ratio", Better: "higher"},
	// exchange.
	{Name: "exchange.pages_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exchange.bytes_per_s", Unit: "B/s", Better: "higher"},
	// wire.
	{Name: "wire.encode_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "wire.decode_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "wire.frame_overhead_bytes", Unit: "B", Better: "lower"},
	// storage.
	{Name: "storage.append_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "storage.load_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "storage.spill_roundtrip_bytes_per_s", Unit: "B/s", Better: "higher"},
	{Name: "storage.disk_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	// references, run beside the workload.
	{Name: "goloop.job_s_p50", Unit: "s", Better: "lower"},
	{Name: "baseline.job_s_p50", Unit: "s", Better: "lower"},
	{Name: "baseline.speedup", Unit: "ratio", Better: "higher"},
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// Median is the 0.5-quantile of xs.
func Median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
