package suite

import (
	"io"
	"strings"

	"repro/pc"
)

// ProbeInput is what a traced run hands the layer probes: the workload's
// own cluster, pages and key column, so every probe drives a layer's public
// functions on the data the job actually processed.
type ProbeInput struct {
	Workload string
	Rows     int
	// JobS is the median wall time of this run's untraced jobs (pc.job_s_p50),
	// the base of every cost share.
	JobS float64
	// Dir is a scratch directory (relative, removed when the run ends).
	Dir string
	// Log takes the attribution table.
	Log io.Writer
	// Client is the open cluster after the last job; Db/Set/TypeName name
	// the workload's main stored input.
	Client            *pc.Client
	Db, Set, TypeName string
	// Keys holds, per input row, the int64 the job hashes, groups or sorts
	// on.
	Keys []int64
	// UserBytes is the payload of the whole input as the user counts it:
	// 8 bytes per number, one per string byte.
	UserBytes int64
	// Graph builds the job's computation graph; nil when a library
	// (tpch, ml) or a closure API (the join) keeps it to itself.
	Graph func() ([]*pc.Write, error)
	// Rerun measures the median job time of a fresh instance of this
	// workload, on the same input or on an empty one, under a mutated
	// cluster config (nil: unchanged).
	Rerun func(empty bool, mutate func(*pc.Config), warm, timed int) (float64, error)
}

// Probes runs the layer probes and records their metrics (or why one is
// missing) in res. benchmark/layers sets it from an init in builds tagged
// layerprobes; it is nil otherwise, and the traced tier then reports only
// what the driver can see through the public API.
var Probes func(in ProbeInput, res *Result)

// Counters reads a cluster's cumulative layer counters, keyed by the
// per-layer metric each feeds. Set by benchmark/layers like Probes.
var Counters func(c *pc.Client) map[string]float64

// counterLog accumulates Counters deltas across the clusters a run opens
// (ingest_scan reopens its cluster inside every job).
type counterLog struct {
	last  map[*pc.Client]map[string]float64
	total map[string]float64
}

// harvest folds in what c counted since it was last harvested.
func (l *counterLog) harvest(c *pc.Client) {
	if Counters == nil || c == nil {
		return
	}
	if l.last == nil {
		l.last = map[*pc.Client]map[string]float64{}
		l.total = map[string]float64{}
	}
	cur := Counters(c)
	for k, v := range cur {
		if isGauge(k) {
			l.total[k] = max(l.total[k], v)
		} else {
			l.total[k] += v - l.last[c][k]
		}
	}
	l.last[c] = cur
}

// forget drops a cluster that is about to close.
func (l *counterLog) forget(c *pc.Client) { delete(l.last, c) }

// reset zeroes the additive totals: warm-up traffic is not reported.
func (l *counterLog) reset() {
	for k := range l.total {
		if !isGauge(k) {
			l.total[k] = 0
		}
	}
}

// isGauge marks high-water marks, which take a maximum and not a sum.
func isGauge(name string) bool { return strings.Contains(name, ".max_") }

// record turns the totals into metrics: *_per_row and *_per_job are
// divided accordingly, everything else is reported as counted.
func (l *counterLog) record(res *Result, jobs, rows int) {
	for k, v := range l.total {
		switch {
		case strings.HasSuffix(k, "_per_row"):
			v /= float64(jobs) * float64(max(rows, 1))
		case strings.HasSuffix(k, "_per_job"):
			v /= float64(jobs)
		}
		res.Set(k, v)
	}
}
