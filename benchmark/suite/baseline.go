package suite

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"repro/internal/ml"
	"repro/internal/tpch"
)

// baselineReps is how many jobs the Spark stand-in runs for its median,
// after one that warms it up. It is several times slower than the system
// under test, so the count is small.
const baselineReps = 3

// baseliner is a workload the paper also ran on Spark: it can run the same
// job on internal/baseline (boxed records, gob at every boundary).
type baseliner interface {
	// baseline loads the input into the baseline engine and returns the
	// job, which verifies its own answer against the Go loop.
	baseline() (func() error, error)
}

// baselineMetrics runs the paper's headline comparison beside the workload:
// baseline.speedup = baseline.job_s_p50 / pc.job_s_p50 (base: jobS).
func baselineMetrics(res *Result, w workload, jobS float64) error {
	b, ok := w.(baseliner)
	if !ok {
		res.Missing["baseline.job_s_p50"] = "the paper compares with Spark on tpch_objects and kmeans only"
		res.Missing["baseline.speedup"] = res.Missing["baseline.job_s_p50"]
		return nil
	}
	job, err := b.baseline()
	if err != nil {
		return fmt.Errorf("baseline load: %w", err)
	}
	var times []float64
	for i := 0; i < 1+baselineReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := job(); err != nil {
			return fmt.Errorf("baseline job: %w", err)
		}
		if i > 0 {
			times = append(times, time.Since(t0).Seconds())
		}
	}
	res.Set("baseline.job_s_p50", Median(times))
	res.Set("baseline.speedup", Median(times)/jobS)
	return nil
}

func (w *tpchWorkload) baseline() (func() error, error) {
	data, err := tpch.LoadBaseline(Workers, tpch.ModeHotStorage, w.in)
	if err != nil {
		return nil, err
	}
	return func() error {
		counts, err := data.CustomersPerSupplierBaseline()
		if err != nil {
			return err
		}
		top, err := data.TopKJaccardBaseline(topK, jaccardQuery)
		if err != nil {
			return err
		}
		if !maps.Equal(counts, w.wantCount) || !slices.Equal(top, w.wantTop) {
			return fmt.Errorf("baseline answer differs from the Go loop")
		}
		return nil
	}, nil
}

func (w *kmeansWorkload) baseline() (func() error, error) {
	km := ml.NewKMeansBaseline(Workers, w.k, w.d)
	model, err := km.Init(w.points[:w.n])
	if err != nil {
		return nil, err
	}
	// Every job repeats the first iteration, so the work per job is fixed.
	return func() error {
		_, err := km.Iterate(model)
		return err
	}, nil
}
