package suite

import "time"

// The reference machine is a 2-vCPU VM whose neighbours slow it by 15-30 %
// for minutes at a time (mostly through the shared cache and memory: a pure
// ALU loop wanders by 4 %, random loads by 30 %). Ten runs of one binary on
// one seed then differ by more than any bound the suite could set, and two
// sets of ten an hour apart differ by 30 % in their medians. So every wall
// time the end-to-end tier reports is scaled by the machine's speed beside
// it: a fixed kernel, run on the same two cores before the set-ups and before
// every job, against the time that kernel takes when the machine is quiet.
// Measured on two sets of ten runs of every workload, that took the worst
// set-to-set shift of a job time from 30 % to 13 % and the worst spread from
// 29 % to 16 % (benchmark/README.md has the tables). The correction is
// partial: work that streams through memory or waits on the kernel
// (agg_narrow, ingest_scan) feels the neighbours less than the kernel's random
// loads do. The raw times are printed beside the scaled ones and reported,
// unscaled, in the per-layer tier.

const (
	calALUSteps  = 3_000_000 // xorshift steps per goroutine
	calLoads     = 500_000   // independent random loads per goroutine
	calTableSize = 1 << 21   // uint64s per goroutine: 16 MiB, well past the 2 MiB L2

	// calRefS is the kernel's time on the quiet reference machine: the
	// tenth percentile of its per-run medians over 160 runs when the suite
	// was defined (median 0.0150, worst 0.0204). Another machine scales
	// every time by a constant, which no comparison sees.
	calRefS = 0.0140
)

// calibrator times the calibration kernel beside the measured work: once
// before the set-ups, which take a few seconds in all, and before every job.
type calibrator struct {
	tables  [Workers][]uint64
	sink    [Workers]uint64
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for s := range c.tables {
		c.tables[s] = make([]uint64, calTableSize)
		for i := range c.tables[s] {
			c.tables[s][i] = uint64(i)
		}
	}
	return c
}

// sample runs the kernel once, on one goroutine per worker: arithmetic that
// stays in registers, then loads that miss the private caches.
func (c *calibrator) sample() {
	t0 := time.Now()
	shards(Workers, func(s, _, _ int) {
		x := uint64(88172645463325252) + uint64(s)
		for i := 0; i < calALUSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		tab := c.tables[s]
		idx, sum := x|1, uint64(0)
		for i := 0; i < calLoads; i++ {
			idx = idx*6364136223846793005 + 1442695040888963407
			sum += tab[(idx>>20)%calTableSize]
		}
		c.sink[s] += x + sum
	})
	c.samples = append(c.samples, time.Since(t0).Seconds())
}

// speed is the machine's speed over the run as a share of the reference
// machine's: one factor per run, from the median sample, because slow phases
// last minutes and a single 12 ms sample jitters more than a job does.
func (c *calibrator) speed() float64 { return calRefS / Median(c.samples) }
