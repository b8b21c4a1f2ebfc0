// Package stat is the GSL substitute: the random sampling and numeric
// helpers PC's ML codes need — multinomial and Dirichlet sampling for the
// non-collapsed Gibbs LDA, multivariate normal density in log space for
// GMM, and log-sum-exp (the "log space trick" of §8.5.1).
package stat

import (
	"fmt"
	"math"
	"math/rand"
)

// LogSumExp computes log(Σ exp(xs)) stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := xs[0]
	for _, x := range xs[1:] {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return max
	}
	s := 0.0
	for _, x := range xs {
		s += math.Exp(x - max)
	}
	return max + math.Log(s)
}

// SampleMultinomial draws one index with probability proportional to
// weights (which need not be normalized).
func SampleMultinomial(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return rng.Intn(len(weights))
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleLogMultinomial draws an index from unnormalized log weights using
// the log-space trick.
func SampleLogMultinomial(rng *rand.Rand, logw []float64) int {
	z := LogSumExp(logw)
	u := rng.Float64()
	acc := 0.0
	for i, lw := range logw {
		acc += math.Exp(lw - z)
		if u < acc {
			return i
		}
	}
	return len(logw) - 1
}

// SampleGamma draws from Gamma(shape, 1) via Marsaglia–Tsang.
func SampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) · U^{1/a}.
		return SampleGamma(rng, shape+1) * math.Pow(rng.Float64(), 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// SampleDirichlet draws a probability vector from Dirichlet(alphas).
func SampleDirichlet(rng *rand.Rand, alphas []float64) []float64 {
	out := make([]float64, len(alphas))
	total := 0.0
	for i, a := range alphas {
		g := SampleGamma(rng, a)
		out[i] = g
		total += g
	}
	if total == 0 {
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// Gaussian is a diagonal-covariance multivariate normal — the model
// component used by the GMM benchmark (diagonal covariance keeps the
// laptop-scale reproduction tractable while exercising the same EM code
// path).
type Gaussian struct {
	Mean []float64
	Var  []float64 // per-dimension variance
}

// LogPDF evaluates the log density at x.
func (g *Gaussian) LogPDF(x []float64) float64 {
	if len(x) != len(g.Mean) {
		return math.Inf(-1)
	}
	lp := 0.0
	for i := range x {
		v := g.Var[i]
		if v <= 0 {
			v = 1e-9
		}
		d := x[i] - g.Mean[i]
		lp += -0.5*math.Log(2*math.Pi*v) - d*d/(2*v)
	}
	return lp
}

// Sample draws from the Gaussian.
func (g *Gaussian) Sample(rng *rand.Rand) []float64 {
	out := make([]float64, len(g.Mean))
	for i := range out {
		out[i] = g.Mean[i] + rng.NormFloat64()*math.Sqrt(g.Var[i])
	}
	return out
}

// Mean computes the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance computes the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return s / float64(len(xs))
}

// Jaccard computes the Jaccard similarity of two integer sets given as
// sorted, deduplicated slices (the TPC-H top-k query's metric, §8.4).
func Jaccard(a, b []int64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Dedup sorts and deduplicates in place, returning the shortened slice.
func Dedup(xs []int64) []int64 {
	if len(xs) == 0 {
		return xs
	}
	// Insertion-free: simple quicksort via sort would need the sort
	// package; use it.
	sortInt64(xs)
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func sortInt64(xs []int64) {
	// Shell sort: dependency-free and adequate for workload-sized lists.
	n := len(xs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			v := xs[i]
			j := i
			for ; j >= gap && xs[j-gap] > v; j -= gap {
				xs[j] = xs[j-gap]
			}
			xs[j] = v
		}
	}
}

// String renders a Gaussian compactly for diagnostics.
func (g *Gaussian) String() string {
	return fmt.Sprintf("N(mean=%v, var=%v)", g.Mean, g.Var)
}
