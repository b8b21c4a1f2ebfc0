// Package ml implements the paper's §8.5 machine-learning benchmarks on
// both engines: k-means clustering, Gaussian mixture model EM, and a
// word-based, non-collapsed Gibbs sampler for LDA. Each algorithm has a PC
// implementation (computation graphs over PC objects) and an algorithmically
// equivalent baseline implementation (boxed records over the Spark-analogue
// engine), mirroring the paper's methodology.
package ml

import (
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/stat"
)

// GeneratePoints draws n d-dimensional points from k well-separated
// Gaussian clusters (the random data of §8.5.2), returning the points and
// each point's true cluster.
func GeneratePoints(rng *rand.Rand, n, d, k int) (points [][]float64, labels []int) {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, d)
		for j := range centers[c] {
			centers[c][j] = rng.NormFloat64() * 10
		}
	}
	points = make([][]float64, n)
	labels = make([]int, n)
	for i := range points {
		c := i % k
		labels[i] = c
		p := make([]float64, d)
		for j := range p {
			p[j] = centers[c][j] + rng.NormFloat64()
		}
		points[i] = p
	}
	return points, labels
}

// Triple is a (docID, wordID, count) LDA input record (paper §8.5.1: "the
// fundamental data objects it operates over").
type Triple struct {
	Doc   int64
	Word  int64
	Count int64
}

// GenerateCorpus builds a semi-synthetic corpus with trueTopics underlying
// topics over a vocabulary of vocab words: each topic owns a disjoint slice
// of the vocabulary (plus noise), and each document draws most of its words
// from its topic — so topic recovery is checkable.
func GenerateCorpus(rng *rand.Rand, docs, vocab, trueTopics, wordsPerDoc int) ([]Triple, []int) {
	if vocab < trueTopics {
		vocab = trueTopics
	}
	slice := vocab / trueTopics
	var triples []Triple
	labels := make([]int, docs)
	for d := 0; d < docs; d++ {
		topic := d % trueTopics
		labels[d] = topic
		counts := map[int64]int64{}
		for w := 0; w < wordsPerDoc; w++ {
			var word int64
			if rng.Float64() < 0.9 {
				word = int64(topic*slice + rng.Intn(slice))
			} else {
				word = int64(rng.Intn(vocab))
			}
			counts[word]++
		}
		for w, c := range counts {
			triples = append(triples, Triple{Doc: int64(d), Word: w, Count: c})
		}
	}
	return triples, labels
}

// sq is a squared-distance helper with the lower-bound norm trick (paper
// §8.5.1's k-means: ‖a−b‖² ≥ (‖a‖−‖b‖)² prunes full distance computations).
type normTrick struct {
	centroids [][]float64
	norms     []float64
	// Pruned counts how many full distance computations the bound saved
	// (tests assert the trick actually fires). Atomic: one trick instance
	// is shared by all parallel executors of an iteration.
	Pruned atomic.Int64
}

// pointStackDims sizes the stack array a native reads one point into
// (F64Span.AppendTo) before the distance or density loops run over it; a
// longer point spills to the heap, one slice a point. The loops read each
// coordinate once per centroid, and over a Go slice they run twice as fast
// as over the span (k = d = 10: 105 against 229 ns a point; closest on the
// span cost the kmeans workload 12–27 % of its job time), so the point is
// decoded once, not where it lies.
const pointStackDims = 32

func newNormTrick(centroids [][]float64) *normTrick {
	nt := &normTrick{centroids: centroids, norms: make([]float64, len(centroids))}
	for i, c := range centroids {
		nt.norms[i] = norm(c)
	}
	return nt
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// closest returns the nearest centroid to x using the lower bound.
func (nt *normTrick) closest(x []float64) (int, float64) {
	xn := norm(x)
	best, bestD := -1, math.Inf(1)
	for i, c := range nt.centroids {
		lb := xn - nt.norms[i]
		if lb*lb >= bestD {
			nt.Pruned.Add(1)
			continue
		}
		d := 0.0
		for j := range c {
			diff := x[j] - c[j]
			d += diff * diff
		}
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

// LogLikelihoodGMM computes the data log likelihood under a mixture
// (testing/benchmark diagnostic).
func LogLikelihoodGMM(points [][]float64, weights []float64, gs []stat.Gaussian) float64 {
	total := 0.0
	lw := make([]float64, len(gs))
	for i, w := range weights {
		lw[i] = math.Log(w)
	}
	probs := make([]float64, len(gs))
	for _, x := range points {
		for j := range gs {
			probs[j] = lw[j] + gs[j].LogPDF(x)
		}
		total += stat.LogSumExp(probs)
	}
	return total
}
