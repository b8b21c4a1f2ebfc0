package suite

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"

	"repro/internal/ml"
	"repro/internal/tpch"
)

// tpchWorkload is tpch_objects, the paper's Table 3: customers-per-supplier
// and top-k Jaccard over the nested Customer -> Order -> Lineitem graph.
type tpchWorkload struct {
	customers int

	in        []tpch.GCustomer
	wantCount map[string]int
	wantTop   []tpch.TopJaccardEntry
	session
	schema *tpch.Schema
}

const topK = 16

// tpchPageSize replaces the common 256 KiB page: an aggregate value must fit
// on one page, and a supplier's customer map at 20000 customers does not.
const tpchPageSize = 1 << 22

// jaccardQuery is the part list the top-k query compares customers with.
var jaccardQuery = []int64{1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45}

func (w *tpchWorkload) rows() int { return w.customers }

func (w *tpchWorkload) generate(rng *rand.Rand) {
	w.in = tpch.Generate(tpch.Params{Customers: w.customers, Seed: rng.Int63()})
}

func cmpTop(x, y tpch.TopJaccardEntry) int {
	if x.Similarity != y.Similarity {
		if x.Similarity > y.Similarity {
			return -1
		}
		return 1
	}
	return int(x.CustKey - y.CustKey)
}

func (w *tpchWorkload) goloop() {
	query := slices.Clone(jaccardQuery)
	slices.Sort(query)
	query = slices.Compact(query)
	custs := make([]map[string]map[string]struct{}, Workers)
	tops := make([][]tpch.TopJaccardEntry, Workers)
	shards(len(w.in), func(s, lo, hi int) {
		bySup := map[string]map[string]struct{}{}
		var top []tpch.TopJaccardEntry
		var parts []int64
		for i := lo; i < hi; i++ {
			c := &w.in[i]
			parts = parts[:0]
			for _, o := range c.Orders {
				for _, li := range o.LineItems {
					m := bySup[li.Supplier.Name]
					if m == nil {
						m = map[string]struct{}{}
						bySup[li.Supplier.Name] = m
					}
					m[c.Name] = struct{}{}
					parts = append(parts, li.Part.PartID)
				}
			}
			slices.Sort(parts)
			top = append(top, tpch.TopJaccardEntry{Similarity: jaccard(slices.Compact(parts), query), CustKey: c.CustKey})
			if len(top) >= 4*topK {
				slices.SortFunc(top, cmpTop)
				top = top[:topK]
			}
		}
		custs[s], tops[s] = bySup, top
	})
	all := custs[0]
	for _, other := range custs[1:] {
		for sup, m := range other {
			if all[sup] == nil {
				all[sup] = m
				continue
			}
			for name := range m {
				all[sup][name] = struct{}{}
			}
		}
	}
	w.wantCount = make(map[string]int, len(all))
	for sup, m := range all {
		w.wantCount[sup] = len(m)
	}
	w.wantTop = slices.Concat(tops...)
	slices.SortFunc(w.wantTop, cmpTop)
	if len(w.wantTop) > topK {
		w.wantTop = w.wantTop[:topK]
	}
}

// jaccard is |a∩b| / |a∪b| over sorted, deduplicated lists.
func jaccard(a, b []int64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	i, j, inter := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter, i, j = inter+1, i+1, j+1
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func (w *tpchWorkload) open(e *env) error {
	cfg := baseConfig()
	cfg.PageSize = tpchPageSize
	c, err := e.connect(cfg)
	if err != nil {
		return err
	}
	w.c = c
	w.schema = tpch.RegisterSchema(c.Registry())
	if err := c.CreateDatabase(db); err != nil {
		return err
	}
	defer e.tr.span("load")()
	e.loadedRows += len(w.in)
	return w.schema.LoadPC(c, db, "customers", w.in)
}

func (w *tpchWorkload) job(e *env) error {
	done := e.tr.span("execute")
	err := tpch.CustomersPerSupplierPC(w.c, w.schema, db, "customers", "q1")
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("result_read")
	counts, err := tpch.CountCustomersPerSupplierPC(w.c, w.schema, db, "q1")
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("execute")
	top, err := tpch.TopKJaccardPC(w.c, w.schema, db, "customers", "q2", topK, jaccardQuery)
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("dropset")
	err = w.c.DropSet(db, "q1")
	if err == nil {
		err = w.c.DropSet(db, "q2")
	}
	done()
	if err != nil {
		return err
	}
	if !maps.Equal(counts, w.wantCount) {
		return fmt.Errorf("customers per supplier differ from the Go loop: %d suppliers, want %d", len(counts), len(w.wantCount))
	}
	if !slices.Equal(top, w.wantTop) {
		return fmt.Errorf("top-%d Jaccard differs from the Go loop: %v, want %v", topK, top, w.wantTop)
	}
	w.lastCheck = 0
	for sup, n := range counts {
		w.lastCheck += mix(uint64(len(sup))<<32 + uint64(n))
	}
	for _, t := range top {
		w.lastCheck = chain(w.lastCheck, int64(math.Float64bits(t.Similarity)), t.CustKey)
	}
	return nil
}

func (w *tpchWorkload) probeInput() ProbeInput {
	keys := make([]int64, len(w.in))
	var user int64
	for i := range w.in {
		c := &w.in[i]
		keys[i] = c.CustKey
		user += 8 + int64(len(c.Name))
		for _, o := range c.Orders {
			user += 16
			for _, li := range o.LineItems {
				user += 32 + int64(len(li.Supplier.Name)+len(li.Part.Name)+len(li.Part.Mfgr))
			}
		}
	}
	return ProbeInput{Client: w.c, Db: db, Set: "customers", TypeName: "Customer", Keys: keys, UserBytes: user}
}

// kmeansWorkload is kmeans, the paper's Table 6: many short jobs, one
// KMeansPC.Iterate each. Points sit on a 1/256 lattice, so every partial
// sum is exact and the model is bit-for-bit the Go loop's at any summation
// order.
type kmeansWorkload struct {
	n, d, k int

	points [][]float64
	model  [][]float64 // the system's model, advanced by every job
	ref    [][]float64 // the Go loop's next model: one iteration on from model
	session
	km   *ml.KMeansPC
	iter int
}

func (w *kmeansWorkload) rows() int { return w.n }

func (w *kmeansWorkload) generate(rng *rand.Rand) {
	// At least k points, so the empty-input probe still has a model.
	w.points, _ = ml.GeneratePoints(rng, max(w.n, w.k), w.d, w.k)
	for _, p := range w.points {
		for j := range p {
			p[j] = math.Round(p[j]*256) / 256
		}
	}
}

// goloop computes the reference for the next job, one iteration on from the
// system's current model (which the previous job proved equal to the
// reference chain): assign every point to its closest centroid (with the
// same norm lower bound the library uses to skip distance computations),
// sum per centroid, divide.
func (w *kmeansWorkload) goloop() {
	norms := make([]float64, w.k)
	for i, c := range w.model {
		norms[i] = norm(c)
	}
	type acc struct {
		sum [][]float64
		cnt []int64
	}
	parts := make([]acc, Workers)
	pts := w.points[:w.n]
	shards(len(pts), func(s, lo, hi int) {
		a := acc{sum: make([][]float64, w.k), cnt: make([]int64, w.k)}
		for i := range a.sum {
			a.sum[i] = make([]float64, w.d)
		}
		for _, x := range pts[lo:hi] {
			xn := norm(x)
			best, bestD := -1, math.Inf(1)
			for i, c := range w.model {
				if lb := xn - norms[i]; lb*lb >= bestD {
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
			a.cnt[best]++
			for j, v := range x {
				a.sum[best][j] += v
			}
		}
		parts[s] = a
	})
	next := slices.Clone(w.model)
	for i := 0; i < w.k; i++ {
		var cnt int64
		sum := make([]float64, w.d)
		for _, a := range parts {
			cnt += a.cnt[i]
			for j, v := range a.sum[i] {
				sum[j] += v
			}
		}
		if cnt == 0 {
			continue // a centroid that lost all its points keeps its position
		}
		for j := range sum {
			sum[j] /= float64(cnt)
		}
		next[i] = sum
	}
	w.ref = next
}

func norm(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func (w *kmeansWorkload) open(e *env) error {
	c, err := e.connect(baseConfig())
	if err != nil {
		return err
	}
	w.c = c
	if w.km, err = ml.NewKMeansPC(c, db, w.k, w.d); err != nil {
		return err
	}
	w.iter = 0
	if w.n == 0 {
		// Empty input: Init needs k points, so create the set bare.
		w.model = slices.Clone(w.points[:w.k])
		err = c.CreateSet(db, w.km.Set, "KMPoint")
	} else {
		done := e.tr.span("load")
		e.loadedRows += w.n
		w.model, err = w.km.Init(w.points[:w.n])
		done()
	}
	return err
}

func (w *kmeansWorkload) job(e *env) error {
	done := e.tr.span("execute")
	next, err := w.km.Iterate(w.model)
	done()
	if err != nil {
		return err
	}
	w.iter++
	done = e.tr.span("dropset")
	err = w.c.DropSet(db, fmt.Sprintf("kmeans_model_%d", w.iter))
	done()
	if err != nil {
		return err
	}
	w.model = next
	w.lastCheck = 0
	for i, c := range next {
		if !slices.Equal(c, w.ref[i]) {
			return fmt.Errorf("iteration %d: centroid %d is %v, the Go loop has %v", w.iter, i, c, w.ref[i])
		}
		for _, v := range c {
			w.lastCheck = chain(w.lastCheck, int64(i), int64(math.Float64bits(v)))
		}
	}
	return nil
}

func (w *kmeansWorkload) probeInput() ProbeInput {
	keys := make([]int64, w.n)
	for i := range keys {
		keys[i] = int64(math.Float64bits(w.points[i][0]) >> 12)
	}
	return ProbeInput{Client: w.c, Db: db, Set: w.km.Set, TypeName: "KMPoint", Keys: keys, UserBytes: 8 * int64(w.n*w.d)}
}
