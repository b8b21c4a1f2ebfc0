package ml

import (
	"fmt"
	"math"

	"repro/internal/baseline"
	"repro/internal/object"
	"repro/internal/stat"
	"repro/pc"
)

// Gaussian mixture model EM (paper §8.5.1): one aggregation per iteration
// accumulates soft-assignment statistics; the model update happens on the
// driver and is broadcast into the next iteration. The PC implementation
// uses the log-space trick for the responsibilities; the baseline uses
// linear-space thresholding (the mllib behaviour the paper notes).

// Mixture is the GMM model.
type Mixture struct {
	Weights []float64
	Gs      []stat.Gaussian
}

// InitMixture seeds k diagonal Gaussians from the first points.
func InitMixture(points [][]float64, k int) *Mixture {
	d := len(points[0])
	m := &Mixture{Weights: make([]float64, k), Gs: make([]stat.Gaussian, k)}
	for j := 0; j < k; j++ {
		m.Weights[j] = 1 / float64(k)
		mean := append([]float64(nil), points[j%len(points)]...)
		vr := make([]float64, d)
		for i := range vr {
			vr[i] = 1
		}
		m.Gs[j] = stat.Gaussian{Mean: mean, Var: vr}
	}
	return m
}

// logResponsibilities computes r_j(x) in log space.
func (m *Mixture) logResponsibilities(x []float64) []float64 {
	lr := make([]float64, len(m.Gs))
	for j := range m.Gs {
		lr[j] = math.Log(m.Weights[j]) + m.Gs[j].LogPDF(x)
	}
	z := stat.LogSumExp(lr)
	for j := range lr {
		lr[j] -= z
	}
	return lr
}

// gmmStats accumulates per-component sufficient statistics.
type gmmStats struct {
	resp float64
	rx   []float64
	rx2  []float64
}

// update recomputes the model from accumulated statistics.
func (m *Mixture) update(statsByComp []gmmStats, n int) {
	for j := range m.Gs {
		st := statsByComp[j]
		if st.resp < 1e-9 {
			continue // empty component keeps its parameters
		}
		m.Weights[j] = st.resp / float64(n)
		for i := range m.Gs[j].Mean {
			mean := st.rx[i] / st.resp
			m.Gs[j].Mean[i] = mean
			v := st.rx2[i]/st.resp - mean*mean
			if v < 1e-6 {
				v = 1e-6
			}
			m.Gs[j].Var[i] = v
		}
	}
}

// GMMPC runs EM on a PC cluster.
type GMMPC struct {
	Client *pc.Client
	Db     string
	Set    string
	K, D   int
	N      int

	point *pc.TypeInfo
	stats *pc.TypeInfo
	iter  int
}

// NewGMMPC registers the schema.
func NewGMMPC(client *pc.Client, db string, k, d int) (*GMMPC, error) {
	g := &GMMPC{Client: client, Db: db, Set: "gmm_points", K: k, D: d}
	g.point = pc.NewStruct("GMMPoint").
		AddField("data", pc.KHandle).
		MustBuild(client.Registry())
	// GMMStats is the single accumulator (the paper's "single
	// AggregateComp object" holding the whole model update): resp[k],
	// then the k×d rx and rx2 blocks, all in one float vector.
	g.stats = pc.NewStruct("GMMStats").
		AddField("data", pc.KHandle). // Vector<f64> of length k + 2*k*d
		MustBuild(client.Registry())
	if err := client.CreateDatabase(db); err != nil {
		return nil, err
	}
	return g, nil
}

// Load stores the points.
func (g *GMMPC) Load(points [][]float64) error {
	g.N = len(points)
	if err := g.Client.CreateSet(g.Db, g.Set, "GMMPoint"); err != nil {
		return err
	}
	pages, err := g.Client.BuildPages(len(points), func(a *pc.Allocator, i int) (pc.Ref, error) {
		p, err := a.MakeObject(g.point)
		if err != nil {
			return pc.Ref{}, err
		}
		v, err := pc.MakeVector(a, pc.KFloat64, len(points[i]))
		if err != nil {
			return pc.Ref{}, err
		}
		if err := v.AppendFloat64s(a, points[i]); err != nil {
			return pc.Ref{}, err
		}
		return p, object.SetHandleField(a, p, g.point.Field("data"), v.Ref)
	})
	if err != nil {
		return err
	}
	return g.Client.SendData(g.Db, g.Set, pages)
}

// Iterate performs one EM step, returning the updated model. The whole
// E-step + M-step accumulation is one AggregateComp whose accumulator is a
// single GMMStats object (resp[k] ++ rx[k*d] ++ rx2[k*d]): Combine
// dispatches on the incoming handle's type code — a raw point vector is
// soft-assigned (log-space trick) and folded in; two partial stats objects
// merge element-wise.
func (g *GMMPC) Iterate(model *Mixture) (*Mixture, error) {
	k, d := g.K, g.D
	statsLen := k + 2*k*d
	fData := g.stats.Field("data")

	mkStats := func(a *pc.Allocator) (pc.Ref, object.Vector, error) {
		st, err := a.MakeObject(g.stats)
		if err != nil {
			return pc.Ref{}, object.Vector{}, err
		}
		v, err := pc.MakeVector(a, pc.KFloat64, statsLen)
		if err != nil {
			return pc.Ref{}, object.Vector{}, err
		}
		if err := v.AppendFloat64s(a, make([]float64, statsLen)); err != nil {
			return pc.Ref{}, object.Vector{}, err
		}
		if err := object.SetHandleField(a, st, fData, v.Ref); err != nil {
			return pc.Ref{}, object.Vector{}, err
		}
		return st, v, nil
	}
	foldPoint := func(v object.F64Span, point object.Vector) {
		var buf [pointStackDims]float64
		x := point.F64Span().AppendTo(buf[:0])
		lr := model.logResponsibilities(x)
		for j := 0; j < k; j++ {
			r := math.Exp(lr[j])
			v.Add(j, r)
			base := k + j*d
			base2 := k + k*d + j*d
			for i := 0; i < d; i++ {
				v.Add(base+i, r*x[i])
				v.Add(base2+i, r*x[i]*x[i])
			}
		}
	}

	agg := &pc.Aggregate{
		In:      pc.NewScan(g.Db, g.Set, "GMMPoint"),
		ArgType: "GMMPoint",
		Key:     func(arg *pc.Arg) pc.Term { return pc.ConstI64(0) },
		Val:     func(arg *pc.Arg) pc.Term { return pc.FromMember(arg, "data") },
		KeyKind: pc.KInt64,
		ValKind: pc.KHandle,
		Combine: func(a *pc.Allocator, cur pc.Value, exists bool, next pc.Value) (pc.Value, error) {
			if !exists || cur.H.IsNil() {
				if next.H.TypeCode() == object.TCVector {
					st, v, err := mkStats(a)
					if err != nil {
						return pc.Value{}, err
					}
					foldPoint(v.F64Span(), object.AsVector(next.H))
					return pc.HandleValue(st), nil
				}
				return next, nil
			}
			acc := object.AsVector(object.GetHandleField(cur.H, fData)).F64Span()
			if next.H.TypeCode() == object.TCVector {
				foldPoint(acc, object.AsVector(next.H))
				return cur, nil
			}
			add := object.AsVector(object.GetHandleField(next.H, fData)).F64Span()
			for i := 0; i < statsLen; i++ {
				acc.Add(i, add.At(i))
			}
			return cur, nil
		},
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			return object.DeepCopy(a, val.H)
		},
	}
	g.iter++
	outSet := fmt.Sprintf("gmm_stats_%d", g.iter)
	if err := g.Client.CreateSet(g.Db, outSet, "GMMStats"); err != nil {
		return nil, err
	}
	if _, err := g.Client.ExecuteComputations(pc.NewWrite(g.Db, outSet, agg)); err != nil {
		return nil, err
	}

	// Gather the (usually single) stats object and update the model on
	// the driver, as the paper does: "the result of the aggregation is
	// sent back to the main program where the actual update happens".
	statsByComp := make([]gmmStats, k)
	for j := range statsByComp {
		statsByComp[j] = gmmStats{rx: make([]float64, d), rx2: make([]float64, d)}
	}
	err := g.Client.ScanSet(g.Db, outSet, func(r pc.Ref) bool {
		v := object.AsVector(object.GetHandleField(r, fData))
		for j := 0; j < k; j++ {
			statsByComp[j].resp += v.F64At(j)
			base := k + j*d
			base2 := k + k*d + j*d
			for i := 0; i < d; i++ {
				statsByComp[j].rx[i] += v.F64At(base + i)
				statsByComp[j].rx2[i] += v.F64At(base2 + i)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	next := cloneMixture(model)
	next.update(statsByComp, g.N)
	return next, nil
}

func cloneMixture(m *Mixture) *Mixture {
	out := &Mixture{Weights: append([]float64(nil), m.Weights...), Gs: make([]stat.Gaussian, len(m.Gs))}
	for j := range m.Gs {
		out.Gs[j] = stat.Gaussian{
			Mean: append([]float64(nil), m.Gs[j].Mean...),
			Var:  append([]float64(nil), m.Gs[j].Var...),
		}
	}
	return out
}

// Baseline GMM.

// GMMPointRec is the baseline point record.
type GMMPointRec struct{ X []float64 }

// GMMStatsRec is the baseline accumulator.
type GMMStatsRec struct {
	Comp int64
	Resp float64
	Rx   []float64
	Rx2  []float64
}

func init() {
	baseline.Register(GMMPointRec{})
	baseline.Register(GMMStatsRec{})
}

// GMMBaseline runs EM on the baseline engine.
type GMMBaseline struct {
	Ctx  *baseline.Context
	K, D int
	N    int
	data *baseline.Dataset
}

// NewGMMBaseline creates the job.
func NewGMMBaseline(executors, k, d int) *GMMBaseline {
	return &GMMBaseline{Ctx: baseline.NewContext(executors), K: k, D: d}
}

// Load stores the points (persisted, as the tuned mllib run would).
func (g *GMMBaseline) Load(points [][]float64) error {
	g.N = len(points)
	recs := make([]baseline.Record, len(points))
	for i := range points {
		recs[i] = GMMPointRec{X: points[i]}
	}
	if err := g.Ctx.Store("gmm", g.Ctx.Parallelize(recs)); err != nil {
		return err
	}
	ds, err := g.Ctx.Read("gmm")
	if err != nil {
		return err
	}
	g.data = ds.Persist()
	return nil
}

// Iterate performs one EM step using linear-space responsibilities with
// thresholding (the mllib behaviour the paper contrasts with PC's log-space
// trick).
func (g *GMMBaseline) Iterate(model *Mixture) (*Mixture, error) {
	ds, err := g.data.Reuse()
	if err != nil {
		return nil, err
	}
	contribs := ds.FlatMap(func(r baseline.Record) []baseline.Record {
		x := r.(GMMPointRec).X
		lr := model.logResponsibilities(x)
		out := make([]baseline.Record, 0, len(lr))
		for j := range lr {
			resp := math.Exp(lr[j])
			if resp < 1e-12 {
				continue // thresholding
			}
			rx := make([]float64, len(x))
			rx2 := make([]float64, len(x))
			for i := range x {
				rx[i] = resp * x[i]
				rx2[i] = resp * x[i] * x[i]
			}
			out = append(out, GMMStatsRec{Comp: int64(j), Resp: resp, Rx: rx, Rx2: rx2})
		}
		return out
	})
	red, err := contribs.ReduceByKey(
		func(r baseline.Record) interface{} { return r.(GMMStatsRec).Comp },
		func(a, b baseline.Record) baseline.Record {
			l, r := a.(GMMStatsRec), b.(GMMStatsRec)
			l.Resp += r.Resp
			for i := range l.Rx {
				l.Rx[i] += r.Rx[i]
				l.Rx2[i] += r.Rx2[i]
			}
			return l
		})
	if err != nil {
		return nil, err
	}
	statsByComp := make([]gmmStats, g.K)
	for _, r := range red.Collect() {
		st := r.(GMMStatsRec)
		statsByComp[st.Comp] = gmmStats{resp: st.Resp, rx: st.Rx, rx2: st.Rx2}
	}
	next := cloneMixture(model)
	next.update(statsByComp, g.N)
	return next, nil
}
