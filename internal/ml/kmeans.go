package ml

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/object"
	"repro/pc"
)

// k-means (paper §8.5.1): developed to closely match the baseline
// implementation; both use the norm lower-bound trick to skip distance
// computations. One iteration is an AggregateComp keyed by the closest
// centroid, averaging point vectors (Appendix A's GetNewCentroids).

// KMeansPC runs k-means on a PC cluster.
type KMeansPC struct {
	Client *pc.Client
	Db     string
	Set    string
	K, D   int

	point    *pc.TypeInfo
	centroid *pc.TypeInfo
	iter     int
}

// NewKMeansPC registers the point/centroid schema.
func NewKMeansPC(client *pc.Client, db string, k, d int) (*KMeansPC, error) {
	km := &KMeansPC{Client: client, Db: db, Set: "kmeans_points", K: k, D: d}
	km.point = pc.NewStruct("KMPoint").
		AddField("data", pc.KHandle).
		MustBuild(client.Registry())
	km.centroid = pc.NewStruct("KMCentroid").
		AddField("centroidId", pc.KInt64).
		AddField("cnt", pc.KInt64).
		AddField("data", pc.KHandle).
		MustBuild(client.Registry())
	if err := client.CreateDatabase(db); err != nil {
		return nil, err
	}
	return km, nil
}

// Init loads the points and selects the initial model (the first k points),
// covering Table 6's "initialization latency" measurement.
func (km *KMeansPC) Init(points [][]float64) ([][]float64, error) {
	if err := km.Client.CreateSet(km.Db, km.Set, "KMPoint"); err != nil {
		return nil, err
	}
	pages, err := km.Client.BuildPages(len(points), func(a *pc.Allocator, i int) (pc.Ref, error) {
		p, err := a.MakeObject(km.point)
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
		return p, object.SetHandleField(a, p, km.point.Field("data"), v.Ref)
	})
	if err != nil {
		return nil, err
	}
	if err := km.Client.SendData(km.Db, km.Set, pages); err != nil {
		return nil, err
	}
	// Initial centroids: scan out the first k stored points.
	model := make([][]float64, 0, km.K)
	err = km.Client.ScanSet(km.Db, km.Set, func(r pc.Ref) bool {
		v := object.AsVector(object.GetHandleField(r, km.point.Field("data")))
		model = append(model, v.Float64Slice())
		return len(model) < km.K
	})
	if err != nil {
		return nil, err
	}
	if len(model) < km.K {
		return nil, fmt.Errorf("ml: need at least k=%d points", km.K)
	}
	return model, nil
}

// Iterate performs one k-means step, returning the updated centroids. The
// current model is broadcast into the computation as captured state, as in
// the paper's GetNewCentroids member.
func (km *KMeansPC) Iterate(model [][]float64) ([][]float64, error) {
	nt := newNormTrick(model)
	dataField := km.point.Field("data")
	cnt := km.centroid.Field("cnt")
	cdata := km.centroid.Field("data")
	cid := km.centroid.Field("centroidId")

	agg := &pc.Aggregate{
		In:      pc.NewScan(km.Db, km.Set, "KMPoint"),
		ArgType: "KMPoint",
		Key: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("getClose", pc.KInt64,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					// The point is read off its page into stack scratch:
					// no Go slice per point.
					var buf [pointStackDims]float64
					v := object.AsVector(object.GetHandleField(args[0].H, dataField))
					best, _ := nt.closest(v.F64Span().AppendTo(buf[:0]))
					return pc.Int64Value(int64(best)), nil
				}, pc.FromSelf(arg))
		},
		// The value is the point's data vector itself; no per-point
		// accumulator is ever materialized. Combine dispatches on the
		// incoming handle's type code — a raw Vector folds into the
		// accumulator, and two accumulators (partial aggregates from
		// different pages/workers) merge — the PC object model's
		// dynamic dispatch doing the paper's Avg arithmetic.
		Val:     func(arg *pc.Arg) pc.Term { return pc.FromMember(arg, "data") },
		KeyKind: pc.KInt64,
		ValKind: pc.KHandle,
		Combine: func(a *pc.Allocator, cur pc.Value, exists bool, next pc.Value) (pc.Value, error) {
			mkAcc := func(src object.Vector, n int64) (pc.Value, error) {
				acc, err := a.MakeObject(km.centroid)
				if err != nil {
					return pc.Value{}, err
				}
				object.SetI64(acc, cnt, n)
				sum, err := pc.MakeVector(a, pc.KFloat64, src.Len())
				if err != nil {
					return pc.Value{}, err
				}
				if err := sum.AppendF64Span(a, src.F64Span()); err != nil {
					return pc.Value{}, err
				}
				if err := object.SetHandleField(a, acc, cdata, sum.Ref); err != nil {
					return pc.Value{}, err
				}
				return pc.HandleValue(acc), nil
			}
			if !exists || cur.H.IsNil() {
				if next.H.TypeCode() == object.TCVector {
					return mkAcc(object.AsVector(next.H), 1)
				}
				return next, nil
			}
			if next.H.TypeCode() == object.TCVector {
				// Fold one point into the accumulator in place.
				object.SetI64(cur.H, cnt, object.GetI64(cur.H, cnt)+1)
				sum := object.AsVector(object.GetHandleField(cur.H, cdata)).F64Span()
				add := object.AsVector(next.H).F64Span()
				for j, n := 0, sum.Len(); j < n; j++ {
					sum.Add(j, add.At(j))
				}
				return cur, nil
			}
			// Merge two partial accumulators.
			object.SetI64(cur.H, cnt, object.GetI64(cur.H, cnt)+object.GetI64(next.H, cnt))
			sum := object.AsVector(object.GetHandleField(cur.H, cdata)).F64Span()
			add := object.AsVector(object.GetHandleField(next.H, cdata)).F64Span()
			for j, n := 0, sum.Len(); j < n; j++ {
				sum.Add(j, add.At(j))
			}
			return cur, nil
		},
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			out, err := a.MakeObject(km.centroid)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(out, cid, key.I)
			n := object.GetI64(val.H, cnt)
			object.SetI64(out, cnt, n)
			sum := object.AsVector(object.GetHandleField(val.H, cdata))
			mean, err := pc.MakeVector(a, pc.KFloat64, sum.Len())
			if err != nil {
				return pc.Ref{}, err
			}
			for j := 0; j < sum.Len(); j++ {
				if err := mean.PushBackF64(a, sum.F64At(j)/float64(n)); err != nil {
					return pc.Ref{}, err
				}
			}
			return out, object.SetHandleField(a, out, cdata, mean.Ref)
		},
	}
	km.iter++
	outSet := fmt.Sprintf("kmeans_model_%d", km.iter)
	if err := km.Client.CreateSet(km.Db, outSet, "KMCentroid"); err != nil {
		return nil, err
	}
	if _, err := km.Client.ExecuteComputations(pc.NewWrite(km.Db, outSet, agg)); err != nil {
		return nil, err
	}
	next := make([][]float64, len(model))
	copy(next, model) // centroids that lost all points keep their position
	err := km.Client.ScanSet(km.Db, outSet, func(r pc.Ref) bool {
		id := object.GetI64(r, cid)
		next[id] = object.AsVector(object.GetHandleField(r, cdata)).Float64Slice()
		return true
	})
	if err != nil {
		return nil, err
	}
	return next, nil
}

// Baseline k-means.

// KMPointRec is the baseline record.
type KMPointRec struct{ X []float64 }

// KMAccRec is the baseline aggregation accumulator.
type KMAccRec struct {
	ID  int64
	Cnt int64
	Sum []float64
}

func init() {
	baseline.Register(KMPointRec{})
	baseline.Register(KMAccRec{})
}

// KMeansBaseline runs k-means on the baseline engine.
type KMeansBaseline struct {
	Ctx  *baseline.Context
	K, D int
	data *baseline.Dataset
}

// NewKMeansBaseline creates a baseline k-means job.
func NewKMeansBaseline(executors, k, d int) *KMeansBaseline {
	return &KMeansBaseline{Ctx: baseline.NewContext(executors), K: k, D: d}
}

// Init stores and reads back the points (paying the storage round trip, as
// Spark reading its object files does) and picks the initial model.
func (km *KMeansBaseline) Init(points [][]float64) ([][]float64, error) {
	recs := make([]baseline.Record, len(points))
	for i := range points {
		recs[i] = KMPointRec{X: points[i]}
	}
	if err := km.Ctx.Store("kmeans", km.Ctx.Parallelize(recs)); err != nil {
		return nil, err
	}
	ds, err := km.Ctx.Read("kmeans")
	if err != nil {
		return nil, err
	}
	km.data = ds.Persist()
	model := make([][]float64, km.K)
	for i := 0; i < km.K; i++ {
		model[i] = append([]float64(nil), points[i]...)
	}
	return model, nil
}

// Iterate performs one step.
func (km *KMeansBaseline) Iterate(model [][]float64) ([][]float64, error) {
	nt := newNormTrick(model)
	ds, err := km.data.Reuse()
	if err != nil {
		return nil, err
	}
	assigned := ds.Map(func(r baseline.Record) baseline.Record {
		x := r.(KMPointRec).X
		best, _ := nt.closest(x)
		return KMAccRec{ID: int64(best), Cnt: 1, Sum: append([]float64(nil), x...)}
	})
	red, err := assigned.ReduceByKey(
		func(r baseline.Record) interface{} { return r.(KMAccRec).ID },
		func(a, b baseline.Record) baseline.Record {
			l, r := a.(KMAccRec), b.(KMAccRec)
			for j := range l.Sum {
				l.Sum[j] += r.Sum[j]
			}
			l.Cnt += r.Cnt
			return l
		})
	if err != nil {
		return nil, err
	}
	next := make([][]float64, len(model))
	copy(next, model)
	for _, r := range red.Collect() {
		acc := r.(KMAccRec)
		mean := make([]float64, len(acc.Sum))
		for j := range mean {
			mean[j] = acc.Sum[j] / float64(acc.Cnt)
		}
		next[acc.ID] = mean
	}
	return next, nil
}
