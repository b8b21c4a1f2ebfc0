package pc_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/object"
	"repro/pc"
)

// TestPaperSection3Quickstart follows the paper's §3 DataPoint walkthrough:
// build objects into an allocation block, send them to the cluster, read
// them back.
func TestPaperSection3Quickstart(t *testing.T) {
	client, err := pc.Connect(pc.Config{Workers: 3, PageSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	dp := pc.NewStruct("DataPoint").
		AddField("data", pc.KHandle).
		MustBuild(client.Registry())

	if err := client.CreateDatabase("Mydb"); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateSet("Mydb", "Myset", "DataPoint"); err != nil {
		t.Fatal(err)
	}
	pages, err := client.BuildPages(100, func(a *pc.Allocator, i int) (pc.Ref, error) {
		storeMe, err := a.MakeObject(dp)
		if err != nil {
			return pc.Ref{}, err
		}
		data, err := pc.MakeVector(a, pc.KFloat64, 0)
		if err != nil {
			return pc.Ref{}, err
		}
		for j := 0; j < 10; j++ {
			if err := data.PushBackF64(a, float64(i*10+j)); err != nil {
				return pc.Ref{}, err
			}
		}
		if err := object.SetHandleField(a, storeMe, dp.Field("data"), data.Ref); err != nil {
			return pc.Ref{}, err
		}
		return storeMe, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendData("Mydb", "Myset", pages); err != nil {
		t.Fatal(err)
	}
	count, err := client.CountSet("Mydb", "Myset")
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	// Nested vectors survive the zero-copy ship.
	sum := 0.0
	_ = client.ScanSet("Mydb", "Myset", func(r pc.Ref) bool {
		v := object.AsVector(object.GetHandleField(r, dp.Field("data")))
		for i := 0; i < v.Len(); i++ {
			sum += v.F64At(i)
		}
		return true
	})
	if want := 999.0 * 1000 / 2; sum != want {
		t.Errorf("sum = %g, want %g", sum, want)
	}
}

// TestAppendixAKMeans implements the paper's Appendix A k-means example on
// the public API: an AggregateComp keyed by the closest centroid, averaging
// member vectors, iterated to convergence.
func TestAppendixAKMeans(t *testing.T) {
	const (
		dims   = 2
		points = 300
		k      = 3
	)
	client, err := pc.Connect(pc.Config{Workers: 4, PageSize: 1 << 17})
	if err != nil {
		t.Fatal(err)
	}
	reg := client.Registry()
	dp := pc.NewStruct("DataPoint").
		AddField("data", pc.KHandle).
		MustBuild(reg)
	centroid := pc.NewStruct("Centroid").
		AddField("centroidId", pc.KInt64).
		AddField("cnt", pc.KInt64).
		AddField("data", pc.KHandle).
		MustBuild(reg)

	_ = client.CreateDatabase("myDB")
	_ = client.CreateSet("myDB", "mySet", "DataPoint")

	// Three well-separated clusters.
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	pages, err := client.BuildPages(points, func(a *pc.Allocator, i int) (pc.Ref, error) {
		p, err := a.MakeObject(dp)
		if err != nil {
			return pc.Ref{}, err
		}
		v, err := pc.MakeVector(a, pc.KFloat64, dims)
		if err != nil {
			return pc.Ref{}, err
		}
		c := centers[i%k]
		jitter := float64(i%7)*0.1 - 0.3
		if err := v.PushBackF64(a, c[0]+jitter); err != nil {
			return pc.Ref{}, err
		}
		if err := v.PushBackF64(a, c[1]-jitter); err != nil {
			return pc.Ref{}, err
		}
		return p, object.SetHandleField(a, p, dp.Field("data"), v.Ref)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendData("myDB", "mySet", pages); err != nil {
		t.Fatal(err)
	}

	model := [][]float64{{1, 1}, {9, 9}, {-9, 9}} // near-truth init
	dataField := dp.Field("data")

	for iter := 0; iter < 5; iter++ {
		centroids := make([][]float64, k)
		for i := range centroids {
			centroids[i] = append([]float64(nil), model[i]...)
		}
		// getKeyProjection: the closest centroid's id (a native
		// lambda, as in the paper's Appendix A).
		getClose := func(x []float64) int64 {
			best, bestD := 0, math.Inf(1)
			for ci, c := range centroids {
				d := 0.0
				for j := range c {
					d += (x[j] - c[j]) * (x[j] - c[j])
				}
				if d < bestD {
					best, bestD = ci, d
				}
			}
			return int64(best)
		}
		agg := &pc.Aggregate{
			In:      pc.NewScan("myDB", "mySet", "DataPoint"),
			ArgType: "DataPoint",
			Key: func(arg *pc.Arg) pc.Term {
				return pc.FromNative("getClose", pc.KInt64,
					func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
						var buf [32]float64 // the point, read off its page into stack scratch
						v := object.AsVector(object.GetHandleField(args[0].H, dataField))
						return pc.Int64Value(getClose(v.F64Span().AppendTo(buf[:0]))), nil
					}, pc.FromSelf(arg))
			},
			// getValueProjection: the paper's fromMe() pattern —
			// convert each DataPoint into an Avg-style accumulator
			// (cnt=1, sum=the point), so Combine is closed over one
			// type for both pre-aggregation and the shuffle merge.
			Val: func(arg *pc.Arg) pc.Term {
				return pc.FromNative("fromMe", pc.KHandle,
					func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
						src := object.AsVector(object.GetHandleField(args[0].H, dataField))
						acc, err := ctx.Alloc.MakeObject(centroid)
						if err != nil {
							return pc.Value{}, err
						}
						object.SetI64(acc, centroid.Field("cnt"), 1)
						sum, err := pc.MakeVector(ctx.Alloc, pc.KFloat64, src.Len())
						if err != nil {
							return pc.Value{}, err
						}
						if err := sum.AppendF64Span(ctx.Alloc, src.F64Span()); err != nil {
							return pc.Value{}, err
						}
						if err := object.SetHandleField(ctx.Alloc, acc, centroid.Field("data"), sum.Ref); err != nil {
							return pc.Value{}, err
						}
						return pc.HandleValue(acc), nil
					}, pc.FromSelf(arg))
			},
			KeyKind: pc.KInt64,
			ValKind: pc.KHandle,
			// Avg + Avg: fold counts and element-wise sums.
			Combine: func(a *pc.Allocator, cur pc.Value, exists bool, next pc.Value) (pc.Value, error) {
				if !exists || cur.H.IsNil() {
					return next, nil
				}
				acc, add := cur.H, next.H
				object.SetI64(acc, centroid.Field("cnt"),
					object.GetI64(acc, centroid.Field("cnt"))+object.GetI64(add, centroid.Field("cnt")))
				sum := object.AsVector(object.GetHandleField(acc, centroid.Field("data")))
				av := object.AsVector(object.GetHandleField(add, centroid.Field("data")))
				for j := 0; j < sum.Len(); j++ {
					sum.SetF64(j, sum.F64At(j)+av.F64At(j))
				}
				return cur, nil
			},
			Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
				out, err := a.MakeObject(centroid)
				if err != nil {
					return pc.Ref{}, err
				}
				object.SetI64(out, centroid.Field("centroidId"), key.I)
				src := val.H
				object.SetI64(out, centroid.Field("cnt"), object.GetI64(src, centroid.Field("cnt")))
				sum := object.AsVector(object.GetHandleField(src, centroid.Field("data")))
				mean, err := pc.MakeVector(a, pc.KFloat64, sum.Len())
				if err != nil {
					return pc.Ref{}, err
				}
				cnt := float64(object.GetI64(src, centroid.Field("cnt")))
				for j := 0; j < sum.Len(); j++ {
					if err := mean.PushBackF64(a, sum.F64At(j)/cnt); err != nil {
						return pc.Ref{}, err
					}
				}
				return out, object.SetHandleField(a, out, centroid.Field("data"), mean.Ref)
			},
		}
		outSet := fmt.Sprintf("myOutSet%d", iter)
		_ = client.CreateSet("myDB", outSet, "Centroid")
		if _, err := client.ExecuteComputations(pc.NewWrite("myDB", outSet, agg)); err != nil {
			t.Fatal(err)
		}
		// Pull the updated model back to the driver.
		err = client.ScanSet("myDB", outSet, func(r pc.Ref) bool {
			id := object.GetI64(r, centroid.Field("centroidId"))
			mean := object.AsVector(object.GetHandleField(r, centroid.Field("data")))
			model[id] = mean.Float64Slice()
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Converged model must sit near the true cluster centers.
	for _, c := range centers {
		best := math.Inf(1)
		for _, m := range model {
			d := math.Hypot(m[0]-c[0], m[1]-c[1])
			if d < best {
				best = d
			}
		}
		if best > 0.5 {
			t.Errorf("no centroid within 0.5 of true center %v (model %v)", c, model)
		}
	}
}

// TestDeclarativeJoinOnPublicAPI exercises Selection + Join through pc.
func TestDeclarativeJoinOnPublicAPI(t *testing.T) {
	client, err := pc.Connect(pc.Config{Workers: 2, PageSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	reg := client.Registry()
	item := pc.NewStruct("Item").
		AddField("id", pc.KInt64).
		AddField("owner", pc.KInt64).
		MustBuild(reg)
	user := pc.NewStruct("User").
		AddField("id", pc.KInt64).
		MustBuild(reg)
	_ = client.CreateDatabase("db")
	_ = client.CreateSet("db", "items", "Item")
	_ = client.CreateSet("db", "users", "User")
	_ = client.CreateSet("db", "owned", "Item")

	itemPages, _ := client.BuildPages(50, func(a *pc.Allocator, i int) (pc.Ref, error) {
		r, err := a.MakeObject(item)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(r, item.Field("id"), int64(i))
		object.SetI64(r, item.Field("owner"), int64(i%10))
		return r, nil
	})
	_ = client.SendData("db", "items", itemPages)
	userPages, _ := client.BuildPages(5, func(a *pc.Allocator, i int) (pc.Ref, error) {
		r, err := a.MakeObject(user)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(r, user.Field("id"), int64(i))
		return r, nil
	})
	_ = client.SendData("db", "users", userPages)

	join := &pc.Join{
		In:       []pc.Computation{pc.NewScan("db", "items", "Item"), pc.NewScan("db", "users", "User")},
		ArgTypes: []string{"Item", "User"},
		Predicate: func(args []*pc.Arg) pc.Term {
			return pc.Eq(pc.FromMember(args[0], "owner"), pc.FromMember(args[1], "id"))
		},
		Projection: func(args []*pc.Arg) pc.Term { return pc.FromSelf(args[0]) },
	}
	if _, err := client.ExecuteComputations(pc.NewWrite("db", "owned", join)); err != nil {
		t.Fatal(err)
	}
	count, _ := client.CountSet("db", "owned")
	// Items with owner 0..4 match: owners 0..9 uniform over 50 items => 25.
	if count != 25 {
		t.Fatalf("joined items = %d, want 25", count)
	}
}
