package tpch

import (
	"bytes"
	"cmp"
	"slices"

	"repro/internal/object"
	"repro/internal/stat"
	"repro/pc"
)

// The two §8.4.2 computations on PC.

// supplierInfos turns one customer's walk into a Vector<Handle<SupplierInfo>>,
// one SupplierInfo per supplier in name order, each mapping the customer's
// name to the partIDs that supplier sold them in arrival order. Grouping is
// a stable sort of the walk by supplier name — no Go map, no Go string:
// names are compared and copied page to page.
func (s *Schema) supplierInfos(a *pc.Allocator, w *CustomerWalk) (pc.Ref, error) {
	items := w.Items
	slices.SortStableFunc(items, func(x, y SupplierPart) int { return bytes.Compare(x.Supplier, y.Supplier) })
	suppliers := 0
	for i := range items {
		if i == 0 || !bytes.Equal(items[i].Supplier, items[i-1].Supplier) {
			suppliers++
		}
	}
	out, err := pc.MakeVector(a, pc.KHandle, suppliers)
	if err != nil {
		return pc.Ref{}, err
	}
	for lo := 0; lo < len(items); {
		hi := lo + 1
		for hi < len(items) && bytes.Equal(items[hi].Supplier, items[lo].Supplier) {
			hi++
		}
		info, err := s.supplierInfo(a, w.Name, items[lo:hi])
		if err != nil {
			return pc.Ref{}, err
		}
		if err := out.PushBackHandle(a, info); err != nil {
			return pc.Ref{}, err
		}
		lo = hi
	}
	return out.Ref, nil
}

// supplierInfo writes one supplier's SupplierInfo for one customer: run is
// the customer's lineitems from that supplier.
func (s *Schema) supplierInfo(a *pc.Allocator, custName pc.Ref, run []SupplierPart) (pc.Ref, error) {
	info, err := a.MakeObject(s.SupplierInfo)
	if err != nil {
		return pc.Ref{}, err
	}
	supName, err := object.MakeStringBytes(a, run[0].Supplier)
	if err != nil {
		return pc.Ref{}, err
	}
	if err := object.SetHandleField(a, info, s.infoSupName, supName); err != nil {
		return pc.Ref{}, err
	}
	m, err := pc.MakeMap(a, pc.KString, pc.KHandle, 4)
	if err != nil {
		return pc.Ref{}, err
	}
	parts, err := pc.MakeVector(a, pc.KInt64, len(run))
	if err != nil {
		return pc.Ref{}, err
	}
	for _, it := range run {
		if err := parts.PushBackI64(a, it.PartID); err != nil {
			return pc.Ref{}, err
		}
	}
	if err := m.Put(a, pc.StringRefValue(custName), pc.HandleValue(parts.Ref)); err != nil {
		return pc.Ref{}, err
	}
	return info, object.SetHandleField(a, info, s.infoCustParts, m.Ref)
}

// CustomersPerSupplierPC computes, for each supplier, the map from customer
// name to the list of partIDs that supplier sold them. Structure follows
// the paper exactly: a CustomerMultiSelection transforms each Customer into
// one SupplierInfo per supplier, and a CustomerSupplierPartGroupBy
// aggregates them by supplier name, merging the per-customer maps.
func CustomersPerSupplierPC(client *pc.Client, s *Schema, db, inSet, outSet string) error {
	msel := &pc.MultiSelection{
		In:      pc.NewScan(db, inSet, "Customer"),
		ArgType: "Customer",
		Projection: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("toSupplierInfos", pc.KHandle,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					w := walkPool.Get().(*CustomerWalk)
					defer walkPool.Put(w)
					s.CustomerParts(args[0].H, w)
					out, err := s.supplierInfos(ctx.Alloc, w)
					return pc.HandleValue(out), err
				}, pc.FromSelf(arg))
		},
	}

	groupBy := &pc.Aggregate{
		In:      msel,
		ArgType: "SupplierInfo",
		Key:     func(arg *pc.Arg) pc.Term { return pc.FromMember(arg, "supName") },
		Val:     func(arg *pc.Arg) pc.Term { return pc.FromSelf(arg) },
		KeyKind: pc.KString,
		ValKind: pc.KHandle,
		Combine: func(a *pc.Allocator, cur pc.Value, exists bool, next pc.Value) (pc.Value, error) {
			if !exists || cur.H.IsNil() {
				return next, nil
			}
			dst := object.AsMap(object.GetHandleField(cur.H, s.infoCustParts))
			src := object.AsMap(object.GetHandleField(next.H, s.infoCustParts))
			var mergeErr error
			src.Iterate(func(k, v pc.Value) bool {
				if prev, ok := dst.Get(k); ok && !prev.H.IsNil() {
					// Same customer from two partial aggregates:
					// append the part lists.
					pv := object.AsVector(prev.H)
					sv := object.AsVector(v.H)
					for i := 0; i < sv.Len(); i++ {
						if err := pv.PushBackI64(a, sv.I64At(i)); err != nil {
							mergeErr = err
							return false
						}
					}
					return true
				}
				if err := dst.Put(a, k, v); err != nil {
					mergeErr = err
					return false
				}
				return true
			})
			if mergeErr != nil {
				return pc.Value{}, mergeErr
			}
			return cur, nil
		},
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			return object.DeepCopy(a, val.H)
		},
	}
	if err := client.CreateSet(db, outSet, "SupplierInfo"); err != nil {
		return err
	}
	_, err := client.ExecuteComputations(pc.NewWrite(db, outSet, groupBy))
	return err
}

// CountCustomersPerSupplierPC is the paper's "final count of the number of
// customers in each Map" forcing evaluation; returns supplier→customer
// count.
func CountCustomersPerSupplierPC(client *pc.Client, s *Schema, db, outSet string) (map[string]int, error) {
	out := map[string]int{}
	err := client.ScanSet(db, outSet, func(r pc.Ref) bool {
		// The count outlives the result page: this is where a supplier's
		// name becomes a Go string.
		name := object.GetStrField(r, s.infoSupName)
		out[name] = object.AsMap(object.GetHandleField(r, s.infoCustParts)).Len()
		return true
	})
	return out, err
}

// TopJaccardEntry is one result row of the top-k query.
type TopJaccardEntry struct {
	Similarity float64
	CustKey    int64
}

// rank orders top-k entries best first: similarity descending, custkey
// ascending — a total order, custkeys being unique.
func rank(x, y TopJaccardEntry) int {
	if c := cmp.Compare(y.Similarity, x.Similarity); c != 0 {
		return c
	}
	return cmp.Compare(x.CustKey, y.CustKey)
}

// A TopKQueue object holds its entries as a float64 vector of (similarity,
// custkey) pairs, best first.

func (s *Schema) topKVector(q pc.Ref) pc.Vector {
	return object.AsVector(object.GetHandleField(q, s.topKEntries))
}

func topKEntry(v pc.Vector, i int) TopJaccardEntry {
	return TopJaccardEntry{Similarity: v.F64At(2 * i), CustKey: int64(v.F64At(2*i + 1))}
}

// writeTopK allocates a TopKQueue holding entries (already in rank order).
func (s *Schema) writeTopK(a *pc.Allocator, k int, entries ...TopJaccardEntry) (pc.Ref, error) {
	obj, err := a.MakeObject(s.TopK)
	if err != nil {
		return pc.Ref{}, err
	}
	object.SetI64(obj, s.topKK, int64(k))
	v, err := pc.MakeVector(a, pc.KFloat64, len(entries)*2)
	if err != nil {
		return pc.Ref{}, err
	}
	for _, e := range entries {
		if err := v.PushBackF64(a, e.Similarity); err != nil {
			return pc.Ref{}, err
		}
		if err := v.PushBackF64(a, float64(e.CustKey)); err != nil {
			return pc.Ref{}, err
		}
	}
	return obj, object.SetHandleField(a, obj, s.topKEntries, v.Ref)
}

// mergeTopK appends to dst the k best entries of the two queues, merging the
// two ranked vectors where they lie. An entry present in both is taken once,
// so merging a queue twice changes nothing: a combine the engine redoes
// after a page fault cannot count a customer twice.
func (s *Schema) mergeTopK(dst []TopJaccardEntry, k int, p, q pc.Ref) []TopJaccardEntry {
	pv, qv := s.topKVector(p), s.topKVector(q)
	pn, qn := pv.Len()/2, qv.Len()/2
	for i, j := 0, 0; len(dst) < k && (i < pn || j < qn); {
		switch {
		case j == qn:
			dst, i = append(dst, topKEntry(pv, i)), i+1
		case i == pn:
			dst, j = append(dst, topKEntry(qv, j)), j+1
		default:
			x, y := topKEntry(pv, i), topKEntry(qv, j)
			switch c := rank(x, y); {
			case c < 0:
				dst, i = append(dst, x), i+1
			case c > 0:
				dst, j = append(dst, y), j+1
			default:
				dst, i, j = append(dst, x), i+1, j+1
			}
		}
	}
	return dst
}

// combineTopK folds queue next into the running queue cur, which lives on
// a's page. Once cur is full (the steady state: every customer after the
// first k) the merged entries overwrite cur's vector in place — no object is
// allocated and no write can fault half-way; until then the longer queue is
// written fresh. The merge runs through a stack buffer.
func (s *Schema) combineTopK(a *pc.Allocator, k int, cur, next pc.Ref) (pc.Ref, error) {
	var buf [32]TopJaccardEntry
	merged := s.mergeTopK(buf[:0], k, cur, next)
	if v := s.topKVector(cur); v.Len() == 2*len(merged) {
		for i, e := range merged {
			v.SetF64(2*i, e.Similarity)
			v.SetF64(2*i+1, float64(e.CustKey))
		}
		return cur, nil
	}
	return s.writeTopK(a, k, merged...)
}

// TopKJaccardPC runs the paper's top-k closest customer part sets
// computation: per customer, dedup the purchased partIDs, compute Jaccard
// similarity against the query list, and keep the k best via a TopJaccard
// aggregation.
func TopKJaccardPC(client *pc.Client, s *Schema, db, inSet, outSet string, k int, query []int64) ([]TopJaccardEntry, error) {
	queryList := stat.Dedup(append([]int64(nil), query...))

	topK := &pc.Aggregate{
		In:      pc.NewScan(db, inSet, "Customer"),
		ArgType: "Customer",
		Key:     func(arg *pc.Arg) pc.Term { return pc.ConstI64(0) },
		Val: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("jaccard", pc.KHandle,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					cust := args[0].H
					w := walkPool.Get().(*CustomerWalk)
					defer walkPool.Put(w)
					s.CustomerParts(cust, w)
					sim := stat.Jaccard(stat.Dedup(w.PartIDs()), queryList)
					r, err := s.writeTopK(ctx.Alloc, k, TopJaccardEntry{Similarity: sim, CustKey: object.GetI64(cust, s.custKey)})
					return pc.HandleValue(r), err
				}, pc.FromSelf(arg))
		},
		KeyKind: pc.KInt64,
		ValKind: pc.KHandle,
		Combine: func(a *pc.Allocator, cur pc.Value, exists bool, next pc.Value) (pc.Value, error) {
			if !exists || cur.H.IsNil() {
				return next, nil
			}
			r, err := s.combineTopK(a, k, cur.H, next.H)
			return pc.HandleValue(r), err
		},
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			return object.DeepCopy(a, val.H)
		},
	}
	if err := client.CreateSet(db, outSet, "TopKQueue"); err != nil {
		return nil, err
	}
	if _, err := client.ExecuteComputations(pc.NewWrite(db, outSet, topK)); err != nil {
		return nil, err
	}
	// One queue per consuming partition: rank their entries together.
	var result []TopJaccardEntry
	err := client.ScanSet(db, outSet, func(r pc.Ref) bool {
		for v, i := s.topKVector(r), 0; i < v.Len()/2; i++ {
			result = append(result, topKEntry(v, i))
		}
		return true
	})
	slices.SortFunc(result, rank)
	if len(result) > k {
		result = result[:k]
	}
	return result, err
}
