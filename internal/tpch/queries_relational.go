package tpch

import (
	"repro/internal/object"
	"repro/pc"
)

// Relational-surface queries over the denormalized TPC-H instance: the
// paper's workload extended with the distributed ORDER BY/top-k, DISTINCT,
// and semi/anti join operators. Each query has a PC form here and a
// baseline form in queries_baseline.go so the differential tests can pin
// the engines against each other.

// PurchaseRec is the flat per-lineitem purchase row both engines flatten
// the customer graph into (TPC-H lineitem ⋈ orders ⋈ customer).
type PurchaseRec struct {
	CustKey int64
	PartID  int64
	SupKey  int64
}

// RegisterPurchase registers the flat Purchase type (idempotent per
// registry; call once next to RegisterSchema).
func RegisterPurchase(reg *object.Registry) *pc.TypeInfo {
	return object.NewStruct("Purchase").
		AddField("custkey", pc.KInt64).
		AddField("partID", pc.KInt64).
		AddField("supkey", pc.KInt64).
		MustBuild(reg)
}

func makePurchase(a *pc.Allocator, ti *pc.TypeInfo, r PurchaseRec) (pc.Ref, error) {
	obj, err := a.MakeObject(ti)
	if err != nil {
		return pc.Ref{}, err
	}
	object.SetI64(obj, ti.Field("custkey"), r.CustKey)
	object.SetI64(obj, ti.Field("partID"), r.PartID)
	object.SetI64(obj, ti.Field("supkey"), r.SupKey)
	return obj, nil
}

func readPurchase(ti *pc.TypeInfo, r pc.Ref) PurchaseRec {
	return PurchaseRec{
		CustKey: object.GetI64(r, ti.Field("custkey")),
		PartID:  object.GetI64(r, ti.Field("partID")),
		SupKey:  object.GetI64(r, ti.Field("supkey")),
	}
}

// FlattenPurchasesPC explodes each Customer graph into flat Purchase rows
// (a MultiSelection — the denormalization inverse) and writes them to
// db.outSet. The relational queries below consume this set.
func FlattenPurchasesPC(client *pc.Client, s *Schema, purchase *pc.TypeInfo, db, inSet, outSet string) error {
	msel := &pc.MultiSelection{
		In:      pc.NewScan(db, inSet, "Customer"),
		ArgType: "Customer",
		Projection: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("toPurchases", pc.KHandle,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					cust := args[0].H
					custKey := object.GetI64(cust, s.Customer.Field("custkey"))
					orders := object.AsVector(object.GetHandleField(cust, s.Customer.Field("orders")))
					out, err := pc.MakeVector(ctx.Alloc, pc.KHandle, 8)
					if err != nil {
						return pc.Value{}, err
					}
					for i := 0; i < orders.Len(); i++ {
						items := object.AsVector(object.GetHandleField(orders.HandleAt(i), s.Order.Field("lineItems")))
						for j := 0; j < items.Len(); j++ {
							li := items.HandleAt(j)
							sup := object.GetHandleField(li, s.Lineitem.Field("supplier"))
							part := object.GetHandleField(li, s.Lineitem.Field("part"))
							row, err := makePurchase(ctx.Alloc, purchase, PurchaseRec{
								CustKey: custKey,
								PartID:  object.GetI64(part, s.Part.Field("partID")),
								SupKey:  object.GetI64(sup, s.Supplier.Field("supkey")),
							})
							if err != nil {
								return pc.Value{}, err
							}
							if err := out.PushBackHandle(ctx.Alloc, row); err != nil {
								return pc.Value{}, err
							}
						}
					}
					return pc.HandleValue(out.Ref), nil
				}, pc.FromSelf(arg))
		},
	}
	if err := client.CreateSet(db, outSet, "Purchase"); err != nil {
		return err
	}
	_, err := client.ExecuteComputations(pc.NewWrite(db, outSet, msel))
	return err
}

// TopCustomersByVolumePC is the ORDER BY + LIMIT query: the k customers
// who bought the most lineitems, ordered (volume desc, custkey asc) — a
// total order, so the result sequence is unique. Runs the distributed
// merge network over per-thread sorted runs.
func TopCustomersByVolumePC(client *pc.Client, s *Schema, db, inSet, outSet string, k int) ([]int64, error) {
	volume := func(e *pc.Arg) pc.Term {
		return pc.FromNative("custVolume", pc.KInt64,
			func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
				w := walkPool.Get().(*CustomerWalk)
				defer walkPool.Put(w)
				s.CustomerParts(args[0].H, w)
				return pc.Int64Value(int64(len(w.Items))), nil
			}, pc.FromSelf(e))
	}
	orderBy := &pc.OrderBy{
		In:      pc.NewScan(db, inSet, "Customer"),
		ArgType: "Customer",
		Keys: []pc.SortKey{
			{Term: volume, Kind: pc.KInt64, Desc: true},
			{Term: func(e *pc.Arg) pc.Term { return pc.FromMember(e, "custkey") }, Kind: pc.KInt64},
		},
		Limit: k,
	}
	if err := client.CreateSet(db, outSet, "Customer"); err != nil {
		return nil, err
	}
	if _, err := client.ExecuteComputations(pc.NewWrite(db, outSet, orderBy)); err != nil {
		return nil, err
	}
	var keys []int64
	err := client.ScanSet(db, outSet, func(r pc.Ref) bool {
		keys = append(keys, object.GetI64(r, s.Customer.Field("custkey")))
		return true
	})
	return keys, err
}

// DistinctPartsSoldPC is the DISTINCT query: the set of part IDs that
// appear in any purchase (TPC-H Q16 flavor), deduplicated on the
// swiss-table agg path. Returns the IDs unordered.
func DistinctPartsSoldPC(client *pc.Client, purchase *pc.TypeInfo, db, inSet, outSet string) ([]int64, error) {
	distinct := &pc.Distinct{
		In:      pc.NewScan(db, inSet, "Purchase"),
		ArgType: "Purchase",
		Key:     func(e *pc.Arg) pc.Term { return pc.FromMember(e, "partID") },
		KeyKind: pc.KInt64,
		Make: func(a *pc.Allocator, key pc.Value) (pc.Ref, error) {
			return makePurchase(a, purchase, PurchaseRec{PartID: key.AsInt64()})
		},
	}
	if err := client.CreateSet(db, outSet, "Purchase"); err != nil {
		return nil, err
	}
	if _, err := client.ExecuteComputations(pc.NewWrite(db, outSet, distinct)); err != nil {
		return nil, err
	}
	var ids []int64
	err := client.ScanSet(db, outSet, func(r pc.Ref) bool {
		ids = append(ids, object.GetI64(r, purchase.Field("partID")))
		return true
	})
	return ids, err
}

// LoadPromoParts writes the promoted-part set (Part rows carrying only
// partID) — the right side of the semi/anti join queries.
func LoadPromoParts(client *pc.Client, s *Schema, db, set string, partIDs []int64) error {
	if err := client.CreateSet(db, set, "Part"); err != nil {
		return err
	}
	pages, err := client.BuildPages(len(partIDs), func(a *pc.Allocator, i int) (pc.Ref, error) {
		obj, err := a.MakeObject(s.Part)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(obj, s.Part.Field("partID"), partIDs[i])
		return obj, nil
	})
	if err != nil {
		return err
	}
	return client.SendData(db, set, pages)
}

// PromoPurchasesPC is the semi/anti join query pair: purchases whose part
// is (semi) or is not (anti) in the promoted-part set. The left side
// streams through the recoverable probe with its match bitmap; output rows
// are left rows, each at most once.
func PromoPurchasesPC(client *pc.Client, purchase *pc.TypeInfo, kind pc.JoinKind,
	db, purchaseSet, promoSet, outSet string) ([]PurchaseRec, error) {
	join := &pc.Join{
		In: []pc.Computation{
			pc.NewScan(db, purchaseSet, "Purchase"),
			pc.NewScan(db, promoSet, "Part"),
		},
		ArgTypes: []string{"Purchase", "Part"},
		Kind:     kind,
		Predicate: func(args []*pc.Arg) pc.Term {
			return pc.Eq(pc.FromMember(args[0], "partID"), pc.FromMember(args[1], "partID"))
		},
	}
	if err := client.CreateSet(db, outSet, "Purchase"); err != nil {
		return nil, err
	}
	if _, err := client.ExecuteComputations(pc.NewWrite(db, outSet, join)); err != nil {
		return nil, err
	}
	var rows []PurchaseRec
	err := client.ScanSet(db, outSet, func(r pc.Ref) bool {
		rows = append(rows, readPurchase(purchase, r))
		return true
	})
	return rows, err
}
