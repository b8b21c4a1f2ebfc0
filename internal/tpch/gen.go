// Package tpch implements the paper's §8.4 "Big Object-Oriented Data"
// benchmark: the TPC-H database denormalized into deeply nested Customer
// objects (Customer → Orders → Lineitems → Part/Supplier), plus the two
// analytical computations run over it — customers-per-supplier and top-k
// Jaccard — each implemented both on PC (nested PC objects, zero-copy
// pages) and on the baseline engine (boxed structs, gob boundaries).
package tpch

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/object"
	"repro/pc"
)

// Params sizes a synthetic denormalized TPC-H instance (scaled from the
// paper's 2.4M–24M customers; distributions keep the same shape: a few
// orders per customer, a few lineitems per order, parts and suppliers drawn
// uniformly).
type Params struct {
	Customers    int
	OrdersPerC   int
	ItemsPerO    int
	NumParts     int
	NumSuppliers int
	Seed         int64
}

// Fill applies defaults.
func (p *Params) Fill() {
	if p.OrdersPerC <= 0 {
		p.OrdersPerC = 3
	}
	if p.ItemsPerO <= 0 {
		p.ItemsPerO = 4
	}
	if p.NumParts <= 0 {
		p.NumParts = 200
	}
	if p.NumSuppliers <= 0 {
		p.NumSuppliers = 25
	}
}

// Go-struct form (shared source of truth; the PC loader and the baseline
// loader both consume it so both engines see identical data).

// GPart is a part row.
type GPart struct {
	PartID int64
	Name   string
	Mfgr   string
}

// GSupplier is a supplier row.
type GSupplier struct {
	SupKey int64
	Name   string
}

// GLineitem nests its part and supplier (denormalized).
type GLineitem struct {
	OrderKey   int64
	LineNumber int64
	Supplier   GSupplier
	Part       GPart
}

// GOrder nests its lineitems.
type GOrder struct {
	OrderKey  int64
	CustKey   int64
	LineItems []GLineitem
}

// GCustomer nests all of a customer's orders.
type GCustomer struct {
	CustKey int64
	Name    string
	Orders  []GOrder
}

// Generate builds the synthetic denormalized instance.
func Generate(p Params) []GCustomer {
	p.Fill()
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]GCustomer, p.Customers)
	orderKey := int64(0)
	for c := 0; c < p.Customers; c++ {
		cust := GCustomer{CustKey: int64(c), Name: fmt.Sprintf("Customer#%06d", c)}
		nOrders := 1 + rng.Intn(p.OrdersPerC*2-1) // mean ≈ OrdersPerC
		for o := 0; o < nOrders; o++ {
			orderKey++
			ord := GOrder{OrderKey: orderKey, CustKey: cust.CustKey}
			nItems := 1 + rng.Intn(p.ItemsPerO*2-1)
			for l := 0; l < nItems; l++ {
				supID := int64(rng.Intn(p.NumSuppliers))
				partID := int64(rng.Intn(p.NumParts))
				ord.LineItems = append(ord.LineItems, GLineitem{
					OrderKey:   orderKey,
					LineNumber: int64(l),
					Supplier:   GSupplier{SupKey: supID, Name: fmt.Sprintf("Supplier#%04d", supID)},
					Part:       GPart{PartID: partID, Name: fmt.Sprintf("Part#%05d", partID), Mfgr: fmt.Sprintf("Mfgr#%d", partID%5)},
				})
			}
			cust.Orders = append(cust.Orders, ord)
		}
		out[c] = cust
	}
	return out
}

// Schema holds the registered PC types of the denormalized schema.
type Schema struct {
	Part, Supplier, Lineitem, Order, Customer *pc.TypeInfo
	SupplierInfo                              *pc.TypeInfo
	TopK                                      *pc.TypeInfo

	// The members the queries read per lineitem and per customer, resolved
	// once here instead of by name at every access.
	custKey, custName, custOrders *pc.Field
	orderItems                    *pc.Field
	itemSupplier, itemPart        *pc.Field
	supName, partID               *pc.Field
	infoSupName, infoCustParts    *pc.Field
	topKK, topKEntries            *pc.Field
}

// RegisterSchema registers all PC object types (paper §8.4.1's class
// definitions).
func RegisterSchema(reg *object.Registry) *Schema {
	s := &Schema{}
	s.Part = object.NewStruct("Part").
		AddField("partID", pc.KInt64).
		AddField("name", pc.KString).
		AddField("mfgr", pc.KString).
		MustBuild(reg)
	s.Supplier = object.NewStruct("Supplier").
		AddField("supkey", pc.KInt64).
		AddField("name", pc.KString).
		MustBuild(reg)
	s.Lineitem = object.NewStruct("Lineitem").
		AddField("orderKey", pc.KInt64).
		AddField("lineNumber", pc.KInt64).
		AddField("supplier", pc.KHandle).
		AddField("part", pc.KHandle).
		MustBuild(reg)
	s.Order = object.NewStruct("Order").
		AddField("orderkey", pc.KInt64).
		AddField("custkey", pc.KInt64).
		AddField("lineItems", pc.KHandle). // Vector<Handle<Lineitem>>
		MustBuild(reg)
	s.Customer = object.NewStruct("Customer").
		AddField("custkey", pc.KInt64).
		AddField("name", pc.KString).
		AddField("orders", pc.KHandle). // Vector<Handle<Order>>
		MustBuild(reg)
	// Query result types.
	s.SupplierInfo = object.NewStruct("SupplierInfo").
		AddField("supName", pc.KString).
		AddField("custParts", pc.KHandle). // Map<String, Handle<Vector<int64>>>
		MustBuild(reg)
	s.TopK = object.NewStruct("TopKQueue").
		AddField("k", pc.KInt64).
		AddField("entries", pc.KHandle). // Vector<float64>: (sim, custkey)*, best first
		MustBuild(reg)

	s.custKey, s.custName, s.custOrders = s.Customer.Field("custkey"), s.Customer.Field("name"), s.Customer.Field("orders")
	s.orderItems = s.Order.Field("lineItems")
	s.itemSupplier, s.itemPart = s.Lineitem.Field("supplier"), s.Lineitem.Field("part")
	s.supName, s.partID = s.Supplier.Field("name"), s.Part.Field("partID")
	s.infoSupName, s.infoCustParts = s.SupplierInfo.Field("supName"), s.SupplierInfo.Field("custParts")
	s.topKK, s.topKEntries = s.TopK.Field("k"), s.TopK.Field("entries")
	return s
}

// buildCustomer allocates one denormalized customer graph in place.
func (s *Schema) buildCustomer(a *pc.Allocator, g *GCustomer) (pc.Ref, error) {
	cust, err := a.MakeObject(s.Customer)
	if err != nil {
		return pc.Ref{}, err
	}
	object.SetI64(cust, s.Customer.Field("custkey"), g.CustKey)
	if err := object.SetStrField(a, cust, s.Customer.Field("name"), g.Name); err != nil {
		return pc.Ref{}, err
	}
	orders, err := pc.MakeVector(a, pc.KHandle, len(g.Orders))
	if err != nil {
		return pc.Ref{}, err
	}
	for i := range g.Orders {
		go_ := &g.Orders[i]
		ord, err := a.MakeObject(s.Order)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(ord, s.Order.Field("orderkey"), go_.OrderKey)
		object.SetI64(ord, s.Order.Field("custkey"), go_.CustKey)
		items, err := pc.MakeVector(a, pc.KHandle, len(go_.LineItems))
		if err != nil {
			return pc.Ref{}, err
		}
		for j := range go_.LineItems {
			gl := &go_.LineItems[j]
			li, err := a.MakeObject(s.Lineitem)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(li, s.Lineitem.Field("orderKey"), gl.OrderKey)
			object.SetI64(li, s.Lineitem.Field("lineNumber"), gl.LineNumber)
			sup, err := a.MakeObject(s.Supplier)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(sup, s.Supplier.Field("supkey"), gl.Supplier.SupKey)
			if err := object.SetStrField(a, sup, s.Supplier.Field("name"), gl.Supplier.Name); err != nil {
				return pc.Ref{}, err
			}
			if err := object.SetHandleField(a, li, s.Lineitem.Field("supplier"), sup); err != nil {
				return pc.Ref{}, err
			}
			part, err := a.MakeObject(s.Part)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(part, s.Part.Field("partID"), gl.Part.PartID)
			if err := object.SetStrField(a, part, s.Part.Field("name"), gl.Part.Name); err != nil {
				return pc.Ref{}, err
			}
			if err := object.SetStrField(a, part, s.Part.Field("mfgr"), gl.Part.Mfgr); err != nil {
				return pc.Ref{}, err
			}
			if err := object.SetHandleField(a, li, s.Lineitem.Field("part"), part); err != nil {
				return pc.Ref{}, err
			}
			if err := items.PushBackHandle(a, li); err != nil {
				return pc.Ref{}, err
			}
		}
		if err := object.SetHandleField(a, ord, s.Order.Field("lineItems"), items.Ref); err != nil {
			return pc.Ref{}, err
		}
		if err := orders.PushBackHandle(a, ord); err != nil {
			return pc.Ref{}, err
		}
	}
	if err := object.SetHandleField(a, cust, s.Customer.Field("orders"), orders.Ref); err != nil {
		return pc.Ref{}, err
	}
	return cust, nil
}

// LoadPC loads the generated customers into a PC set.
func (s *Schema) LoadPC(client *pc.Client, db, set string, customers []GCustomer) error {
	if err := client.CreateSet(db, set, "Customer"); err != nil {
		return err
	}
	pages, err := client.BuildPages(len(customers), func(a *pc.Allocator, i int) (pc.Ref, error) {
		return s.buildCustomer(a, &customers[i])
	})
	if err != nil {
		return err
	}
	return client.SendData(db, set, pages)
}

// SupplierPart is one lineitem as CustomerParts reports it.
type SupplierPart struct {
	Supplier []byte // the supplier's name, a view of the string object on the customer's page
	PartID   int64
}

// CustomerWalk is the scratch CustomerParts fills. Reused across customers
// it makes a walk allocation-free; what it holds are views, valid while the
// customer's page is.
type CustomerWalk struct {
	Name  pc.Ref         // the customer's name (a string object)
	Items []SupplierPart // one per lineitem, in arrival order

	parts []int64
}

// PartIDs lists every purchased partID in arrival order, duplicates
// included, in scratch the caller may reorder and the next call reuses.
func (w *CustomerWalk) PartIDs() []int64 {
	w.parts = w.parts[:0]
	for _, it := range w.Items {
		w.parts = append(w.parts, it.PartID)
	}
	return w.parts
}

// walkPool lends natives a CustomerWalk for one call: they run concurrently
// on every worker and thread, and the engine gives them no per-thread state.
var walkPool = sync.Pool{New: func() any { return new(CustomerWalk) }}

// CustomerParts walks a PC Customer graph into w (shared by both queries):
// the supplier and part of every lineitem, read where they lie — no name is
// copied off the page and nothing is grouped yet.
func (s *Schema) CustomerParts(cust pc.Ref, w *CustomerWalk) {
	w.Name = object.GetHandleField(cust, s.custName)
	w.Items = w.Items[:0]
	orders := object.AsVector(object.GetHandleField(cust, s.custOrders))
	for i, n := 0, orders.Len(); i < n; i++ {
		items := object.AsVector(object.GetHandleField(orders.HandleAt(i), s.orderItems))
		for j, m := 0, items.Len(); j < m; j++ {
			li := items.HandleAt(j)
			sup := object.GetHandleField(li, s.itemSupplier)
			part := object.GetHandleField(li, s.itemPart)
			w.Items = append(w.Items, SupplierPart{
				Supplier: object.StringBytes(object.GetHandleField(sup, s.supName)),
				PartID:   object.GetI64(part, s.partID),
			})
		}
	}
}
