package tpch

import (
	"reflect"
	"testing"

	"repro/internal/object"
	"repro/pc"
)

func testParams(n int) Params {
	return Params{Customers: n, OrdersPerC: 2, ItemsPerO: 3, NumParts: 40, NumSuppliers: 6, Seed: 42}
}

func TestGenerateShape(t *testing.T) {
	data := Generate(testParams(50))
	if len(data) != 50 {
		t.Fatalf("customers = %d", len(data))
	}
	totalItems := 0
	for _, c := range data {
		if len(c.Orders) == 0 {
			t.Fatalf("customer %d has no orders", c.CustKey)
		}
		for _, o := range c.Orders {
			if o.CustKey != c.CustKey {
				t.Error("order custkey mismatch")
			}
			totalItems += len(o.LineItems)
			for _, li := range o.LineItems {
				if li.Part.PartID < 0 || li.Part.PartID >= 40 {
					t.Error("partID out of range")
				}
				if li.Supplier.SupKey < 0 || li.Supplier.SupKey >= 6 {
					t.Error("supkey out of range")
				}
			}
		}
	}
	if totalItems == 0 {
		t.Fatal("no lineitems generated")
	}
	// Determinism.
	again := Generate(testParams(50))
	if !reflect.DeepEqual(data[:5], again[:5]) {
		t.Error("generation is not deterministic for a fixed seed")
	}
}

func loadBoth(t testing.TB, n int) (*pc.Client, *Schema, []GCustomer) {
	t.Helper()
	data := Generate(testParams(n))
	client, err := pc.Connect(pc.Config{Workers: 3, PageSize: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	s := RegisterSchema(client.Registry())
	if err := client.CreateDatabase("TPCH_db"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPC(client, "TPCH_db", "tpch_bench_set1", data); err != nil {
		t.Fatal(err)
	}
	return client, s, data
}

func TestPCLoadPreservesNestedGraph(t *testing.T) {
	client, s, data := loadBoth(t, 30)
	count, err := client.CountSet("TPCH_db", "tpch_bench_set1")
	if err != nil {
		t.Fatal(err)
	}
	if count != 30 {
		t.Fatalf("stored customers = %d", count)
	}
	// Spot-check the nested structure through the object model.
	wantParts := map[string]int{}
	for _, c := range data {
		_, all := gCustomerParts(&c)
		wantParts[c.Name] = len(all)
	}
	err = client.ScanSet("TPCH_db", "tpch_bench_set1", func(r pc.Ref) bool {
		var w CustomerWalk
		s.CustomerParts(r, &w)
		if name := object.StringContents(w.Name); len(w.Items) != wantParts[name] {
			t.Errorf("customer %s has %d parts, want %d", name, len(w.Items), wantParts[name])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// referenceCustomersPerSupplier computes query 1 directly on the structs.
func referenceCustomersPerSupplier(data []GCustomer) map[string]int {
	perSup := map[string]map[string]bool{}
	for i := range data {
		bySup, _ := gCustomerParts(&data[i])
		for sup := range bySup {
			if perSup[sup] == nil {
				perSup[sup] = map[string]bool{}
			}
			perSup[sup][data[i].Name] = true
		}
	}
	out := map[string]int{}
	for sup, custs := range perSup {
		out[sup] = len(custs)
	}
	return out
}

func TestCustomersPerSupplierPCMatchesReference(t *testing.T) {
	client, s, data := loadBoth(t, 60)
	if err := CustomersPerSupplierPC(client, s, "TPCH_db", "tpch_bench_set1", "q1_out"); err != nil {
		t.Fatal(err)
	}
	got, err := CountCustomersPerSupplierPC(client, s, "TPCH_db", "q1_out")
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCustomersPerSupplier(data)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PC customers-per-supplier = %v\nwant %v", got, want)
	}
}

func TestCustomersPerSupplierBaselineMatchesPC(t *testing.T) {
	_, _, data := loadBoth(t, 60)
	want := referenceCustomersPerSupplier(data)
	for _, mode := range []Mode{ModeHotStorage, ModeInRAM} {
		bd, err := LoadBaseline(3, mode, data)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bd.CustomersPerSupplierBaseline()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mode %d: baseline = %v, want %v", mode, got, want)
		}
	}
}

func TestTopKJaccardPCMatchesBaseline(t *testing.T) {
	client, s, data := loadBoth(t, 80)
	query := []int64{1, 5, 9, 13, 17, 21, 25, 29, 33, 37}
	const k = 7

	pcRes, err := TopKJaccardPC(client, s, "TPCH_db", "tpch_bench_set1", "q2_out", k, query)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := LoadBaseline(3, ModeInRAM, data)
	if err != nil {
		t.Fatal(err)
	}
	blRes, err := bd.TopKJaccardBaseline(k, query)
	if err != nil {
		t.Fatal(err)
	}
	if len(pcRes) != k || len(blRes) != k {
		t.Fatalf("result sizes %d/%d, want %d", len(pcRes), len(blRes), k)
	}
	if !reflect.DeepEqual(pcRes, blRes) {
		t.Errorf("PC and baseline disagree:\nPC: %v\nBL: %v", pcRes, blRes)
	}
	// Results are sorted by similarity descending.
	for i := 1; i < len(pcRes); i++ {
		if pcRes[i].Similarity > pcRes[i-1].Similarity {
			t.Error("top-k not sorted")
		}
	}
}

func TestBaselinePaysSerializationPCDoesNot(t *testing.T) {
	// The benchmark's central claim at the primitive level: running the
	// same query, the baseline performs gob work proportional to the
	// data; PC ships pages without any encode/decode step.
	_, _, data := loadBoth(t, 40)
	bd, err := LoadBaseline(3, ModeHotStorage, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bd.CustomersPerSupplierBaseline(); err != nil {
		t.Fatal(err)
	}
	if bd.Ctx.Stats.DeserializeOps == 0 || bd.Ctx.Stats.SerializedBytes == 0 {
		t.Error("hot-storage baseline should pay (de)serialization")
	}
}

// TestLargePagesCheckpointsOffMatchReferences pins the configuration that
// once failed with "deep copy of unregistered type code 1005": pcsuite's
// tpch_objects shape (2 workers × 1 thread, 4 MiB pages, the generator's
// default customer size) with the deprecated, ignored CheckpointInterval
// set negative, on enough
// customers that every worker rotates input pages. Both §8.4.2 queries must
// match their references.
func TestLargePagesCheckpointsOffMatchReferences(t *testing.T) {
	const customers = 6000
	data := Generate(Params{Customers: customers, Seed: 1})
	client, err := pc.Connect(pc.Config{Workers: 2, Threads: 1, PageSize: 1 << 22, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := RegisterSchema(client.Registry())
	if err := client.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPC(client, "db", "customers", data); err != nil {
		t.Fatal(err)
	}
	for _, w := range client.Cluster.Workers {
		if pages, err := w.Front.Store.Pages("db", "customers"); err != nil || len(pages) < 2 {
			t.Fatalf("worker %d holds %d input pages (%v): too few customers to rotate pages", w.ID, len(pages), err)
		}
	}
	if err := CustomersPerSupplierPC(client, s, "db", "customers", "q1"); err != nil {
		t.Fatal(err)
	}
	got, err := CountCustomersPerSupplierPC(client, s, "db", "q1")
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceCustomersPerSupplier(data); !reflect.DeepEqual(got, want) {
		t.Errorf("customers-per-supplier = %v\nwant %v", got, want)
	}
	query := []int64{1, 5, 9, 13, 17, 21, 25, 29, 33, 37}
	const k = 16
	pcRes, err := TopKJaccardPC(client, s, "db", "customers", "q2", k, query)
	if err != nil {
		t.Fatal(err)
	}
	bd, err := LoadBaseline(2, ModeInRAM, data)
	if err != nil {
		t.Fatal(err)
	}
	blRes, err := bd.TopKJaccardBaseline(k, query)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pcRes, blRes) {
		t.Errorf("top-%d Jaccard disagrees with the baseline:\nPC: %v\nBL: %v", k, pcRes, blRes)
	}
}
