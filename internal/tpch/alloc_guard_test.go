package tpch

import (
	"runtime"
	"testing"

	"repro/internal/race"
	"repro/pc"
)

// TestCustomersPerSupplierAllocsPerCustomer bounds the Go-heap objects the
// whole tpch job — both queries, the result read, the drops — allocates per
// customer. The paper's claim for this workload is that nested objects are
// worked on in the page. Each detour through the Go heap shows here: a Go
// string per key compare cost 70 objects per customer, per iterated map key
// 46, per supplier name read 28 and 9, a Go map per customer 33, top-k slices
// 7. What remains is per batch and per page — 1.0 per customer at this size
// — so the bound sits below the smallest of them.
func TestCustomersPerSupplierAllocsPerCustomer(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const customers = 2000
	client, err := pc.Connect(pc.Config{Workers: 2, Threads: 1, PageSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := RegisterSchema(client.Registry())
	if err := client.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPC(client, "db", "customers", Generate(Params{Customers: customers, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	job := func() {
		if err := CustomersPerSupplierPC(client, s, "db", "customers", "q1"); err != nil {
			t.Fatal(err)
		}
		counts, err := CountCustomersPerSupplierPC(client, s, "db", "q1")
		if err != nil || len(counts) == 0 {
			t.Fatalf("customers per supplier: %d suppliers, %v", len(counts), err)
		}
		if _, err := TopKJaccardPC(client, s, "db", "customers", "q2", 16, []int64{1, 5, 9, 13, 17, 21}); err != nil {
			t.Fatal(err)
		}
		for _, set := range []string{"q1", "q2"} {
			if err := client.DropSet("db", set); err != nil {
				t.Fatal(err)
			}
		}
	}
	job() // warm pools and lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const jobs = 3
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	perCustomer := float64(after.Mallocs-before.Mallocs) / (jobs * customers)
	t.Logf("%.2f Go objects per customer", perCustomer)
	if perCustomer > 6 {
		t.Errorf("the tpch job allocated %.1f Go objects per customer, want at most 6", perCustomer)
	}
}
