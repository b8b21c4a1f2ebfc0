package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/pc"
)

// pinTPCH runs both §8.4.2 queries on a fresh cluster and hashes the q1
// (SupplierInfo) and q2 (TopKQueue) output sets' page bytes — occupied
// prefix, length-framed, in worker then page order.
func pinTPCH(t *testing.T, workers, threads int) (q1, q2 string) {
	t.Helper()
	client, err := pc.Connect(pc.Config{Workers: workers, Threads: threads, PageSize: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := RegisterSchema(client.Registry())
	if err := client.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadPC(client, "db", "customers", Generate(testParams(150))); err != nil {
		t.Fatal(err)
	}
	if err := CustomersPerSupplierPC(client, s, "db", "customers", "q1"); err != nil {
		t.Fatal(err)
	}
	if _, err := TopKJaccardPC(client, s, "db", "customers", "q2", 8, []int64{1, 5, 9, 13, 17, 21}); err != nil {
		t.Fatal(err)
	}
	hashSet := func(set string) string {
		h := sha256.New()
		var frame [8]byte
		for _, w := range client.Cluster.Workers {
			pages, err := w.Front.Store.Pages("db", set)
			if err != nil {
				continue // this worker holds none of the set
			}
			for _, p := range pages {
				binary.LittleEndian.PutUint64(frame[:], uint64(len(p.Bytes())))
				h.Write(frame[:])
				h.Write(p.Bytes())
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return hashSet("q1"), hashSet("q2")
}

// TestTPCHOutputPinned pins the bytes of both queries' output pages, not
// just the counts and rankings the other tests read: one SHA-256 per
// (query, Workers, Threads), recorded at the commit before the nested-object
// path stopped materialising strings, Go maps and per-customer slices. Every
// object these queries write — supplier names, customer-name map keys, part
// vectors, top-k queues — and the order they are written in is in the hash.
func TestTPCHOutputPinned(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, threads := range []int{1, 2} {
			q1, q2 := pinTPCH(t, workers, threads)
			for _, got := range []struct{ query, hash string }{{"q1", q1}, {"q2", q2}} {
				cell := fmt.Sprintf("%s/w=%d/t=%d", got.query, workers, threads)
				if got.hash != pinnedTPCHHashes[cell] {
					t.Errorf("%s: output pages hash %s, pinned %q", cell, got.hash, pinnedTPCHHashes[cell])
				}
			}
		}
	}
}

var pinnedTPCHHashes = map[string]string{
	"q1/w=1/t=1": "f0a33585b46265edd1e2f7f06d55434baf871ad40068bb164eee08535cffa189",
	"q1/w=1/t=2": "dac20e07b602345bdffb57e38a783d093d0b680a3a2edf5b0a217b133479bb0a",
	"q1/w=2/t=1": "dac20e07b602345bdffb57e38a783d093d0b680a3a2edf5b0a217b133479bb0a",
	"q1/w=2/t=2": "c2833e7f7f440cf42ab9383c0134a9a4a2c6e943e4250ac19c617f69d098b375",
	"q2/w=1/t=1": "403134429875799e2c97affce86b397da34082674382cc871d3c573f0a742ba9",
	"q2/w=1/t=2": "403134429875799e2c97affce86b397da34082674382cc871d3c573f0a742ba9",
	"q2/w=2/t=1": "f052b07336d122637fa2e2f8155c53dbf0fe68a6e99c573339a2802e9402741b",
	"q2/w=2/t=2": "f052b07336d122637fa2e2f8155c53dbf0fe68a6e99c573339a2802e9402741b",
}
