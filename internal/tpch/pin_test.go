package tpch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"repro/internal/object"
	"repro/pc"
)

// pinTPCH runs both §8.4.2 queries on a fresh cluster and hashes the q1
// (SupplierInfo) and q2 (TopKQueue) output sets' page bytes — occupied
// prefix, length-framed, in worker then page order — and their rows: q1's
// supplier name and customer count per stored row in stored order, and
// q2's ranking.
func pinTPCH(t *testing.T, workers, threads int) (q1, q2, q1Rows, q2Rows string) {
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
	ranking, err := TopKJaccardPC(client, s, "db", "customers", "q2", 8, []int64{1, 5, 9, 13, 17, 21})
	if err != nil {
		t.Fatal(err)
	}
	var frame [8]byte
	word := func(h hash.Hash, v uint64) {
		binary.LittleEndian.PutUint64(frame[:], v)
		h.Write(frame[:])
	}
	rh := sha256.New()
	if err := client.ScanSet("db", "q1", func(r pc.Ref) bool {
		name := object.GetStrField(r, s.infoSupName)
		word(rh, uint64(len(name)))
		rh.Write([]byte(name))
		word(rh, uint64(object.AsMap(object.GetHandleField(r, s.infoCustParts)).Len()))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	q1Rows = hex.EncodeToString(rh.Sum(nil))
	rh = sha256.New()
	for _, e := range ranking {
		word(rh, math.Float64bits(e.Similarity))
		word(rh, uint64(e.CustKey))
	}
	q2Rows = hex.EncodeToString(rh.Sum(nil))

	hashSet := func(set string) string {
		h := sha256.New()
		for _, w := range client.Cluster.Workers {
			pages, err := w.Front.Store.Pages("db", set)
			if err != nil {
				continue // this worker holds none of the set
			}
			for _, p := range pages {
				word(h, uint64(len(p.Bytes())))
				h.Write(p.Bytes())
			}
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	return hashSet("q1"), hashSet("q2"), q1Rows, q2Rows
}

// TestTPCHOutputPinned pins the bytes of both queries' output pages, not
// just the counts and rankings the other tests read: one SHA-256 per
// (query, Workers, Threads), re-recorded when the aggregation merge began
// finalizing straight into the output set (no OUTPUT stage deep-copies its
// pages, a worker whose partition holds no group stores no page, and a
// partition of fewer than engine.BatchSize groups finalizes onto one page
// run at any Threads), beside a hash of the rows, which that change did not
// move. Every object these
// queries write — supplier names, customer-name map keys, part vectors,
// top-k queues — and the order they are written in is in the hash.
//
// On 2026-10-20 the page hashes were re-recorded when objects lost their
// destructors: the page header word [8:12], once a live-object count, is now
// zero on every page, and an object's count word became a referent mark that
// stops at 2 and that nothing lowers, so an outgrown array or an overwritten
// target keeps its mark. With those two words zeroed on both sides, every page matched the
// pages before byte for byte, and the row hashes did not move.
func TestTPCHOutputPinned(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, threads := range []int{1, 2} {
			q1, q2, q1Rows, q2Rows := pinTPCH(t, workers, threads)
			for _, got := range []struct{ query, pages, rows string }{{"q1", q1, q1Rows}, {"q2", q2, q2Rows}} {
				cell := fmt.Sprintf("%s/w=%d/t=%d", got.query, workers, threads)
				if got.pages != pinnedTPCHHashes[cell] {
					t.Errorf("%s: output pages hash %s, pinned %q", cell, got.pages, pinnedTPCHHashes[cell])
				}
				if got.rows != pinnedTPCHRowHashes[cell] {
					t.Errorf("%s: output rows hash %s, pinned %q", cell, got.rows, pinnedTPCHRowHashes[cell])
				}
			}
		}
	}
}

var pinnedTPCHHashes = map[string]string{
	"q1/w=1/t=1": "54f6041e3754a6ad6053d0f656c42340df26f233f87e4e90bec717c0cce86a83",
	"q1/w=1/t=2": "bc27f1d4c9c8f3ea8e034c7a3eaa2551bb0a216cc755d75a4afb747de1d1c94c",
	"q1/w=2/t=1": "3050d3cbf97bbd9c29bb60c52c4d79ee19c3ca35882192f45af521b6792ae94d",
	"q1/w=2/t=2": "b645af7ffa39440199f25cd696d8980be3de4ae9b841eba617e69b68b1360368",
	"q2/w=1/t=1": "172289d1a523f338520d720b899acaebbfc877c2211dec306c1fb7699462921e",
	"q2/w=1/t=2": "172289d1a523f338520d720b899acaebbfc877c2211dec306c1fb7699462921e",
	"q2/w=2/t=1": "172289d1a523f338520d720b899acaebbfc877c2211dec306c1fb7699462921e",
	"q2/w=2/t=2": "172289d1a523f338520d720b899acaebbfc877c2211dec306c1fb7699462921e",
}

// pinnedTPCHRowHashes pins the rows of the same cells: what a reader of the
// output sets sees, whatever pages carry it.
var pinnedTPCHRowHashes = map[string]string{
	"q1/w=1/t=2": "2ce9f1830aad57ed53b8825f209a38deebea210db4ae96662f238660a9ae117a",
	"q1/w=2/t=1": "2ce9f1830aad57ed53b8825f209a38deebea210db4ae96662f238660a9ae117a",
	"q1/w=2/t=2": "677046184439e22fac085975a5c34609b1b6e234014b2d6ea9bec4121d8fc922",
	"q2/w=1/t=1": "66b5f25cd1e949bc5a75d71f2090b47d44ca3d0fbd48e72ddc6e993de5548a6b",
	"q2/w=1/t=2": "66b5f25cd1e949bc5a75d71f2090b47d44ca3d0fbd48e72ddc6e993de5548a6b",
	"q2/w=2/t=1": "66b5f25cd1e949bc5a75d71f2090b47d44ca3d0fbd48e72ddc6e993de5548a6b",
	"q2/w=2/t=2": "66b5f25cd1e949bc5a75d71f2090b47d44ca3d0fbd48e72ddc6e993de5548a6b",
	"q1/w=1/t=1": "b6f918c69477062f1ab14a8d59e6ca32927d4115a36ea4b489ad5edb55b47457",
}
