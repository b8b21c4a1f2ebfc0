package exchange

import (
	"reflect"
	"testing"

	"repro/internal/object"
)

// FuzzExchangeSend drives Send's two addresses through a copying Ship with
// crash retries: 1–3 producers of 1–2 threads each stream to 1–3 consumers,
// every thread either per consumer (the join's repartition) or to Every (the
// aggregation's and the sort's), and a thread's first run may stop after a
// prefix of its stream — with or without its close marker — before the
// retry re-sends the whole stream. Each consumer must receive every
// (producer, thread, seq) addressed to it exactly once, in tag order, and
// Release must see each original exactly once when no lane took it by
// reference — whether Ship copied it or every lane dropped it as a
// duplicate — and never otherwise.
func FuzzExchangeSend(f *testing.F) {
	f.Add([]byte{2, 1, 2, 0, 0, 5, 3, 1, 9, 0, 1, 2, 0})
	f.Add([]byte{1, 0, 0, 1, 1, 4, 4})
	f.Add([]byte{0, 1, 1, 1, 0, 7, 2, 1, 0, 0, 1, 2, 2, 1, 6, 6, 0, 1})
	reg, ti := testRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int { // the next input byte mod n; 0 once the input is spent
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		np, threads, nc := 1+next(3), 1+next(2), 1+next(3)
		selfByRef := next(2) == 1 // a producer's own consumer gets the page itself, as in the cluster
		released := map[*object.Page]int{}
		ex := New(Config{Producers: np, Consumers: nc, Threads: threads, capacity: 16,
			Ship: func(p *object.Page, producer, consumer int) (*object.Page, error) {
				if selfByRef && producer == consumer {
					return p, nil
				}
				return object.FromBytes(append([]byte(nil), p.Bytes()...), reg)
			},
			Release: func(p *object.Page) { released[p]++ }})
		want := make([][]int64, nc)
		wantReleased := map[*object.Page]int{}
		for prod := 0; prod < np; prod++ {
			for th := 0; th < threads; th++ {
				// The thread's stream: n sends, each to one consumer or to
				// Every, with per-lane sequences.
				every := next(2) == 1
				n := next(9)
				to := make([]int, n)
				for i := range to {
					to[i] = Every
					if !every {
						to[i] = next(nc)
					}
				}
				seqs := make([]int, nc) // lane sequences, the consumer's view
				tags := make([]Tag, n)
				for i, c := range to {
					lane := c
					if c == Every {
						lane = 0
					}
					tags[i] = Tag{prod, th, seqs[lane]}
					if c == Every {
						for k := range nc {
							want[k] = append(want[k], id(prod, th, seqs[lane]))
						}
						for k := range seqs {
							seqs[k]++
						}
					} else {
						want[c] = append(want[c], id(prod, th, seqs[c]))
						seqs[c]++
					}
				}
				// admitted mirrors each lane's admitted sequences across the
				// thread's runs.
				admitted := make([]int, nc)
				run := func(sends int, close bool) {
					for i := range sends {
						tag, c := tags[i], to[i]
						p := testPage(t, reg, ti, id(tag.Producer, tag.Thread, tag.Seq))
						lo, hi := c, c+1
						if c == Every {
							lo, hi = 0, nc
						}
						byRef := false
						for k := lo; k < hi; k++ {
							if tag.Seq == admitted[k] {
								admitted[k]++
								byRef = byRef || selfByRef && k == prod
							}
						}
						if !byRef {
							wantReleased[p] = 1
						}
						if err := ex.Send(tag, c, p, nil); err != nil {
							t.Fatalf("Send(%v, to %d) = %v", tag, c, err)
						}
					}
					if close {
						if err := ex.CloseThread(prod, th, nil); err != nil {
							t.Fatal(err)
						}
					}
				}
				// A crashed first run sends a prefix (and maybe its close
				// marker); the retry re-sends everything.
				if crash := next(n + 3); crash > 0 {
					run(min(crash-1, n), crash-1 > n)
				}
				run(n, true)
			}
			ex.CloseProducer(prod)
		}
		for c := range nc {
			var got []int64
			for {
				p, ok, err := ex.Recv(c)
				if err != nil {
					t.Fatalf("consumer %d: %v", c, err)
				}
				if !ok {
					break
				}
				if released[p] != 0 {
					t.Fatalf("consumer %d received a released page (id %d)", c, pageID(p, ti))
				}
				got = append(got, pageID(p, ti))
			}
			if !reflect.DeepEqual(got, want[c]) {
				t.Fatalf("consumer %d received %v, want %v", c, got, want[c])
			}
		}
		if !reflect.DeepEqual(released, wantReleased) {
			t.Fatalf("released %d pages, want %d (or some not exactly once)", len(released), len(wantReleased))
		}
	})
}
