// Crash recovery example (paper §2): worker nodes run user code in a
// separate backend process; when a buggy native lambda crashes a backend,
// the front end re-forks it and the scheduler retries the stage. Both
// sides of a streaming shuffle recover: a crashed producer re-runs with
// sender-side duplicate dropping, and a crashed consumer replays the
// stream the exchange retained for it from page 0. Act three squeezes the
// same recovery through a one-page memory budget (Config.MemoryBudget):
// the exchange spills its lanes and replay retention to disk, and the
// crash still recovers with the exact same sums.
//
//	go run ./examples/crashrecovery
package main

import (
	"fmt"
	"log"
	"sync/atomic"

	"repro/internal/object"
	"repro/pc"
)

func main() {
	client, err := pc.Connect(pc.Config{Workers: 3})
	if err != nil {
		log.Fatal(err)
	}
	rec := pc.NewStruct("Rec").
		AddField("x", pc.KInt64).
		MustBuild(client.Registry())
	if err := client.CreateDatabase("db"); err != nil {
		log.Fatal(err)
	}
	if err := client.CreateSet("db", "in", "Rec"); err != nil {
		log.Fatal(err)
	}
	pages, err := client.BuildPages(500, func(a *pc.Allocator, i int) (pc.Ref, error) {
		r, err := a.MakeObject(rec)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(r, rec.Field("x"), int64(i))
		return r, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := client.SendData("db", "in", pages); err != nil {
		log.Fatal(err)
	}

	// The projection panics exactly once — simulating a rare user bug
	// that takes down one worker backend mid-job.
	var crashes int32
	sel := &pc.Selection{
		In:      pc.NewScan("db", "in", "Rec"),
		ArgType: "Rec",
		Projection: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("crashOnce", pc.KHandle,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					if atomic.CompareAndSwapInt32(&crashes, 0, 1) {
						panic("segfault in user code (simulated)")
					}
					return args[0], nil
				}, pc.FromSelf(arg))
		},
	}
	if err := client.CreateSet("db", "out", "Rec"); err != nil {
		log.Fatal(err)
	}
	stats, err := client.ExecuteComputations(pc.NewWrite("db", "out", sel))
	if err != nil {
		log.Fatalf("job failed despite re-fork: %v", err)
	}
	reforks := 0
	for _, w := range client.Cluster.Workers {
		reforks += w.Front.ReForks
	}
	n, _ := client.CountSet("db", "out")
	fmt.Printf("user code crashed a backend once; front end re-forked %d backend(s), "+
		"scheduler retried %d stage share(s), and the job still produced all %d rows\n",
		reforks, stats.Retries, n)

	// Act two: crash the CONSUMING side. The Finalize lambda — which runs
	// inside the aggregation's streaming merge consumer — panics once; the
	// scheduler restores the consumer's last checkpoint, rewinds the
	// exchange, and replays, so the sums still come out exact.
	var finalizeCrashes int32
	agg := &pc.Aggregate{
		In:      pc.NewScan("db", "in", "Rec"),
		ArgType: "Rec",
		Key: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("mod5", pc.KInt64,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					return object.Int64Value(object.GetI64(args[0].H, rec.Field("x")) % 5), nil
				}, pc.FromSelf(arg))
		},
		Val: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("val", pc.KInt64,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					return object.Int64Value(object.GetI64(args[0].H, rec.Field("x"))), nil
				}, pc.FromSelf(arg))
		},
		KeyKind: pc.KInt64,
		ValKind: pc.KInt64,
		Fold:    pc.FoldSum,
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			if atomic.CompareAndSwapInt32(&finalizeCrashes, 0, 1) {
				panic("segfault in user finalize code (simulated)")
			}
			out, err := a.MakeObject(rec)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(out, rec.Field("x"), val.I)
			return out, nil
		},
	}
	if err := client.CreateSet("db", "sums", "Rec"); err != nil {
		log.Fatal(err)
	}
	aggStats, err := client.ExecuteComputations(pc.NewWrite("db", "sums", agg))
	if err != nil {
		log.Fatalf("aggregation failed despite consumer recovery: %v", err)
	}
	groups, _ := client.CountSet("db", "sums")
	fmt.Printf("user code then crashed a consuming merge; the scheduler replayed the "+
		"retained stream from page 0, recovered %d consumer(s), and all %d group sums "+
		"are intact\n", aggStats.ConsumerRecoveries, groups)

	// Act three: the same consumer crash under memory pressure. A
	// one-page MemoryBudget forces the exchange to spill lane pages and
	// replay retention to disk; recovery reloads the evicted stream for
	// its replay, and the sums still come out exact.
	tiny, err := pc.Connect(pc.Config{Workers: 3, Threads: 2, PageSize: 1 << 12,
		MemoryBudget: 1 << 12})
	if err != nil {
		log.Fatal(err)
	}
	tinyRec := pc.NewStruct("Rec").
		AddField("x", pc.KInt64).
		MustBuild(tiny.Registry())
	if err := tiny.CreateDatabase("db"); err != nil {
		log.Fatal(err)
	}
	if err := tiny.CreateSet("db", "in", "Rec"); err != nil {
		log.Fatal(err)
	}
	tinyPages, err := tiny.BuildPages(4000, func(a *pc.Allocator, i int) (pc.Ref, error) {
		r, err := a.MakeObject(tinyRec)
		if err != nil {
			return pc.Ref{}, err
		}
		object.SetI64(r, tinyRec.Field("x"), int64(i))
		return r, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tiny.SendData("db", "in", tinyPages); err != nil {
		log.Fatal(err)
	}
	var spillCrashes int32
	spillAgg := &pc.Aggregate{
		In:      pc.NewScan("db", "in", "Rec"),
		ArgType: "Rec",
		Key: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("mod499", pc.KInt64,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					return object.Int64Value(object.GetI64(args[0].H, tinyRec.Field("x")) % 499), nil
				}, pc.FromSelf(arg))
		},
		Val: func(arg *pc.Arg) pc.Term {
			return pc.FromNative("val", pc.KInt64,
				func(ctx *pc.NativeCtx, args []pc.Value) (pc.Value, error) {
					return object.Int64Value(object.GetI64(args[0].H, tinyRec.Field("x"))), nil
				}, pc.FromSelf(arg))
		},
		KeyKind: pc.KInt64,
		ValKind: pc.KInt64,
		Fold:    pc.FoldSum,
		Finalize: func(a *pc.Allocator, key, val pc.Value) (pc.Ref, error) {
			if atomic.CompareAndSwapInt32(&spillCrashes, 0, 1) {
				panic("segfault in user finalize code under memory pressure (simulated)")
			}
			out, err := a.MakeObject(tinyRec)
			if err != nil {
				return pc.Ref{}, err
			}
			object.SetI64(out, tinyRec.Field("x"), val.I)
			return out, nil
		},
	}
	if err := tiny.CreateSet("db", "sums", "Rec"); err != nil {
		log.Fatal(err)
	}
	spillStats, err := tiny.ExecuteComputations(pc.NewWrite("db", "sums", spillAgg))
	if err != nil {
		log.Fatalf("spilling aggregation failed despite consumer recovery: %v", err)
	}
	tinyGroups, _ := tiny.CountSet("db", "sums")
	var spilled, maxBuffered int64
	for _, s := range spillStats.Ships {
		spilled += s.SpilledPages
		if s.MaxBufferedBytes > maxBuffered {
			maxBuffered = s.MaxBufferedBytes
		}
	}
	fmt.Printf("under a one-page (4 KiB) memory budget the exchange spilled %d page(s) to disk, "+
		"kept at most %d bytes resident, crashed and recovered %d consumer(s) — and all %d "+
		"group sums are still intact\n", spilled, maxBuffered, spillStats.ConsumerRecoveries, tinyGroups)
}
