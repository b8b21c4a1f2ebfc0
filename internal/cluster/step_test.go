package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/object"
)

// intPages builds at least want full pages of RecovRec rows on c's master
// registry.
func intPages(t *testing.T, c *Cluster, want int) []*object.Page {
	t.Helper()
	rec := intRecType(c)
	pages, err := object.BuildPages(c.Catalog.Registry(), 1<<12, 200*want, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err == nil {
			object.SetI64(r, rec.Field("val"), int64(i))
		}
		return r, err
	})
	if err != nil || len(pages) < want {
		t.Fatalf("need %d pages, got %d (%v)", want, len(pages), err)
	}
	return pages
}

// newShuffleExchange is the step's exchange with every worker a consumer,
// as an aggregation's and each of a join's have.
func (c *Cluster) newShuffleExchange(inPlace bool, govs []*exchange.Governor) *exchange.Exchange {
	return c.newExchange(len(c.Workers), inPlace, govs)
}

// TestRunStepFailureCancelsWaitsAndDiscards runs a step on a real exchange
// whose producer and consumer can only ever return by being cancelled — the
// producer sends without end, the consumer receives without end and never
// acknowledges — next to a role that fails once a page sits in the
// consumer's retention. The failure must cancel both siblings, every role
// must have returned by the time runStep does, the step's error is the
// failed role's own (first in list order), not a sibling's cancellation,
// and the exchange holds nothing afterwards: no lane backlog, no governed
// bytes (the retained pages' reservations returned), no live spill slots.
func TestRunStepFailureCancelsWaitsAndDiscards(t *testing.T) {
	c, err := New(Config{Workers: 2, Threads: 1, PageSize: 1 << 12, MemoryBudget: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	pages := intPages(t, c, 3)
	govs, closeGovs := c.stepGovernors()
	ex := c.newShuffleExchange(false, govs)

	boom := errors.New("boom")
	// The consumer starts receiving once the first Send has returned, so
	// that page's enqueue has raised the backlog gauge before any Recv can
	// lower it, and MaxReorderPages reads at least 1 on every schedule.
	sent := make(chan struct{})
	retained := make(chan struct{})
	var returned atomic.Int32
	var siblingErrs [2]error
	roles := []role{
		{w: c.Workers[0], name: rolePipeline, what: "fails", body: func() error {
			defer returned.Add(1)
			<-retained
			return boom
		}},
		{w: c.Workers[0], name: roleProducer, what: "sends without end", closes: ex, body: func() error {
			defer returned.Add(1)
			for seq := 0; ; seq++ {
				err := ex.Send(exchange.Tag{Producer: 0, Seq: seq}, 1, pages[seq%len(pages)], nil)
				if seq == 0 {
					close(sent)
				}
				if err != nil {
					siblingErrs[0] = err
					return err
				}
			}
		}},
		{w: c.Workers[1], name: roleConsumer, what: "receives without end", body: func() error {
			defer returned.Add(1)
			<-sent
			for n := 0; ; n++ {
				if _, ok, err := ex.Recv(1); err != nil || !ok {
					siblingErrs[1] = err
					return fmt.Errorf("consumer stopped after %d pages (ok=%v): %w", n, ok, err)
				}
				if n == 0 {
					close(retained)
				}
			}
		}},
	}
	ship, err := c.runStep(roles, govs, ex)
	if err != boom {
		t.Errorf("runStep error = %v, want the failed role's own error", err)
	}
	if n := returned.Load(); n != 3 {
		t.Errorf("%d of 3 roles had returned when runStep did", n)
	}
	for i, serr := range siblingErrs {
		if !errors.Is(serr, boom) || !strings.Contains(fmt.Sprint(serr), "cancelled") {
			t.Errorf("sibling %d returned %v, want the exchange's cancellation wrapping the failure", i, serr)
		}
	}
	if ship.MaxBytesInFlight == 0 || ship.MaxReorderPages == 0 {
		t.Errorf("step telemetry is empty: %+v", ship)
	}
	for w, g := range govs {
		if n := g.ResidentBytes(); n != 0 {
			t.Errorf("worker %d still meters %d exchange bytes after the failed step", w, n)
		}
	}
	if n := ex.BufferedPages(1); n != 0 {
		t.Errorf("%d pages still buffered for the consumer", n)
	}
	closeGovs()
	if n := c.Transport.Stats().LeakedSpillSlots; n != 0 {
		t.Errorf("%d spill slots leaked", n)
	}
}

// TestRunStepSuccessClosesProducers checks the success path: a producer
// role's lanes close once it returns, so the consumer sees the end of the
// stream, and the step reports no error.
func TestRunStepSuccessClosesProducers(t *testing.T) {
	c, err := New(Config{Workers: 1, Threads: 1, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	pages := intPages(t, c, 2)
	ex := c.newShuffleExchange(false, nil)
	got := 0
	roles := []role{
		{w: c.Workers[0], name: roleProducer, what: "two pages", closes: ex, body: func() error {
			for seq, p := range pages[:2] {
				if err := ex.Send(exchange.Tag{Seq: seq}, 0, p, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{w: c.Workers[0], name: roleConsumer, what: "drain", body: func() error {
			for {
				if _, ok, err := ex.Recv(0); err != nil || !ok {
					return err
				}
				got++
			}
		}},
	}
	if _, err := c.runStep(roles, nil, ex); err != nil || got != 2 {
		t.Errorf("runStep = %v with %d pages delivered, want nil with 2", err, got)
	}
}

// TestPositionConsumer drives a consumer's exchange end over a real
// exchange holding a closed six-page stream: whatever an earlier attempt
// was delivered, the rewound end continues from page 0, through the whole
// stream.
func TestPositionConsumer(t *testing.T) {
	c, err := New(Config{Workers: 1, Threads: 1, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	pages := intPages(t, c, 6)[:6]
	for _, tc := range []struct {
		name      string
		delivered int // before the rewind
	}{
		{name: "fresh first attempt"},
		{name: "fresh retry before any cut", delivered: 3},
		{name: "retry after the whole stream", delivered: 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Two producer threads of three pages each keep both lanes
			// within exchange.DefaultCapacity; Recv delivers thread 0's
			// pages, then thread 1's.
			ex := exchange.New(exchange.Config{Producers: 1, Consumers: 1, Threads: 2})
			for i, p := range pages {
				if err := ex.Send(exchange.Tag{Thread: i / 3, Seq: i % 3}, 0, p, nil); err != nil {
					t.Fatal(err)
				}
			}
			ex.CloseProducer(0)
			end := &exchangeEnd{ex: ex}
			for i := 0; i < tc.delivered; i++ {
				if _, ok, err := end.next(); err != nil || !ok {
					t.Fatalf("pre-delivering page %d: ok=%v err=%v", i, ok, err)
				}
			}
			end.rewind()
			for i := range pages {
				if p, ok, err := end.next(); err != nil || !ok || p != pages[i] {
					t.Fatalf("page %d after the rewind: ok=%v err=%v, want page %d", i, ok, err, i)
				}
			}
			if _, ok, err := end.next(); ok || err != nil {
				t.Errorf("stream continues past its end: ok=%v err=%v", ok, err)
			}
		})
	}
}

// drainPool takes pages from c's page pool until it hands out a fresh one,
// and returns how many recycled pages it held.
func drainPool(c *Cluster) int {
	for n := 0; ; n++ {
		before := c.pool.Reuses()
		c.pool.Get(nil)
		if c.pool.Reuses() == before {
			return n
		}
	}
}

// TestStepEndRecyclesRetainedPages pins what a successful step does with
// the pages its exchanges retained for replay. runStep hands each resident
// retained page to its exchange's Release exactly once, and only when
// every role succeeded. On a 2-worker cluster an aggregation returns two
// pages to the page pool per page shipped to the other worker — the
// delivered page a worker's own producer sealed, and the shipped copy,
// which landed in a pool frame — plus the one merge page each worker's
// finalize returns. A hash-partition join and an ORDER BY send each page
// to one consumer, so they return the original of every page sent across
// workers, released by the exchange once its copy exists, plus every page
// their consumers were delivered, released at step end. A co-partitioned
// join reads stored pages and returns none. The pool keeps every page it
// is given up to the pages it made, so the counts are exact.
func TestStepEndRecyclesRetainedPages(t *testing.T) {
	c, err := New(Config{Workers: 1, Threads: 1, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	pages := intPages(t, c, 3)[:3]
	for _, fail := range []bool{false, true} {
		released := map[*object.Page]int{}
		ex := exchange.New(exchange.Config{Producers: 1, Consumers: 1,
			Release: func(p *object.Page) { released[p]++ }})
		roles := []role{
			{w: c.Workers[0], name: roleProducer, what: "three pages", closes: ex, body: func() error {
				for seq, p := range pages {
					if err := ex.Send(exchange.Tag{Seq: seq}, 0, p, nil); err != nil {
						return err
					}
				}
				return nil
			}},
			{w: c.Workers[0], name: roleConsumer, what: "drain", body: func() error {
				for {
					if _, ok, err := ex.Recv(0); err != nil || !ok {
						if err == nil && fail {
							err = errors.New("boom")
						}
						return err
					}
				}
			}},
		}
		ship, err := c.runStep(roles, nil, ex)
		switch {
		case ship.DeliveredPages != len(pages):
			t.Errorf("fail=%v: the step reports %d delivered pages, want %d", fail, ship.DeliveredPages, len(pages))
		case fail && (err == nil || len(released) != 0):
			t.Errorf("failed step: err %v, released %d pages, want an error and none", err, len(released))
		case !fail && (err != nil || len(released) != len(pages)):
			t.Errorf("successful step: err %v, released %d of %d pages", err, len(released), len(pages))
		}
		for _, n := range released {
			if n != 1 {
				t.Errorf("a page was released %d times", n)
			}
		}
	}

	// supply runs a job on a fresh drained pool and returns how many
	// recycled pages the pool supplied during it and still holds after it.
	supply := func(c *Cluster, job func()) int {
		drainPool(c)
		before := c.pool.Reuses()
		job()
		return c.pool.Reuses() - before + drainPool(c)
	}
	mk := func(label string) (*Cluster, *object.TypeInfo) {
		c, err := New(Config{Workers: 2, Threads: 1, PageSize: 1 << 12})
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 6000, 3000)
		loadIntRowsKeyed(t, c, rec, "db", "left", 600, 18, 0, label)
		loadIntRowsKeyed(t, c, rec, "db", "right", 90, 18, 0, label)
		return c, rec
	}

	c, rec := mk("")
	var stats *ExecStats
	got := supply(c, func() { _, stats = runIntAgg(t, c, rec, nil) })
	shipped := 0
	for _, s := range stats.Ships {
		if s.MaxBytesInFlight > 0 {
			shipped += s.Pages
		}
	}
	if want := 2*shipped + len(c.Workers); shipped < 16 || got != want {
		t.Errorf("aggregation: the pool supplied %d recycled pages, want %d: twice the %d pages shipped (>= 16) and %d merge pages", got, want, shipped, len(c.Workers))
	}

	// sentAndDelivered sums a job's pages sent across workers and pages
	// its consumers were delivered.
	sentAndDelivered := func(stats *ExecStats) (sent, delivered int) {
		for _, s := range stats.Ships {
			sent += s.Pages
			delivered += s.DeliveredPages
		}
		return sent, delivered
	}
	join := func(c *Cluster, rec *object.TypeInfo) int {
		key := joinKeyOn(rec)
		var matches atomic.Int64
		if stats, err = c.HashPartitionJoinKind(core.JoinInner, "db", "left", "db", "right", key, key, joinEqOn(rec),
			func(int, object.Ref, object.Ref) error { matches.Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		return int(matches.Load())
	}
	c, rec = mk("")
	got = supply(c, func() { join(c, rec) })
	// A worker's own pages reach its consumer by reference, so a job
	// delivers more pages than it sends across workers.
	if sent, delivered := sentAndDelivered(stats); sent == 0 || delivered <= sent || got != sent+delivered {
		t.Errorf("join: the pool supplied %d recycled pages, want the %d sent across workers (> 0) plus the %d delivered (> sent)", got, sent, delivered)
	}
	c, rec = mk("")
	got = supply(c, func() {
		if err := c.CreateSet("db", "sorted", rec.Name); err != nil {
			t.Fatal(err)
		}
		sort := &core.OrderBy{In: core.NewScan("db", "rows", rec.Name), ArgType: rec.Name, Keys: intSortKeys()}
		if stats, err = c.Execute(core.NewWrite("db", "sorted", sort)); err != nil {
			t.Fatal(err)
		}
	})
	if sent, delivered := sentAndDelivered(stats); sent == 0 || delivered <= sent || got != sent+delivered {
		t.Errorf("order by: the pool supplied %d recycled pages, want the %d sent across workers (> 0) plus the %d delivered (> sent)", got, sent, delivered)
	}

	// Co-partitioned sets join where they are stored: no exchange, so no
	// page returns to the pool, and both sets read the same afterwards.
	c, rec = mk("grp")
	scan := func(set string) []string {
		var rows []string
		if err := c.ScanSet("db", set, func(r object.Ref) bool {
			rows = append(rows, fmt.Sprintf("%d=%d", object.GetI64(r, rec.Field("grp")), object.GetI64(r, rec.Field("val"))))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	left, right := scan("left"), scan("right")
	matches := 0
	if got = supply(c, func() { matches = join(c, rec) }); got != 0 || matches == 0 {
		t.Errorf("co-partitioned join: the pool supplied %d recycled pages over %d matches, want none over some", got, matches)
	}
	if !slices.Equal(scan("left"), left) || !slices.Equal(scan("right"), right) {
		t.Error("co-partitioned join: a stored set reads differently after the join")
	}
}
