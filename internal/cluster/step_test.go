package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

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
	ex := c.newShuffleExchange(true, func(*object.Page) {}, govs)

	boom := errors.New("boom")
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
				if err := ex.Send(exchange.Tag{Producer: 0, Seq: seq}, 1, pages[seq%len(pages)], nil); err != nil {
					siblingErrs[0] = err
					return err
				}
			}
		}},
		{w: c.Workers[1], name: roleConsumer, what: "receives without end", body: func() error {
			defer returned.Add(1)
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
	ex := c.newShuffleExchange(false, nil, nil)
	got := 0
	saves := 3
	roles := []role{
		{w: c.Workers[0], name: roleProducer, what: "two pages", closes: ex, body: func() error {
			for seq, p := range pages[:2] {
				if err := ex.Send(exchange.Tag{Seq: seq}, 0, p, nil); err != nil {
					return err
				}
			}
			return nil
		}},
		{w: c.Workers[0], name: roleConsumer, what: "drain", saves: &saves, body: func() error {
			for {
				if _, ok, err := ex.Recv(0); err != nil || !ok {
					return err
				}
				got++
			}
		}},
	}
	ship, err := c.runStep(roles, nil, ex)
	if err != nil || got != 2 {
		t.Errorf("runStep = %v with %d pages delivered, want nil with 2", err, got)
	}
	if ship.Checkpoints != 3 {
		t.Errorf("ship.Checkpoints = %d, want the consumer's 3 saves", ship.Checkpoints)
	}
}

// TestPositionConsumer drives positionConsumer over a real replayable
// exchange holding a closed six-page stream: each case delivers some pages,
// acknowledges some, positions the consumer at a cut, and checks which page
// the stream continues from and how much of the replay window was released.
func TestPositionConsumer(t *testing.T) {
	c, err := New(Config{Workers: 1, Threads: 1, PageSize: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	pages := intPages(t, c, 6)[:6]
	cases := []struct {
		name             string
		delivered, acked int // before positioning
		cut              int
		wantResumed      bool
		wantNext         int    // index of the page the next Recv yields; 6 = end of stream
		wantReleased     int    // pages no Rewind can reach afterwards
		wantErr          string // non-empty: positioning fails with this text
	}{
		{name: "fresh first attempt", cut: 0, wantNext: 0},
		{name: "fresh retry before any cut", delivered: 3, cut: 0, wantNext: 0},
		{name: "mid-job, cut already acknowledged", delivered: 4, acked: 2, cut: 2, wantNext: 2, wantReleased: 2},
		{name: "mid-job, the ack died with the consumer", delivered: 4, cut: 2, wantNext: 2, wantReleased: 2},
		{name: "mid-job, cut at the delivery cursor", delivered: 4, cut: 4, wantNext: 4, wantReleased: 4},
		{name: "cross-restart", cut: 3, wantResumed: true, wantNext: 3, wantReleased: 3},
		{name: "cross-restart after a crashed fast-forward", delivered: 2, cut: 5, wantResumed: true, wantNext: 5, wantReleased: 5},
		{name: "cross-restart at the stream's end", cut: 6, wantResumed: true, wantNext: 6, wantReleased: 6},
		{name: "cut past the end of the stream", cut: 7, wantErr: "resume cut 7 is past the stream's end (page 6)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := exchange.New(exchange.Config{Producers: 1, Consumers: 1, Capacity: len(pages), Replayable: true})
			for seq, p := range pages {
				if err := ex.Send(exchange.Tag{Seq: seq}, 0, p, nil); err != nil {
					t.Fatal(err)
				}
			}
			ex.CloseProducer(0)
			for i := 0; i < tc.delivered; i++ {
				if _, ok, err := ex.Recv(0); err != nil || !ok {
					t.Fatalf("pre-delivering page %d: ok=%v err=%v", i, ok, err)
				}
			}
			if err := ex.Ack(0, tc.acked); err != nil {
				t.Fatal(err)
			}
			// A cross-restart consumer's exchange is fresh: whatever a crashed
			// fast-forward pulled was never counted as delivered to the merge.
			delivered := tc.delivered
			if tc.wantResumed {
				delivered = 0
			}
			resumed, err := positionConsumer(ex, 0, tc.cut, delivered)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("positionConsumer = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if resumed != tc.wantResumed {
				t.Errorf("resumed = %v, want %v", resumed, tc.wantResumed)
			}
			// The replay window now starts at wantReleased: one page earlier is
			// gone, the boundary itself is still reachable.
			if tc.wantReleased > 0 {
				if err := ex.Rewind(0, tc.wantReleased-1); err == nil {
					t.Errorf("page %d is still replayable, want it released", tc.wantReleased-1)
				}
			}
			if err := ex.Rewind(0, tc.wantReleased); err != nil {
				t.Errorf("rewinding to the window's start: %v", err)
			}
			if err := ex.Rewind(0, tc.wantNext); err != nil {
				t.Fatalf("rewinding back to the positioned cursor: %v", err)
			}
			p, ok, err := ex.Recv(0)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.wantNext == len(pages):
				if ok {
					t.Error("stream continues, want its end")
				}
			case !ok || p != pages[tc.wantNext]:
				t.Errorf("stream continues with the wrong page (ok=%v), want page %d", ok, tc.wantNext)
			}
		})
	}
}
