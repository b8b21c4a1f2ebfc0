// Package exchange implements the streaming shuffle that connects a
// producing job stage to its consuming stage (paper Appendix D.2/D.3,
// "overlap shuffle with production"): bounded queues of sealed pages with
// backpressure. Producers push each page the moment its sink seals it; the
// transport ships it in flight; consumers start merging immediately —
// production, shipping, and consumption all overlap instead of meeting at a
// stage barrier.
//
// # Lanes and the hard memory bound
//
// Every (producer worker, executor thread, consumer) triple owns a private
// bounded channel — a lane. A page travels the lane of the thread that
// sealed it, so each lane carries one thread's stream in sequence order and
// DefaultCapacity (a constant, not a Config knob) is a hard per-lane bound:
// a consumer never holds more than DefaultCapacity × Threads undelivered
// pages per producer, and a full lane backpressures exactly the producing thread that outran the merge. (The
// previous design multiplexed a producer's threads onto one channel and
// reordered at the receiver, which let pages of threads behind the delivery
// cursor pile up without limit.)
//
// # Determinism
//
// Every page carries a (producer worker, executor thread, sequence) Tag.
// Recv delivers pages to a consumer in strict Tag order — producer-major,
// then thread, then sequence — by draining lanes in that order, so what the
// merge consumes does not depend on arrival order.
//
// # Crash retry (producer side)
//
// A producer that crashes mid-stream is re-forked and re-run from scratch.
// Pipeline execution is deterministic, so the retry re-sends the same pages
// with the same tags; each lane remembers the next sequence it will admit
// and drops the retry's duplicates at the sender, before they are shipped
// or enqueued — so lanes never hold duplicate pages (and the in-flight
// accounting never counts them), and the consumer's merge sees every page
// exactly once.
//
// # Crash replay (consumer side)
//
// Every delivered page is retained until the step ends (Recycle, Discard),
// and Rewind moves a consumer's delivery cursor back to page 0. A consumer
// that crashes rewinds and re-consumes its stream from the start — the
// retained prefix replays first, then delivery continues live — so its
// retention is its whole stream.
//
// # Memory governance (disk spill)
//
// Config.Governors attaches a per-consumer memory Governor: every page the
// exchange holds for a consumer — buffered in a lane or retained for
// replay — is metered against the governor's byte budget, and a page the
// budget refuses is spilled to the governor's SpillStore at enqueue (the
// lane then carries only its slot) or evicted from the retention window
// coldest-first, reloading transparently on delivery and replay. Results
// are bit-for-bit identical with any budget; only page residence changes.
// The resident high-water mark (Governor.MaxResidentBytes) never exceeds
// the budget — the single page in the act of being delivered is the one
// allowed excursion, and it is excluded from the gauge until the next Recv
// settles it.
package exchange

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/object"
)

// Tag identifies a page's deterministic position in a shuffle stream.
type Tag struct {
	// Producer is the producing worker's ID.
	Producer int
	// Thread is the executor thread (within the producer) that sealed the
	// page.
	Thread int
	// Seq numbers the pages one thread sent through one lane, from 0.
	Seq int
}

// ErrProducerStopped is returned by Send and CloseThread when the
// caller's stop channel closed — a sibling executor thread failed and the
// stage is being torn down. Callers translate it into their driver's abort
// sentinel so the root cause wins error reporting.
var ErrProducerStopped = errors.New("exchange: producer stopped by sibling failure")

// ErrCancelled marks an error returned because the exchange was cancelled:
// the caller did not fail, it observed a sibling's failure (which the error
// also wraps, as the cause).
var ErrCancelled = errors.New("exchange: cancelled")

// message is one lane entry: a tagged page — resident in page, or spilled
// to disk under slot when the consumer's memory governor refused it — or
// (size == 0) a marker that the lane's thread finished its stream.
type message struct {
	tag  Tag
	page *object.Page // resident page; nil for close markers and spilled pages
	slot int          // spill slot when the budget moved the page to disk; -1 otherwise
	size int          // occupied page bytes (0 marks a thread-close)
}

// Config sizes an Exchange.
type Config struct {
	// Producers and Consumers count the workers on each side (usually
	// equal: every worker both produces and consumes a shuffle).
	Producers, Consumers int
	// Threads is the executor-thread budget per producer: each producer
	// owns Threads lanes to every consumer, indexed by Tag.Thread. Zero
	// or negative picks 1.
	Threads int
	// capacity bounds each lane's pages in flight; a full lane blocks the
	// producing thread (backpressure). Zero picks DefaultCapacity; only
	// this package's tests set it.
	capacity int
	// Replayable is ignored: every exchange retains delivered pages until
	// the step ends, so a crashed consumer can always Rewind.
	//
	// Deprecated: kept only so callers that still set it compile. ROADMAP
	// item 1(a) deletes it.
	Replayable bool
	// Ship copies a page into the consumer's memory space (the simulated
	// wire). nil passes pages through untouched.
	Ship func(p *object.Page, producer, consumer int) (*object.Page, error)
	// Release receives every page the exchange is done with, so the owner
	// can recycle them: during the step, a page dropped whole by
	// sender-side retry dedup and the original of a page Ship copied (Send
	// releases it once every copy is made); when a successful step ends,
	// every resident retained page (Recycle). A page that travels by
	// reference (Ship nil, or Ship returning its argument) is released
	// only by Recycle — until then the consumer holds it. nil discards
	// them.
	Release func(p *object.Page)
	// InPlace marks a consumer that reads delivered pages in place: its
	// state references them until the step ends (the join build's table,
	// the sort merge's runs), so the governor neither meters nor evicts
	// retained pages — the window holds references, never extra bytes.
	// Lane pages are metered either way, and Recycle releases the
	// retained pages either way.
	InPlace bool
	// Governors, indexed by consumer, attach per-consumer memory
	// governors: pages held for consumer c are metered against
	// Governors[c]'s budget and spilled to its store when refused. A nil
	// slice (or nil entry) leaves that consumer ungoverned — every page
	// stays resident. A consumer fed by several exchanges (the join's two
	// shuffles) shares one governor across them: the budget is per
	// backend.
	Governors []*Governor
}

// DefaultCapacity is the per-lane pages-in-flight bound of every exchange
// outside this package's tests.
const DefaultCapacity = 4

// lane is one (producer thread → consumer) bounded channel plus its
// sender-side bookkeeping. A lane has exactly one sending goroutine at any
// time (the owning executor thread, or its crash-retry successor, which the
// scheduler starts only after the failed run's barrier), so sent/closeSent
// — and the row's Send scratch — need no lock.
type lane struct {
	ch chan message

	sent      int  // next sequence this lane will admit (retry dedup)
	closeSent bool // thread-close marker already enqueued
}

// Exchange is one shuffle: Producers × Threads × Consumers bounded lanes
// plus a per-consumer receiver that walks them in deterministic tag order.
type Exchange struct {
	cfg   Config
	lanes [][][]*lane // [producer][thread][consumer]
	recvs []*receiver
	// planned is Send's per-consumer scratch, one row per (producer,
	// thread) like the lanes it plans for: [producer][thread][consumer].
	planned [][][]*object.Page

	cancelCh   chan struct{}
	cancelOnce sync.Once
	cancelMu   sync.Mutex
	cancelErr  error

	inFlight    atomic.Int64
	maxInFlight atomic.Int64
	maxReorder  atomic.Int64 // max undelivered-page backlog of any consumer
}

// New builds an exchange.
func New(cfg Config) *Exchange {
	if cfg.capacity <= 0 {
		cfg.capacity = DefaultCapacity
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	ex := &Exchange{cfg: cfg, cancelCh: make(chan struct{})}
	ex.lanes = make([][][]*lane, cfg.Producers)
	ex.planned = make([][][]*object.Page, cfg.Producers)
	for p := range ex.lanes {
		ex.lanes[p] = make([][]*lane, cfg.Threads)
		ex.planned[p] = make([][]*object.Page, cfg.Threads)
		for t := range ex.lanes[p] {
			ex.planned[p][t] = make([]*object.Page, cfg.Consumers)
			ex.lanes[p][t] = make([]*lane, cfg.Consumers)
			for c := range ex.lanes[p][t] {
				ex.lanes[p][t][c] = &lane{ch: make(chan message, cfg.capacity)}
			}
		}
	}
	ex.recvs = make([]*receiver, cfg.Consumers)
	for c := range ex.recvs {
		ex.recvs[c] = &receiver{ex: ex, consumer: c, pending: -1}
	}
	return ex
}

// governor returns the consumer's memory governor, nil when ungoverned.
func (ex *Exchange) governor(consumer int) *Governor {
	if consumer < len(ex.cfg.Governors) {
		return ex.cfg.Governors[consumer]
	}
	return nil
}

// Every addresses a Send to every consumer: the pre-aggregation shuffle's
// pattern, where each consumer merges its own hash partition out of every
// page, and the sort's, whose exchange has one consumer.
const Every = -1

// Send ships a tagged page to one consumer, or to every consumer when
// consumer is Every, and enqueues each copy on the sending thread's lane
// to that consumer, blocking while the lane is full. Every addressed lane
// must have admitted the sequence (a crashed producer's deterministic
// retry, skipped for that lane) or expect it next; a gap fails the send
// before anything is shipped. All wire copies are made before any enqueue,
// in the sending row's scratch (so a warm Send allocates nothing), and a
// consumer that merges (and recycles) its copy early cannot corrupt a later
// ship of the original. If no lane takes the original page itself — every
// addressed lane got a copy or skipped the sequence — it is released as
// soon as the copies exist: the caller hands p over and must not read it
// after Send returns. Send returns early when stop closes (sibling thread
// failure) or the exchange is cancelled.
func (ex *Exchange) Send(tag Tag, consumer int, p *object.Page, stop <-chan struct{}) error {
	lo, hi := consumer, consumer+1
	if consumer == Every {
		lo, hi = 0, ex.cfg.Consumers
	}
	lanes := ex.lanes[tag.Producer][tag.Thread][lo:hi]
	for i, ln := range lanes {
		if tag.Seq > ln.sent {
			return fmt.Errorf("exchange: lane (%d, %d, %d) sent seq %d, want %d",
				tag.Producer, tag.Thread, lo+i, tag.Seq, ln.sent)
		}
	}
	planned := ex.planned[tag.Producer][tag.Thread][lo:hi]
	clear(planned)
	originalUsed := false
	for i, ln := range lanes {
		if tag.Seq < ln.sent {
			continue // retry duplicate for this consumer
		}
		q := p
		if ex.cfg.Ship != nil {
			var err error
			if q, err = ex.cfg.Ship(p, tag.Producer, lo+i); err != nil {
				return err
			}
		}
		planned[i] = q
		originalUsed = originalUsed || q == p
	}
	if !originalUsed && ex.cfg.Release != nil {
		ex.cfg.Release(p)
	}
	for i, q := range planned {
		if q == nil {
			continue
		}
		if err := ex.enqueue(lanes[i], tag, lo+i, q, stop); err != nil {
			return err
		}
		lanes[i].sent++
	}
	return nil
}

func (ex *Exchange) enqueue(ln *lane, tag Tag, consumer int, p *object.Page, stop <-chan struct{}) error {
	// Bytes count from ship time: the wire copy already occupies the
	// consumer's memory space while the sender waits out backpressure.
	n := int64(len(p.Bytes()))
	m := message{tag: tag, page: p, slot: -1, size: int(n)}
	if g := ex.governor(consumer); g != nil && !g.TryReserve(n) {
		// Over the consumer's memory budget: the page's bytes go to the
		// spill store and the lane carries only the slot. Backpressure
		// still bounds pages in flight per lane; the refused bytes wait on
		// disk instead of in RAM.
		slot, err := g.spillPage(p)
		if err != nil {
			return err
		}
		m.page, m.slot = nil, slot
	}
	maxGauge(&ex.maxInFlight, ex.inFlight.Add(n))
	select {
	case ln.ch <- m:
	case <-ex.cancelCh:
		ex.inFlight.Add(-n)
		ex.unship(consumer, m)
		return ex.cancelled()
	case <-stop:
		ex.inFlight.Add(-n)
		ex.unship(consumer, m)
		return ErrProducerStopped
	}
	// The page-backlog gauge counts only after the handoff: a blocked
	// sender's page is backpressured at the producer, not buffered at the
	// receiver, and the hard bound speaks about receiver-side backlog.
	maxGauge(&ex.maxReorder, ex.recvs[consumer].backlog.Add(1))
	return nil
}

// unship ends the exchange's governor claim on a message's bytes: the
// reservation is returned, or the spill slot freed. Used when an enqueue
// fails and when an in-place consumer takes delivery of the page.
func (ex *Exchange) unship(consumer int, m message) {
	g := ex.governor(consumer)
	if g == nil {
		return
	}
	if m.page == nil {
		g.Free(m.slot)
	} else {
		g.ReleaseBytes(int64(m.size))
	}
}

func maxGauge(g *atomic.Int64, cur int64) {
	for {
		hwm := g.Load()
		if cur <= hwm || g.CompareAndSwap(hwm, cur) {
			return
		}
	}
}

// CloseThread marks one producer thread's stream complete on every
// consumer. A thread sends it after flushing its final page, so it follows
// all of the thread's pages in each lane; a crash retry that re-closes an
// already-closed lane is a no-op.
func (ex *Exchange) CloseThread(producer, thread int, stop <-chan struct{}) error {
	for c := 0; c < ex.cfg.Consumers; c++ {
		ln := ex.lanes[producer][thread][c]
		if ln.closeSent {
			continue
		}
		m := message{tag: Tag{Producer: producer, Thread: thread, Seq: ln.sent}, slot: -1}
		select {
		case ln.ch <- m:
			ln.closeSent = true
		case <-ex.cancelCh:
			return ex.cancelled()
		case <-stop:
			return ErrProducerStopped
		}
	}
	return nil
}

// CloseProducer closes all of a producer's lanes. Call it exactly once,
// after the producer's run (including any crash retry) succeeded.
func (ex *Exchange) CloseProducer(producer int) {
	for _, row := range ex.lanes[producer] {
		for _, ln := range row {
			close(ln.ch)
		}
	}
}

// Cancel aborts the exchange: blocked senders and receivers return err.
// The first cause wins; later calls are no-ops.
func (ex *Exchange) Cancel(err error) {
	ex.cancelMu.Lock()
	if ex.cancelErr == nil {
		ex.cancelErr = err
	}
	ex.cancelMu.Unlock()
	ex.cancelOnce.Do(func() { close(ex.cancelCh) })
}

func (ex *Exchange) cancelled() error {
	ex.cancelMu.Lock()
	defer ex.cancelMu.Unlock()
	return fmt.Errorf("%w: %w", ErrCancelled, ex.cancelErr)
}

// MaxBytesInFlight reports the shuffle's bytes-in-flight high-water mark:
// bytes enqueued (shipped) but not yet delivered to a merge. It is
// hard-bounded: every lane holds at most DefaultCapacity pages, so a
// consumer's undelivered backlog never exceeds DefaultCapacity × Threads
// pages per producer — backpressure, not buffering, absorbs skew. The gauge counts logical
// (shipped, undelivered) bytes whether they reside in RAM or in a
// governor's spill store — it measures the schedule, not residence;
// Governor.MaxResidentBytes measures memory.
func (ex *Exchange) MaxBytesInFlight() int64 { return ex.maxInFlight.Load() }

// MaxReorderPages reports the largest undelivered-page backlog any single
// consumer reached (pages enqueued on its lanes and not yet delivered),
// hard-bounded by DefaultCapacity × Threads × Producers + 1: the page Recv is
// taking off a lane still counts while a sender refills that lane.
func (ex *Exchange) MaxReorderPages() int64 { return ex.maxReorder.Load() }

// DeliveredPages reports how many pages the exchange has delivered across
// its consumers, each once however often a replay re-read it: the pages
// Recycle releases when none was evicted. Call it after the consumers
// returned and before Discard.
func (ex *Exchange) DeliveredPages() int {
	n := 0
	for _, r := range ex.recvs {
		n += len(r.retained)
	}
	return n
}

// BufferedPages reports one consumer's current undelivered-page backlog.
func (ex *Exchange) BufferedPages(consumer int) int64 {
	return ex.recvs[consumer].backlog.Load()
}

// retainedEntry is one delivered page in a receiver's retention window.
// Unless the consumer reads in place (Config.InPlace), the entry is
// metered by the consumer's governor: reserved entries count against the
// budget; an entry whose bytes were evicted to disk has page nil and lives
// only in slot. Sealed pages are immutable, so a slot stays a valid image
// for the entry's whole retention — an entry reloaded for replay can be
// evicted again without rewriting it.
type retainedEntry struct {
	page     *object.Page // resident page; nil when evicted to the spill store
	slot     int          // spill slot holding the page image; -1 when never spilled
	size     int          // occupied page bytes (the governor's accounting unit)
	reserved bool         // counted in the governor's resident gauge
}

// receiver walks one consumer's lanes in deterministic order: producers
// major, threads within a producer, sequence within a lane. All of a
// receiver's methods (through Recv/Rewind) are called from the single
// consuming goroutine; only backlog is touched by senders.
type receiver struct {
	ex       *Exchange
	consumer int

	producer, thread int // lane cursor
	laneSeq          int // next sequence expected from the current lane
	ended            bool

	backlog atomic.Int64 // pages enqueued for this consumer, undelivered

	// Replay retention: retained holds every delivered page, retained[i]
	// the i-th; pos is the next delivery index Recv hands out (pos <
	// len(retained) while replaying after a Rewind). pending is the
	// delivery index of the page the last Recv handed out when that page
	// still awaits governor accounting (settle), -1 otherwise.
	retained []retainedEntry
	pos      int
	pending  int
}

// settle finishes the governor accounting of the page handed out by the
// previous Recv: calling Recv again asserts the consumer is done reading
// the last delivery, so its entry either joins the resident set — evicting
// colder retained pages to make room — or, when the budget has no room at
// all, goes straight (back) to disk. Until then the page is the one
// in-flight excursion the budget's gauge deliberately excludes.
func (r *receiver) settle() error {
	if r.pending < 0 {
		return nil
	}
	idx := r.pending
	r.pending = -1
	g := r.ex.governor(r.consumer)
	e := &r.retained[idx]
	if g == nil || e.page == nil || e.reserved {
		return nil
	}
	n := int64(e.size)
	if !g.TryReserve(n) {
		if err := r.evictRetained(g, n, idx); err != nil {
			return err
		}
		if !g.TryReserve(n) {
			// No room even after evicting every other retained page
			// (senders may have claimed the freed budget): the settled
			// page itself returns to disk.
			return r.evict(g, e)
		}
	}
	e.reserved = true
	return nil
}

// evictRetained evicts reserved retained pages, coldest (oldest) first,
// until need more bytes would fit the budget or candidates run out. skip
// is the delivery index being settled, never evicted from under itself.
func (r *receiver) evictRetained(g *Governor, need int64, skip int) error {
	for i := range r.retained {
		if g.fits(need) {
			return nil
		}
		if i == skip || !r.retained[i].reserved {
			continue
		}
		if err := r.evict(g, &r.retained[i]); err != nil {
			return err
		}
	}
	return nil
}

// evict moves one retained entry's bytes out of the metered resident set:
// the page image is written to the spill store unless an earlier spill
// already holds it (sealed pages are immutable), the entry's reference is
// dropped, and any reservation returns to the budget. The page memory is
// never recycled here — consumer threads may still be folding it (the
// stream driver pulls ahead of its threads), so it returns through the
// garbage collector once the last fold finishes.
func (r *receiver) evict(g *Governor, e *retainedEntry) error {
	if e.slot < 0 {
		slot, err := g.evictPage(e.page)
		if err != nil {
			return err
		}
		e.slot = slot
	}
	e.page = nil
	if e.reserved {
		g.ReleaseBytes(int64(e.size))
		e.reserved = false
	}
	return nil
}

// next pulls the current lane's next raw message.
func (r *receiver) next() (message, bool, error) {
	ex := r.ex
	ln := ex.lanes[r.producer][r.thread][r.consumer]
	select {
	case m, ok := <-ln.ch:
		return m, ok, nil
	case <-ex.cancelCh:
		return message{}, false, ex.cancelled()
	}
}

// Recv returns the consumer's next page in deterministic (producer, thread,
// sequence) order. ok=false marks the end of the whole shuffle. An error
// means the exchange was cancelled, a lane misbehaved, or a spill store
// failed. Pages the governor spilled reload transparently here.
func (ex *Exchange) Recv(consumer int) (*object.Page, bool, error) {
	r := ex.recvs[consumer]
	if err := r.settle(); err != nil {
		return nil, false, err
	}
	if r.pos < len(r.retained) {
		// Replaying after a Rewind: the retained prefix first.
		e := &r.retained[r.pos]
		if e.page == nil {
			// The entry was evicted under the budget; reload it for the
			// replay (the slot stays live — see retainedEntry).
			p, err := ex.governor(consumer).loadSlot(e.slot)
			if err != nil {
				return nil, false, err
			}
			e.page = p
			r.pending = r.pos
		}
		p := e.page
		r.pos++
		return p, true, nil
	}
	if r.ended {
		return nil, false, nil
	}
	for {
		if r.producer >= ex.cfg.Producers {
			r.ended = true
			return nil, false, nil
		}
		m, ok, err := r.next()
		if err != nil {
			return nil, false, err
		}
		if !ok || m.size == 0 {
			// Lane closed (a producer with no work for this thread) or
			// explicit thread-close marker: advance to the next lane.
			r.thread++
			r.laneSeq = 0
			if r.thread >= ex.cfg.Threads {
				r.thread = 0
				r.producer++
			}
			continue
		}
		if m.tag.Seq != r.laneSeq {
			return nil, false, fmt.Errorf("exchange: lane (producer %d, thread %d) delivered seq %d, want %d",
				r.producer, r.thread, m.tag.Seq, r.laneSeq)
		}
		r.laneSeq++
		ex.inFlight.Add(-int64(m.size))
		r.backlog.Add(-1)
		g := ex.governor(consumer)
		p := m.page
		if p == nil {
			// The budget spilled this page at enqueue; reload it. The
			// loaded copy is the unmetered in-flight page until the next
			// Recv settles it; an in-place consumer's stays unmetered.
			var err error
			if p, err = g.loadSlot(m.slot); err != nil {
				// The message left the lane, so the failure-path sweep can
				// no longer see this slot: free it here.
				g.Free(m.slot)
				return nil, false, err
			}
		}
		if ex.cfg.InPlace {
			// The consumer's state references the delivered page in place
			// (the join build, the sort merge), so the window holds only
			// the reference — unmetered, never evicted.
			ex.unship(consumer, m)
			r.retained = append(r.retained, retainedEntry{page: p, slot: -1, size: m.size})
		} else {
			// The retention window keeps the bytes until the step ends: a
			// page delivered resident carries its lane reservation over;
			// one delivered from spill keeps its slot and settles at the
			// next Recv.
			r.retained = append(r.retained, retainedEntry{
				page: p, slot: m.slot, size: m.size, reserved: m.page != nil,
			})
			if m.page == nil {
				r.pending = r.pos
			}
		}
		r.pos++
		return p, true, nil
	}
}

// Ack is ignored: retention lasts until the step ends (Recycle, Discard),
// so there is nothing to acknowledge.
//
// Deprecated: kept only so callers that still call it compile. ROADMAP
// item 1(a) deletes it.
func (ex *Exchange) Ack(consumer, upto int) error { return nil }

// Recycle hands every resident retained page to Config.Release and drops
// it from the retention window, whether the consumer read it in place or
// not; spilled entries stay for Discard, which frees their slots. Call it
// only when nothing will read a delivered page again — after a step whose
// every role succeeded and returned — and before Discard.
func (ex *Exchange) Recycle() {
	if ex.cfg.Release == nil {
		return
	}
	for _, r := range ex.recvs {
		for i := range r.retained {
			if e := &r.retained[i]; e.page != nil {
				ex.cfg.Release(e.page)
				e.page = nil
			}
		}
	}
}

// Discard releases every page the exchange still holds — undelivered lane
// messages plus the retention windows — ending their governor claims:
// byte reservations return to the budget and spill slots free, so the
// step's pools close with zero live slots. It is the step's last cleanup,
// on success as on failure: call it only after every producer and consumer
// role has returned (a successful step has drained its lanes, but every
// consumer's retention lasts until now). The page references it still
// holds are dropped for the garbage collector, never recycled: after a
// failed step they are the only pages left, and nothing vouches that a
// failed role stopped reading them. Recycle first is how a successful
// step returns its pages to their owner.
func (ex *Exchange) Discard() {
	for p := range ex.lanes {
		for t := range ex.lanes[p] {
			for c, ln := range ex.lanes[p][t] {
				for drain := true; drain; {
					select {
					case m, ok := <-ln.ch:
						if !ok {
							drain = false
							break
						}
						ex.discardMessage(c, m)
					default:
						drain = false
					}
				}
			}
		}
	}
	for c, r := range ex.recvs {
		g := ex.governor(c)
		for i := range r.retained {
			e := &r.retained[i]
			if g != nil {
				if e.reserved {
					g.ReleaseBytes(int64(e.size))
					e.reserved = false
				}
				g.Free(e.slot)
			}
			e.page = nil
		}
		r.retained = nil
		r.pending = -1
	}
}

// discardMessage drops one undelivered message: in-flight accounting
// reverses and the governor claim on its bytes ends. Thread-close markers
// carry nothing.
func (ex *Exchange) discardMessage(consumer int, m message) {
	if m.size == 0 {
		return
	}
	ex.inFlight.Add(-int64(m.size))
	ex.recvs[consumer].backlog.Add(-1)
	ex.unship(consumer, m)
}

// Rewind moves the consumer's delivery cursor back to page 0: subsequent
// Recv calls replay the retained pages in the original order, then continue
// live. The crashed-consumer recovery path: re-run the consumer from a
// fresh state over the replayed stream.
func (ex *Exchange) Rewind(consumer int) {
	ex.recvs[consumer].pos = 0
}
