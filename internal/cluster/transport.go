package cluster

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/object"
)

// Transport is the cluster's process boundary: how a sealed page moves from
// one worker's memory space into another's. The exchange's lane, dedup, and
// rewind protocol runs unchanged above every implementation; only the wire
// differs. Implementations:
//
//   - MemTransport (default): the historical in-process copier — shipping is
//     one byte copy of the page's occupied prefix.
//   - SocketTransport ("unix", "tcp"): page bytes traverse a real socket as
//     wire frames (internal/wire) through a per-worker page server, proving
//     the zero-serialization claim over an actual network boundary.
//
// All implementations account into one shared ShipStats, so gauges cannot
// silently diverge per impl.
type Transport interface {
	// Ship moves a page to a destination registry's memory space. The
	// returned page is owned by the destination.
	Ship(p *object.Page, dst *object.Registry) (*object.Page, error)
	// ShipAll ships a batch of pages (broadcast joins and data loading;
	// shuffle pages travel one at a time through the exchange instead).
	ShipAll(pages []*object.Page, dst *object.Registry) ([]*object.Page, error)
	// Stats returns the transport's accounting block (shared struct across
	// all implementations; safe for concurrent Note* calls).
	Stats() *ShipStats
	// Close releases transport resources: listeners, dialed connections,
	// socket files. Idempotent. MemTransport's is a no-op.
	Close() error
}

// ShipStats is the single accounting block every Transport implementation
// shares — traffic counters plus the exchange/spill gauges that used to be
// ad-hoc methods on the concrete transport struct.
type ShipStats struct {
	mu           sync.Mutex
	BytesShipped int64
	PagesShipped int
	// MaxBytesInFlight is the largest bytes-in-flight high-water mark any
	// shuffle exchange reached (bytes shipped but not yet merged).
	MaxBytesInFlight int64
	// MaxReorderPages is the largest undelivered-page backlog any single
	// consumer's exchange lanes reached, hard-bounded at
	// exchange.DefaultCapacity × Threads × Workers + 1.
	MaxReorderPages int64
	// Checkpoints always reads 0: no consumer takes recovery checkpoints —
	// every one recovers by replaying its retained stream from page 0.
	//
	// Deprecated: kept only so readers that still read it compile. ROADMAP
	// item 1(a) deletes it.
	Checkpoints int64
	// SpilledPages and SpilledBytes total the page images the memory
	// governor (Config.MemoryBudget) moved to spill files across all
	// shuffles — lane pages and retained replay pages alike.
	SpilledPages int64
	// SpilledBytes is SpilledPages' byte volume.
	SpilledBytes int64
	// MaxBufferedBytes is the largest resident governed-byte footprint
	// any single consumer backend reached (lane pages + replay
	// retention). With a budget set it never exceeds
	// Config.MemoryBudget — the single page in the act of being delivered
	// is excluded; zero when governance is off.
	MaxBufferedBytes int64
	// LeakedSpillSlots counts spill slots still live when a step's spill
	// pools closed — always zero unless cleanup has a bug; the chaos
	// campaign and failure-path tests assert on it.
	LeakedSpillSlots int64
	// Reconnects counts socket redials after a dropped connection
	// (fault.ConnDrop or a real network error). Zero for MemTransport.
	Reconnects int64
}

// NoteShip records one shipped page's traffic.
func (s *ShipStats) NoteShip(bytes int64) {
	s.mu.Lock()
	s.BytesShipped += bytes
	s.PagesShipped++
	s.mu.Unlock()
}

// NoteExchange records one finished shuffle's telemetry: the
// bytes-in-flight and reorder-backlog high-water marks.
func (s *ShipStats) NoteExchange(hwm, reorderPages int64) {
	s.mu.Lock()
	if hwm > s.MaxBytesInFlight {
		s.MaxBytesInFlight = hwm
	}
	if reorderPages > s.MaxReorderPages {
		s.MaxReorderPages = reorderPages
	}
	s.mu.Unlock()
}

// NoteSpill records one governed step's memory telemetry: spill traffic
// totals accumulate and the resident high-water mark keeps its maximum.
func (s *ShipStats) NoteSpill(pages, bytes, maxBuffered int64) {
	s.mu.Lock()
	s.SpilledPages += pages
	s.SpilledBytes += bytes
	if maxBuffered > s.MaxBufferedBytes {
		s.MaxBufferedBytes = maxBuffered
	}
	s.mu.Unlock()
}

// NoteLeakedSlots records spill slots found live at pool close — a cleanup
// bug the leak checks turn into a test failure.
func (s *ShipStats) NoteLeakedSlots(n int64) {
	s.mu.Lock()
	s.LeakedSpillSlots += n
	s.mu.Unlock()
}

// NoteReconnect records one socket redial after a dropped connection.
func (s *ShipStats) NoteReconnect() {
	s.mu.Lock()
	s.Reconnects++
	s.mu.Unlock()
}

// Counters returns a consistent snapshot of the shipped-traffic counters.
func (s *ShipStats) Counters() (bytes int64, pages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.BytesShipped, s.PagesShipped
}

// newTransport builds the transport Config.Transport selects. plan reads
// the cluster's live fault schedule — tests arm Cfg.Fault after New, so
// the transport must not capture the plan by value.
func newTransport(cfg Config, plan func() *fault.Plan) (Transport, error) {
	switch cfg.Transport {
	case "", "mem":
		return NewMemTransport(), nil
	case "unix", "tcp":
		return newSocketTransport(cfg.Transport, plan)
	default:
		return nil, fmt.Errorf("cluster: unknown transport %q (want mem, unix, or tcp)", cfg.Transport)
	}
}

// MemTransport simulates the cluster network in-process: shipping a page is
// one byte copy of its occupied prefix (the zero-cost movement principle —
// no encode or decode step exists to charge for). This is the default
// transport and preserves the historical simulation behavior exactly.
type MemTransport struct {
	stats ShipStats
}

// NewMemTransport returns the in-process copier transport.
func NewMemTransport() *MemTransport { return &MemTransport{} }

// Ship moves a page to a destination registry's memory space.
func (t *MemTransport) Ship(p *object.Page, dst *object.Registry) (*object.Page, error) {
	b := make([]byte, len(p.Bytes()))
	copy(b, p.Bytes())
	t.stats.NoteShip(int64(len(b)))
	return object.FromBytes(b, dst)
}

// ShipAll ships a batch of pages.
func (t *MemTransport) ShipAll(pages []*object.Page, dst *object.Registry) ([]*object.Page, error) {
	out := make([]*object.Page, 0, len(pages))
	for _, p := range pages {
		q, err := t.Ship(p, dst)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

// Stats returns the shared accounting block.
func (t *MemTransport) Stats() *ShipStats { return &t.stats }

// Close is a no-op: the in-process transport holds no resources.
func (t *MemTransport) Close() error { return nil }
