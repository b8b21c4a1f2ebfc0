package exchange

// The memory governor: Config.MemoryBudget's enforcement point. One
// Governor meters one consumer backend's resident exchange bytes — pages
// buffered in lanes, delivered pages retained for replay, and (through the cluster's checkpoint path) in-memory
// checkpoint snapshots. A reservation that would exceed the budget is
// refused, and the caller spills the page to the governor's SpillStore
// instead, so resident bytes stay hard-bounded while the stream keeps
// flowing: backpressure still caps pages in flight per lane, but the bytes
// of pages past the budget wait on disk, not in RAM.
//
// A join consumer's two exchanges (probe and build side) share one
// Governor — the budget is per backend, not per shuffle.

import (
	"sync/atomic"

	"repro/internal/object"
)

// SpillStore is the disk pool a Governor spills cold pages into —
// storage.SpillPool implements it. Images are stored in the page-file
// format (a page's occupied prefix); slots recycle through Free.
type SpillStore interface {
	// Spill writes one page image and returns its slot.
	Spill(p *object.Page) (int, error)
	// SpillBytes writes a raw page image (checkpoint snapshot bytes).
	SpillBytes(b []byte) (int, error)
	// Load reads a slot back as a page.
	Load(slot int) (*object.Page, error)
	// LoadBytes reads a slot's raw image back.
	LoadBytes(slot int) ([]byte, error)
	// Free returns a slot's file for reuse.
	Free(slot int)
}

// Governor meters one consumer backend's resident exchange bytes against a
// byte budget, spilling refused pages into store. All methods are safe for
// concurrent use — producer threads reserve and spill against a consumer's
// governor while the consumer settles, loads, and acknowledges.
type Governor struct {
	budget  int64
	store   SpillStore
	release func(*object.Page)

	resident     atomic.Int64
	maxResident  atomic.Int64
	spilledPages atomic.Int64
	spilledBytes atomic.Int64
}

// NewGovernor builds a governor enforcing budget bytes of resident
// exchange memory, spilling into store. release receives the in-memory
// page of every image moved to disk so the owner can recycle it (nil
// drops the reference for the garbage collector).
func NewGovernor(budget int64, store SpillStore, release func(*object.Page)) *Governor {
	return &Governor{budget: budget, store: store, release: release}
}

// Budget reports the governor's byte budget.
func (g *Governor) Budget() int64 { return g.budget }

// TryReserve admits n bytes into the resident set if the budget allows,
// reporting whether the reservation was granted.
func (g *Governor) TryReserve(n int64) bool {
	for {
		cur := g.resident.Load()
		if cur+n > g.budget {
			return false
		}
		if g.resident.CompareAndSwap(cur, cur+n) {
			maxGauge(&g.maxResident, cur+n)
			return true
		}
	}
}

// fits reports whether n more bytes would currently fit the budget — a
// read-only pre-check; TryReserve remains the authoritative admission.
func (g *Governor) fits(n int64) bool { return g.resident.Load()+n <= g.budget }

// ReleaseBytes returns n reserved bytes to the budget.
func (g *Governor) ReleaseBytes(n int64) { g.resident.Add(-n) }

// spillPage writes p's image to the store, recycles the in-memory page —
// the enqueue path, where the exchange holds the only reference — and
// returns the slot.
func (g *Governor) spillPage(p *object.Page) (int, error) {
	slot, err := g.evictPage(p)
	if err == nil && g.release != nil {
		g.release(p)
	}
	return slot, err
}

// evictPage writes p's image to the store WITHOUT recycling the page: the
// retention path's spill, where consumer threads may still be folding the
// delivered page (the stream driver pulls a few pages ahead of its
// threads), so the memory returns through the garbage collector once the
// last reference drops.
func (g *Governor) evictPage(p *object.Page) (int, error) {
	n := int64(len(p.Bytes()))
	slot, err := g.store.Spill(p)
	if err != nil {
		return 0, err
	}
	g.spilledPages.Add(1)
	g.spilledBytes.Add(n)
	return slot, nil
}

// loadSlot reads a spilled page back into memory. The slot stays live —
// sealed pages are immutable, so the disk image remains a valid copy if
// the budget forces the page out again.
func (g *Governor) loadSlot(slot int) (*object.Page, error) {
	return g.store.Load(slot)
}

// Free returns a spill slot for reuse; negative slots (the "never
// spilled" sentinel) are ignored.
func (g *Governor) Free(slot int) {
	if slot >= 0 {
		g.store.Free(slot)
	}
}

// SpillSnapshot writes a checkpoint snapshot's page image to the store —
// the cluster's "snapshots go straight to disk when over budget" path —
// and returns its slot.
func (g *Governor) SpillSnapshot(b []byte) (int, error) {
	slot, err := g.store.SpillBytes(b)
	if err != nil {
		return 0, err
	}
	g.spilledPages.Add(1)
	g.spilledBytes.Add(int64(len(b)))
	return slot, nil
}

// LoadSnapshot reads a spilled checkpoint snapshot's bytes back.
func (g *Governor) LoadSnapshot(slot int) ([]byte, error) {
	return g.store.LoadBytes(slot)
}

// ResidentBytes reports the bytes currently reserved against the budget.
func (g *Governor) ResidentBytes() int64 { return g.resident.Load() }

// MaxResidentBytes reports the resident-byte high-water mark — the
// MaxBufferedBytes gauge. It never exceeds the budget: pages refused by
// TryReserve went to disk instead (the single page in the act of being
// delivered to the consumer is deliberately outside the gauge).
func (g *Governor) MaxResidentBytes() int64 { return g.maxResident.Load() }

// SpilledPages reports how many page images the governor moved to disk.
func (g *Governor) SpilledPages() int64 { return g.spilledPages.Load() }

// SpilledBytes reports the byte volume the governor moved to disk.
func (g *Governor) SpilledBytes() int64 { return g.spilledBytes.Load() }
