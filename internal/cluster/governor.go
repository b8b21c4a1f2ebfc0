package cluster

// Per-step memory governance (Config.MemoryBudget): each streaming step —
// an exchange-linked stage pair or a hash-partition join — builds one
// exchange.Governor per worker backend, backed by a storage.SpillPool of
// reusable page files. The budget is per backend: a join consumer's two
// exchanges and the aggregation consumer's checkpoint snapshots all meter
// against the same worker's governor. The pools live exactly as long as
// the step: closing them removes every spill file, so a finished job —
// crashed, recovered, or clean — leaves nothing behind on disk.

import (
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/storage"
)

// faultSpillStore wraps a worker's spill pool with the step's fault plan:
// SpillEnqueue panics and SpillWrite/SpillRead injected I/O errors fire
// before the pool is touched, so an injected failure never half-allocates
// a slot — the governor's accounting and the pool's live-slot count stay
// consistent through the failure.
type faultSpillStore struct {
	pool   *storage.SpillPool
	plan   *fault.Plan
	worker int
}

func (f *faultSpillStore) Spill(p *object.Page) (int, error) {
	f.plan.Hit(fault.SpillEnqueue, f.worker)
	if err := f.plan.ErrAt(fault.SpillWrite, f.worker); err != nil {
		return 0, err
	}
	return f.pool.Spill(p)
}

func (f *faultSpillStore) SpillBytes(b []byte) (int, error) {
	f.plan.Hit(fault.SpillEnqueue, f.worker)
	if err := f.plan.ErrAt(fault.SpillWrite, f.worker); err != nil {
		return 0, err
	}
	return f.pool.SpillBytes(b)
}

func (f *faultSpillStore) Load(slot int) (*object.Page, error) {
	if err := f.plan.ErrAt(fault.SpillRead, f.worker); err != nil {
		return nil, err
	}
	return f.pool.Load(slot)
}

func (f *faultSpillStore) LoadBytes(slot int) ([]byte, error) {
	if err := f.plan.ErrAt(fault.SpillRead, f.worker); err != nil {
		return nil, err
	}
	return f.pool.LoadBytes(slot)
}

func (f *faultSpillStore) Free(slot int) { f.pool.Free(slot) }

// stepGovernors builds the per-worker memory governors for one streaming
// step, or (nil, no-op) when Config.MemoryBudget is unset. The returned
// close function removes the step's spill files; call it only after the
// step has fully drained.
func (c *Cluster) stepGovernors() ([]*exchange.Governor, func()) {
	if c.Cfg.MemoryBudget <= 0 {
		return nil, func() {}
	}
	govs := make([]*exchange.Governor, len(c.Workers))
	pools := make([]*storage.SpillPool, len(c.Workers))
	closeAll := func() {
		for _, sp := range pools {
			if sp == nil {
				continue
			}
			// A step that cleaned up fully freed every slot; anything
			// still live is a leak the chaos campaign asserts against.
			if n := sp.LiveSlots(); n > 0 {
				c.Transport.Stats().NoteLeakedSlots(int64(n))
			}
			_ = sp.Close()
		}
	}
	for i, w := range c.Workers {
		// DataDir clusters spill under the worker's storage root; without
		// one the pool picks a temp directory lazily on its first spill,
		// so an under-budget step touches no filesystem state at all.
		sp := storage.NewSpillPool(c.workerSubdir(i, "_spill"), w.Reg())
		pools[i] = sp
		var store exchange.SpillStore = sp
		if c.Cfg.Fault != nil {
			store = &faultSpillStore{pool: sp, plan: c.Cfg.Fault, worker: i}
		}
		govs[i] = exchange.NewGovernor(c.Cfg.MemoryBudget, store, func(p *object.Page) { c.pool.Put(p) })
	}
	return govs, closeAll
}

// governorOf returns worker i's governor, nil for an ungoverned step.
func governorOf(govs []*exchange.Governor, i int) *exchange.Governor {
	if govs == nil {
		return nil
	}
	return govs[i]
}

// spillTelemetry records one step's governor gauges on the transport and
// returns them (spill traffic totals, resident high-water mark across the
// step's backends). Steps that surface per-stage stats fold the values
// into their StageShip; the join records transport-level only.
func (c *Cluster) spillTelemetry(govs []*exchange.Governor) (spilledPages, spilledBytes, maxBuffered int64) {
	for _, g := range govs {
		if g == nil {
			continue
		}
		spilledPages += g.SpilledPages()
		spilledBytes += g.SpilledBytes()
		if mb := g.MaxResidentBytes(); mb > maxBuffered {
			maxBuffered = mb
		}
	}
	c.Transport.Stats().NoteSpill(spilledPages, spilledBytes, maxBuffered)
	return spilledPages, spilledBytes, maxBuffered
}
