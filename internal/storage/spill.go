package storage

// SpillPool: the reusable spill-file pool behind the exchange's memory
// governor (Config.MemoryBudget). When a consumer's resident exchange
// bytes exceed the budget, cold pages move to single-page spill files in
// the same page-file format every stored set uses — the page's occupied
// prefix, written in one call and adopted back with object.FromBytes — so
// spilling pays exactly one write and one read, never a (de)serialization
// step. Slots recycle: freeing a slot returns its file for the next spill
// to overwrite, so a steady-state spill workload touches a bounded set of
// files, and Close removes every file the pool ever made.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/object"
)

// SpillPool stores single-page images in reusable slot files under one
// directory. It is safe for concurrent use: many producer threads spill
// into a consumer's pool while the consumer loads pages back.
type SpillPool struct {
	mu     sync.Mutex
	dir    string
	reg    *object.Registry
	made   bool // directory created (lazily, on the first spill)
	closed bool
	free   []int // slot ids whose files may be overwritten
	next   int   // next never-used slot id
	live   int   // slots currently holding a spilled image
}

// NewSpillPool creates a spill pool rooted at dir — or, when dir is
// empty, a process-temp directory chosen on the first spill — created
// lazily and removed by Close, so a pool that never spills touches no
// filesystem state at all. Pages loaded back resolve their type codes
// through reg.
func NewSpillPool(dir string, reg *object.Registry) *SpillPool {
	return &SpillPool{dir: dir, reg: reg}
}

func (sp *SpillPool) path(slot int) string {
	return filepath.Join(sp.dir, fmt.Sprintf("spill-%06d.pcp", slot))
}

// Spill writes one page's occupied prefix to a slot file and returns the
// slot.
func (sp *SpillPool) Spill(p *object.Page) (int, error) {
	return sp.SpillBytes(p.Bytes())
}

// SpillBytes writes a raw page image to a slot file and returns the slot.
func (sp *SpillPool) SpillBytes(b []byte) (int, error) {
	sp.mu.Lock()
	if sp.closed {
		sp.mu.Unlock()
		return 0, fmt.Errorf("storage: spill pool closed")
	}
	if !sp.made {
		if sp.dir == "" {
			dir, err := os.MkdirTemp("", "pcspill-")
			if err != nil {
				sp.mu.Unlock()
				return 0, err
			}
			sp.dir = dir
		} else if err := os.MkdirAll(sp.dir, 0o755); err != nil {
			sp.mu.Unlock()
			return 0, err
		}
		sp.made = true
	}
	var slot int
	if n := len(sp.free); n > 0 {
		slot = sp.free[n-1]
		sp.free = sp.free[:n-1]
	} else {
		slot = sp.next
		sp.next++
	}
	sp.live++
	sp.mu.Unlock()

	if err := os.WriteFile(sp.path(slot), b, 0o644); err != nil {
		sp.Free(slot)
		return 0, err
	}
	return slot, nil
}

// LoadBytes reads a slot's raw page image back.
func (sp *SpillPool) LoadBytes(slot int) ([]byte, error) {
	b, err := os.ReadFile(sp.path(slot))
	if err != nil {
		return nil, fmt.Errorf("storage: spill slot %d: %w", slot, err)
	}
	return b, nil
}

// Load reads a slot back as a page (object.FromBytes over the slot file —
// the single-read load every persisted page uses).
func (sp *SpillPool) Load(slot int) (*object.Page, error) {
	b, err := sp.LoadBytes(slot)
	if err != nil {
		return nil, err
	}
	p, err := object.FromBytes(b, sp.reg)
	if err != nil {
		return nil, fmt.Errorf("storage: corrupt spill slot %d: %w", slot, err)
	}
	return p, nil
}

// Free returns a slot's file for reuse by a later spill. Negative slots
// (the "never spilled" sentinel) are ignored.
func (sp *SpillPool) Free(slot int) {
	if slot < 0 {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.free = append(sp.free, slot)
	sp.live--
}

// LiveSlots reports how many slots currently hold a spilled image.
func (sp *SpillPool) LiveSlots() int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.live
}

// Close removes every spill file (the whole pool directory) and rejects
// further spills; a pool that never spilled has no directory and Close is
// a pure no-op. Loads of live slots fail after Close; callers close only
// once the step owning the pool has fully drained.
func (sp *SpillPool) Close() error {
	sp.mu.Lock()
	sp.closed = true
	dir, made := sp.dir, sp.made
	sp.mu.Unlock()
	if !made || dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}
