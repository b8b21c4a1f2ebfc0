// Package buffer implements the worker storage server's buffer pool (paper
// §2, Appendix D.1): a bounded cache of pages with pin/unpin semantics and
// LRU eviction of unpinned pages to a backing store. Because PC pages need
// no (de)serialization, eviction and reload are raw byte copies.
//
// Nothing imports this package yet: internal/storage serves whole sets
// without a pool in front of it. ROADMAP item 8 wires it in or deletes it,
// by measurement.
package buffer

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/object"
)

// Backing persists evicted pages and reloads them on demand (the worker's
// user-level file system in the paper; a directory of page files here).
type Backing interface {
	WritePage(id uint64, data []byte) error
	ReadPage(id uint64) ([]byte, error)
}

// Stats counts pool activity.
type Stats struct {
	Hits      int
	Misses    int
	Evictions int
}

type frame struct {
	page *object.Page
	pins int
	elem *list.Element // position in the LRU list (nil while pinned)
}

// Pool is a bounded page cache.
type Pool struct {
	mu       sync.Mutex
	capacity int
	pageSize int
	reg      *object.Registry
	backing  Backing

	frames map[uint64]*frame
	lru    *list.List // uint64 page IDs, front = least recently used
	nextID uint64

	Stats Stats
}

// NewPool creates a pool holding at most capacity pages of pageSize bytes.
func NewPool(capacity, pageSize int, reg *object.Registry, backing Backing) *Pool {
	return &Pool{
		capacity: capacity,
		pageSize: pageSize,
		reg:      reg,
		backing:  backing,
		frames:   map[uint64]*frame{},
		lru:      list.New(),
	}
}

// PageSize returns the pool's page size.
func (p *Pool) PageSize() int { return p.pageSize }

// NewPage allocates a fresh pinned page with a pool-assigned ID.
func (p *Pool) NewPage() (*object.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	p.nextID++
	pg := object.NewPage(p.pageSize, p.reg)
	pg.ID = p.nextID
	p.frames[pg.ID] = &frame{page: pg, pins: 1}
	return pg, nil
}

// Adopt registers an externally created page (e.g. received from the
// network) with the pool, pinned.
func (p *Pool) Adopt(pg *object.Page) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.makeRoomLocked(); err != nil {
		return err
	}
	p.nextID++
	pg.ID = p.nextID
	p.frames[pg.ID] = &frame{page: pg, pins: 1}
	return nil
}

// Pin fetches a page by ID, loading it from backing storage if evicted.
// The caller must Unpin it.
func (p *Pool) Pin(id uint64) (*object.Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f, ok := p.frames[id]; ok {
		p.Stats.Hits++
		f.pins++
		if f.elem != nil {
			p.lru.Remove(f.elem)
			f.elem = nil
		}
		return f.page, nil
	}
	p.Stats.Misses++
	if p.backing == nil {
		return nil, fmt.Errorf("buffer: page %d not resident and no backing store", id)
	}
	data, err := p.backing.ReadPage(id)
	if err != nil {
		return nil, err
	}
	if err := p.makeRoomLocked(); err != nil {
		return nil, err
	}
	pg, err := object.FromBytes(data, p.reg)
	if err != nil {
		return nil, err
	}
	pg.ID = id
	p.frames[id] = &frame{page: pg, pins: 1}
	return pg, nil
}

// Unpin releases a pin; dirty pages become eligible for write-back on
// eviction.
func (p *Pool) Unpin(id uint64, dirty bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	f, ok := p.frames[id]
	if !ok {
		return fmt.Errorf("buffer: unpin of non-resident page %d", id)
	}
	if f.pins == 0 {
		return fmt.Errorf("buffer: unpin of unpinned page %d", id)
	}
	if dirty {
		f.page.Dirty = true
	}
	f.pins--
	if f.pins == 0 {
		f.elem = p.lru.PushBack(id)
	}
	return nil
}

// makeRoomLocked evicts the LRU unpinned page when at capacity.
func (p *Pool) makeRoomLocked() error {
	for len(p.frames) >= p.capacity {
		front := p.lru.Front()
		if front == nil {
			return fmt.Errorf("buffer: pool exhausted (%d pages, all pinned)", len(p.frames))
		}
		id := front.Value.(uint64)
		p.lru.Remove(front)
		f := p.frames[id]
		if f.page.Dirty {
			if p.backing == nil {
				return fmt.Errorf("buffer: cannot evict dirty page %d without backing", id)
			}
			if err := p.backing.WritePage(id, f.page.Bytes()); err != nil {
				return err
			}
		}
		delete(p.frames, id)
		p.Stats.Evictions++
	}
	return nil
}

// Resident reports how many pages are currently cached.
func (p *Pool) Resident() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}
