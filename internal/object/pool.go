package object

import (
	"encoding/binary"
	"sync"
)

// Reset returns a page to its pristine state without zeroing its body:
// "deallocating" a page of objects means returning it to the buffer pool,
// where it will be recycled and written over with a new set of objects
// (paper §3). Safe because the allocator zeroes each allocation's payload
// and only the occupied prefix of a page is ever shipped or persisted.
func (p *Page) Reset() {
	copy(p.Data[0:4], pageMagic)
	p.setUsed(PageHeaderSize)
	p.setActiveObjects(0)
	binary.LittleEndian.PutUint32(p.Data[12:16], 0) // root
	p.setFlags(flagManaged)
	if p.alloc != nil {
		p.alloc.Page = nil
		p.alloc = nil
	}
}

// PagePool recycles fixed-size pages, eliminating the dominant cost of
// page churn (allocating and zeroing fresh blocks) in iterative jobs — the
// role the worker's buffer pool plays in the paper's runtime.
type PagePool struct {
	Size int
	pool sync.Pool

	mu     sync.Mutex
	reuses int
}

// NewPagePool creates a pool of pages of the given size.
func NewPagePool(size int) *PagePool { return &PagePool{Size: size} }

// Get returns a pristine page, recycling a returned one when available.
func (pp *PagePool) Get(reg *Registry) *Page {
	if v := pp.pool.Get(); v != nil {
		p := v.(*Page)
		p.Reg = reg
		p.Reset()
		pp.mu.Lock()
		pp.reuses++
		pp.mu.Unlock()
		return p
	}
	return NewPage(pp.Size, reg)
}

// Put returns a page whose data are dead. Pages of a different size are
// dropped (the pool is homogeneous, like a buffer pool frame).
func (pp *PagePool) Put(p *Page) {
	if p == nil || len(p.Data) != pp.Size {
		return
	}
	p.Reg = nil
	pp.pool.Put(p)
}

// Reuses reports how many pages were served from the pool (tests).
func (pp *PagePool) Reuses() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.reuses
}
