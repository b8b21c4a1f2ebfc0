package object

import "sync"

// Reset returns a page to its pristine state, rewriting all of its header
// but not zeroing its body: "deallocating" a page of objects means
// returning it to the buffer pool, where it will be recycled and written
// over with a new set of objects (paper §3). Safe because the allocator
// zeroes each allocation's payload, a page shipped into a recycled frame
// overwrites the header with its own, and only the occupied prefix of a
// page is ever read, shipped or persisted.
func (p *Page) Reset() {
	copy(p.Data[0:4], pageMagic)
	p.setUsed(PageHeaderSize)
	clear(p.Data[8:PageHeaderSize]) // the unused words, the root, the reserved word
	if p.alloc != nil {
		p.alloc.Page = nil
		p.alloc = nil
	}
}

// PagePool recycles fixed-size pages, eliminating the dominant cost of
// page churn (allocating and zeroing fresh blocks) in iterative jobs — the
// role the worker's buffer pool plays in the paper's runtime.
//
// It is a mutex-guarded LIFO free list, so a page put back survives a
// garbage collection (a sync.Pool is emptied by one). The list never holds
// more pages than the pool has made: it is bounded by the most pages its
// users ever had from it at once, with no size knob. Drain empties it.
// Who may Put a page is the caller's rule: only a page whose data nobody
// reads any more.
type PagePool struct {
	Size int

	mu     sync.Mutex
	free   []*Page
	made   int
	reuses int
}

// NewPagePool creates a pool of pages of the given size.
func NewPagePool(size int) *PagePool { return &PagePool{Size: size} }

// Get returns a pristine page, recycling a returned one when available.
func (pp *PagePool) Get(reg *Registry) *Page {
	pp.mu.Lock()
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.reuses++
		pp.mu.Unlock()
		p.Reg = reg
		p.Reset()
		return p
	}
	pp.made++
	pp.mu.Unlock()
	return NewPage(pp.Size, reg)
}

// poisonByte is the byte PagePool.Put fills a released frame with under
// -tags pagecheck.
const poisonByte = 0xA5

// Put returns a page whose data are dead. Pages of a different size are
// dropped (the pool is homogeneous, like a buffer pool frame), and so is
// any page that would take the list past the pages the pool has made.
// Under -tags pagecheck every page, listed or dropped, is first checked
// against its Seal record, if it has one, and then overwritten with
// poisonByte.
func (pp *PagePool) Put(p *Page) {
	if p == nil {
		return
	}
	p.checkSeal()
	if poisonReleased {
		for i := range p.Data {
			p.Data[i] = poisonByte
		}
	}
	if len(p.Data) != pp.Size {
		return
	}
	p.Reg = nil
	pp.mu.Lock()
	if len(pp.free) < pp.made {
		pp.free = append(pp.free, p)
	}
	pp.mu.Unlock()
}

// Drain drops every page on the free list for the garbage collector (the
// cluster's Close).
func (pp *PagePool) Drain() {
	pp.mu.Lock()
	clear(pp.free)
	pp.free = nil
	pp.mu.Unlock()
}

// Reuses reports how many pages were served from the pool (tests).
func (pp *PagePool) Reuses() int {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.reuses
}

// Counts reports how many pages the pool has made and how many its free
// list holds now (tests).
func (pp *PagePool) Counts() (made, free int) {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.made, len(pp.free)
}
