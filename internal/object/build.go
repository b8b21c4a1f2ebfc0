package object

import "errors"

// BuildPages is the client-side loading helper (the paper §3 pattern of
// makeObjectAllocatorBlock + makeObject + push_back): it fills pages with n
// objects built by fill, each page holding a root Vector<Handle>. When an
// object does not fit on the current page, a fresh page is started and the
// object is rebuilt there; any partial allocations from the failed attempt
// remain as unreferenced holes on the sealed page (region semantics).
func BuildPages(reg *Registry, pageSize, n int, fill func(a *Allocator, i int) (Ref, error)) ([]*Page, error) {
	var pages []*Page
	var p *Page
	var a *Allocator
	var root Vector

	fresh := func() error {
		p = NewPage(pageSize, reg)
		a = NewAllocator(p)
		v, err := MakeVector(a, KHandle, 0)
		if err != nil {
			return err
		}
		v.Retain()
		p.SetRoot(v.Off)
		root = v
		return nil
	}
	if err := fresh(); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		r, err := fill(a, i)
		if err == nil {
			err = root.PushBackHandle(a, r)
		}
		if errors.Is(err, ErrPageFull) {
			pages = append(pages, p)
			if err := fresh(); err != nil {
				return nil, err
			}
			r, err = fill(a, i)
			if err == nil {
				err = root.PushBackHandle(a, r)
			}
			if err != nil {
				return nil, err
			}
		} else if err != nil {
			return nil, err
		}
	}
	pages = append(pages, p)
	return pages, nil
}
