//go:build pagecheck

package object

import "fmt"

// poisonReleased is true under -tags pagecheck: PagePool.Put overwrites
// every released frame with poisonByte, so code that reads a page after
// handing it back fails loudly instead of reading stale objects.
const poisonReleased = true

// sealRecord is a copy of a sealed page's occupied bytes (empty: not
// sealed). Its buffer stays with the page, so sealing a recycled frame
// again allocates nothing.
type sealRecord []byte

// Seal declares p read-only until it is handed to PagePool.Put. Under
// -tags pagecheck it records a copy of the page's occupied bytes, and Put
// panics if they changed; otherwise it does nothing.
func (p *Page) Seal() { p.seal = append(p.seal[:0], p.Bytes()...) }

// checkSeal panics, naming the first differing offset, if p was sealed and
// its occupied bytes changed since, then forgets the seal. A change of
// length changes the watermark word, so the loop sees it too.
func (p *Page) checkSeal() {
	was, now := p.seal, p.Bytes()
	p.seal = p.seal[:0]
	for i := range was {
		if i >= len(now) || was[i] != now[i] {
			panic(fmt.Sprintf("object: sealed page written at offset %d", i))
		}
	}
}
