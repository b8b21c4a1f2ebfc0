//go:build !pagecheck

package object

// poisonReleased is true under -tags pagecheck (pagecheck.go).
const poisonReleased = false

// sealRecord is empty without -tags pagecheck (pagecheck.go).
type sealRecord struct{}

// Seal declares p read-only until it is handed to PagePool.Put; only
// -tags pagecheck checks it (pagecheck.go).
func (p *Page) Seal()      {}
func (p *Page) checkSeal() {}
