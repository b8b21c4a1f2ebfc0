//go:build pagecheck

package object

// poisonReleased is true under -tags pagecheck: PagePool.Put overwrites
// every released frame with poisonByte, so code that reads a page after
// handing it back fails loudly instead of reading stale objects.
const poisonReleased = true
