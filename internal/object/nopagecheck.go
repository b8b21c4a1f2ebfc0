//go:build !pagecheck

package object

// poisonReleased is true under -tags pagecheck (pagecheck.go).
const poisonReleased = false
