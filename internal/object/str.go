package object

import (
	"math"
	"unsafe"
)

func float64bits(f float64) uint64     { return math.Float64bits(f) }
func float64frombits(b uint64) float64 { return math.Float64frombits(b) }

// MakeString allocates a PC string object holding s on the active block.
// PC strings are deliberately minimal — the same representation in RAM and
// on disk, no cached hash values (paper §8.4.3 discusses the consequence).
func MakeString(a *Allocator, s string) (Ref, error) {
	off, err := a.Alloc(uint32(len(s)), TCString)
	if err != nil {
		return NilRef, err
	}
	r := Ref{Page: a.Page, Off: off}
	copy(r.Page.Data[off:off+uint32(len(s))], s)
	return r, nil
}

// MakeStringBytes is MakeString for contents held as bytes (an encoded sort
// key in an arena, say), sparing the caller a Go string per object.
func MakeStringBytes(a *Allocator, b []byte) (Ref, error) {
	off, err := a.Alloc(uint32(len(b)), TCString)
	if err != nil {
		return NilRef, err
	}
	copy(a.Page.Data[off:], b)
	return Ref{Page: a.Page, Off: off}, nil
}

// StringBytes returns a string object's contents as a view of the page — no
// copy, no Go string. The view is valid while the page's bytes are: callers
// own the page (a sealed run page held by a merge) and must not write
// through it. Nil for a nil Ref.
func StringBytes(r Ref) []byte {
	if r.IsNil() {
		return nil
	}
	b := r.Payload()
	return b[:len(b):len(b)]
}

// bytesOfString views a Go string's bytes without copying them (the Go-backed
// half of Value.strBytes). The one use of unsafe in the object model: the
// result aliases immutable memory and must never be written through, so it
// never leaves the package.
func bytesOfString(s string) []byte {
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// StringContents copies the contents of a string object into a Go string:
// the explicit "these bytes must outlive the page" call. Code that only
// compares, hashes or rewrites the contents works on StringBytes.
func StringContents(r Ref) string {
	if r.IsNil() {
		return ""
	}
	n := r.PayloadSize()
	return string(r.Page.Data[r.Off : r.Off+n])
}
