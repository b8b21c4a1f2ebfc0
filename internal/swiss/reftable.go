package swiss

import (
	"slices"

	"repro/internal/object"
)

// refEntry is one distinct join key. The first ref is stored inline so the
// common unique-key case never allocates a per-key slice — the map-based
// baseline pays one []object.Ref allocation per distinct key.
type refEntry struct {
	hash  uint64
	first object.Ref
	rest  []object.Ref
}

// RefTable maps a 64-bit join hash to its list of build-side refs. It is
// the swiss-table replacement for the engine's map[uint64][]object.Ref
// join table: group-probed control bytes, dense insertion-ordered entries,
// and an inline first ref per key. Lookups are safe for concurrent readers
// once building is done; Add/Merge are single-writer.
type RefTable struct {
	ctrl
	entries []refEntry
}

// NewRefTable returns an empty table sized for a handful of keys.
func NewRefTable() *RefTable {
	return &RefTable{ctrl: newCtrl(1)}
}

// Len returns the number of distinct hashes stored.
func (t *RefTable) Len() int { return len(t.entries) }

// Resizes returns how many times the control array has grown.
func (t *RefTable) Resizes() uint64 { return t.resizes }

func (t *RefTable) hashAt(e uint32) uint64 { return t.entries[e].hash }

// reserve makes room for one more entry. When the control array doubles,
// entries grow with it, to the new array's 7/8 load limit, so the entry
// array reallocates once per doubling instead of on append's ~1.25x
// schedule.
func (t *RefTable) reserve() {
	if !t.needsGrow(len(t.entries)) {
		return
	}
	t.grow(len(t.entries), t.hashAt)
	t.entries = slices.Grow(t.entries, t.capacity()*7/8-len(t.entries))
}

// Add appends r to hash's ref list, creating the entry on first sight.
func (t *RefTable) Add(hash uint64, r object.Ref) {
	if e, _, ok := t.find(hash, func(e uint32) bool { return t.entries[e].hash == hash }); ok {
		t.entries[e].rest = append(t.entries[e].rest, r)
		return
	}
	t.reserve()
	_, slot, ok := t.find(hash, func(uint32) bool { return false })
	if ok {
		panic("swiss: unreachable match with constant-false predicate")
	}
	t.entries = append(t.entries, refEntry{hash: hash, first: r})
	t.claim(slot, hash, uint32(len(t.entries)-1))
}

// Lookup returns hash's refs as (inline first, overflow rest). When found
// is false the key is absent. Callers must treat both return slices/values
// as read-only views into the table.
func (t *RefTable) Lookup(hash uint64) (first object.Ref, rest []object.Ref, found bool) {
	e, _, ok := t.find(hash, func(e uint32) bool { return t.entries[e].hash == hash })
	if !ok {
		return object.Ref{}, nil, false
	}
	return t.entries[e].first, t.entries[e].rest, true
}

// Count returns the number of refs stored under hash (0 when absent).
func (t *RefTable) Count(hash uint64) int {
	e, _, ok := t.find(hash, func(e uint32) bool { return t.entries[e].hash == hash })
	if !ok {
		return 0
	}
	return 1 + len(t.entries[e].rest)
}

// Range calls fn once per distinct hash in insertion order, passing the
// inline first ref and the (possibly nil) overflow slice. Both are
// read-only views; fn must not retain or mutate rest.
func (t *RefTable) Range(fn func(hash uint64, first object.Ref, rest []object.Ref) bool) {
	for i := range t.entries {
		e := &t.entries[i]
		if !fn(e.hash, e.first, e.rest) {
			return
		}
	}
}

// AddBucket appends a whole ref list (first + rest, in that order) under
// hash — the merge primitive. Appended refs are copied, never aliased.
func (t *RefTable) AddBucket(hash uint64, first object.Ref, rest []object.Ref) {
	if e, _, ok := t.find(hash, func(e uint32) bool { return t.entries[e].hash == hash }); ok {
		t.entries[e].rest = append(t.entries[e].rest, first)
		t.entries[e].rest = append(t.entries[e].rest, rest...)
		return
	}
	t.reserve()
	_, slot, _ := t.find(hash, func(uint32) bool { return false })
	ent := refEntry{hash: hash, first: first}
	if len(rest) > 0 {
		ent.rest = append([]object.Ref(nil), rest...)
	}
	t.entries = append(t.entries, ent)
	t.claim(slot, hash, uint32(len(t.entries)-1))
}
