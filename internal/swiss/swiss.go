// Package swiss implements cache-friendly open-addressing hash tables with
// group-probed control bytes — the engine's analogue of the "swiss table"
// family. A table's metadata is a flat array of control bytes, one per slot,
// organized in 16-slot groups: an empty slot holds 0x80 and a full slot
// holds the 7-bit H2 tag of its key's hash, so a probe scans a whole group
// word-at-a-time (two 64-bit words per group, pure-Go SWAR matching) and
// touches entry storage only for slots whose tag already agrees.
//
// Entries live in a dense append-only array and the slot array stores
// indices into it, so iteration in insertion order is a linear walk of the
// entry array, independent of the hash layout — the property the engine's
// determinism contract needs. Workloads here are insert/lookup only (no
// deletes), so there are no tombstones: probing stops at the first group
// containing an empty slot.
//
// The two instantiations are RefTable (join-table buckets: uint64 hash →
// object refs, inline first entry) and Index (a hash → slot-number multimap
// accelerating probes into a page-backed object.OMap).
package swiss

import "math/bits"

const (
	// groupSlots is the number of slots scanned per probe step; the group's
	// control bytes are matched as two 64-bit words.
	groupSlots = 16
	groupWords = groupSlots / 8

	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// Mix64 is the 64-bit avalanche finalizer (murmur3's fmix64) the tables
// apply to incoming hashes before deriving the group index (H1) and tag
// byte (H2). The engine's own hashes stay untouched everywhere else —
// partition routing, OMap slot order, and every pinned iteration order are
// functions of the raw hash — so the stronger mixing is swiss-internal and
// cannot shift existing results; it only makes tags well-distributed even
// for weakly mixed inputs (sequential FNV-1a values, offset hashes).
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// splitHash derives the probe start group and tag byte from a raw hash.
func splitHash(hash uint64, groupMask uint64) (group uint64, tag uint8) {
	h := Mix64(hash)
	return (h >> 7) & groupMask, uint8(h & 0x7f)
}

// matchWord returns a word with the high bit of byte i set when ctrl byte i
// may equal tag (the classic SWAR zero-byte scan; a borrow can set a false
// positive immediately above a true match, which costs one wasted entry
// check and nothing else — every candidate is verified against the stored
// full hash).
func matchWord(w uint64, tag uint8) uint64 {
	x := w ^ (lsb * uint64(tag))
	return (x - lsb) &^ x & msb
}

// emptyWord returns a word with the high bit of byte i set when ctrl byte i
// is empty (exact: full tags are 7-bit, so the high bit IS the empty flag).
func emptyWord(w uint64) uint64 { return w & msb }

// ctrl is the shared control-byte core: the group-organized byte array
// (stored as words), the parallel slot array of entry indices, and the
// probe/growth machinery. The concrete tables own the entry storage and
// drive find/insert with callbacks resolved per candidate slot.
type ctrl struct {
	words     []uint64 // groupWords per group, byte i of word = one slot
	slots     []uint32 // entry index per slot, parallel to the ctrl bytes
	groupMask uint64   // groups-1 (groups are a power of two)
	resizes   uint64
}

func newCtrl(groups int) ctrl {
	c := ctrl{}
	c.reset(groups)
	return c
}

// groupsFor picks the power-of-two group count holding n entries under the
// 7/8 load factor.
func groupsFor(n int) int {
	groups := 1
	for groups*groupSlots*7 < n*8 {
		groups *= 2
	}
	return groups
}

func (c *ctrl) reset(groups int) {
	if groups < 1 {
		groups = 1
	}
	need := groups * groupWords
	if cap(c.words) >= need {
		c.words = c.words[:need]
		c.slots = c.slots[:groups*groupSlots]
	} else {
		c.words = make([]uint64, need)
		c.slots = make([]uint32, groups*groupSlots)
	}
	for i := range c.words {
		c.words[i] = msb // every byte 0x80: all slots empty
	}
	c.groupMask = uint64(groups) - 1
}

func (c *ctrl) capacity() int { return len(c.slots) }

// needsGrow reports whether inserting one more entry (n currently stored)
// would push the table past its 7/8 load factor.
func (c *ctrl) needsGrow(n int) bool { return (n+1)*8 > c.capacity()*7 }

// find probes for an entry matching hash, calling match(entryIndex) on each
// tag candidate; it returns the matched entry index, or ok=false with the
// slot where an insert of this hash would land.
func (c *ctrl) find(hash uint64, match func(entry uint32) bool) (entry uint32, slot int, ok bool) {
	g, tag := splitHash(hash, c.groupMask)
	for {
		base := int(g) * groupWords
		for w := 0; w < groupWords; w++ {
			m := matchWord(c.words[base+w], tag)
			for m != 0 {
				s := int(g)*groupSlots + w*8 + bits.TrailingZeros64(m)>>3
				e := c.slots[s]
				if match(e) {
					return e, s, true
				}
				m &= m - 1
			}
		}
		if e0 := emptyWord(c.words[base]); e0 != 0 {
			return 0, int(g)*groupSlots + bits.TrailingZeros64(e0)>>3, false
		}
		if e1 := emptyWord(c.words[base+1]); e1 != 0 {
			return 0, int(g)*groupSlots + 8 + bits.TrailingZeros64(e1)>>3, false
		}
		g = (g + 1) & c.groupMask
	}
}

// findInsertSlot probes for the first empty slot in hash's probe sequence
// without matching tags (rebuild path: all keys are known distinct).
func (c *ctrl) findInsertSlot(hash uint64) int {
	g, _ := splitHash(hash, c.groupMask)
	for {
		base := int(g) * groupWords
		if e0 := emptyWord(c.words[base]); e0 != 0 {
			return int(g)*groupSlots + bits.TrailingZeros64(e0)>>3
		}
		if e1 := emptyWord(c.words[base+1]); e1 != 0 {
			return int(g)*groupSlots + 8 + bits.TrailingZeros64(e1)>>3
		}
		g = (g + 1) & c.groupMask
	}
}

// claim marks slot full with hash's tag and records its entry index.
func (c *ctrl) claim(slot int, hash uint64, entry uint32) {
	_, tag := splitHash(hash, c.groupMask)
	word := slot >> 3
	shift := uint(slot&7) * 8
	c.words[word] = c.words[word]&^(0xff<<shift) | uint64(tag)<<shift
	c.slots[slot] = entry
}

// grow doubles the group count and re-places every entry; hashOf returns
// entry i's raw hash. Entry storage never moves — only the control bytes
// and slot indices are rebuilt — so dense iteration order is unaffected.
func (c *ctrl) grow(n int, hashOf func(entry uint32) uint64) {
	groups := int(c.groupMask+1) * 2
	// Rebuild into fresh arrays (reset would clobber the old layout we no
	// longer need — entries are re-placed from their own hashes).
	c.words = nil
	c.slots = nil
	c.reset(groups)
	for i := 0; i < n; i++ {
		h := hashOf(uint32(i))
		c.claim(c.findInsertSlot(h), h, uint32(i))
	}
	c.resizes++
}
