package object

// Slot-level OMap access for the engine's aggregation update.
//
// The engine keeps page-backed OMaps as the aggregation state (the bytes
// ARE the wire/spill format) and folds each (key, value) pair
// in with one probe: find the slot, combine against the value read there,
// grow, then claim and write. Combine is the engine's (it can fail and it
// allocates), so the steps of Put/Update are exposed one by one; every
// wrapper delegates to the corresponding internal method, so the page byte
// stream cannot diverge from Get + Put.

// ValAt reads the value stored in slot i (which must be full).
func (m OMap) ValAt(i int) Value { return m.readVal(i) }

// FindSlot runs the map's own linear probe for key, returning the holding
// slot (found=true) or the insertion slot (found=false).
func (m OMap) FindSlot(key Value) (int, bool) { return m.find(key) }

// WriteValAt stores val into slot i with Put's value-write semantics
// (string values allocate, handle slots deep-copy foreign pages).
func (m OMap) WriteValAt(a *Allocator, i int, val Value) error {
	return m.writeVal(a, i, val)
}

// MaybeGrow applies Put/Update's pre-insert growth rule — rehash to double
// the slots when one more entry would reach 70% load — and reports whether
// a rehash ran (slot numbers found earlier are invalid afterwards: probe
// again). Callers mirroring Put/Update must invoke this before the write
// even when the key is already present: Put grows on updates too, and
// matching its byte stream means matching its growth points.
func (m OMap) MaybeGrow(a *Allocator) (bool, error) {
	if (m.Len()+1)*10 >= m.slots()*7 {
		if err := m.rehash(a, m.slots()*2); err != nil {
			return false, err
		}
		return true, nil
	}
	return false, nil
}

// ClaimSlot marks empty slot i full, writes key into it (rolling the slot
// back to empty if the key write fails), and bumps the entry count — the
// exact insert prefix of Put/Update before the value write.
func (m OMap) ClaimSlot(a *Allocator, i int, key Value) error {
	m.setSlotState(i, slotFull)
	if err := m.writeKey(a, i, key); err != nil {
		m.setSlotState(i, slotEmpty)
		return err
	}
	m.setLen(m.Len() + 1)
	return nil
}
