package engine

import (
	"errors"
	"fmt"

	"repro/internal/object"
)

// AggSpec describes an aggregation's types and behaviour — the compiled
// form of an AggregateComp (paper §3's Map-based aggregation and Appendix
// D.2's two-stage execution).
type AggSpec struct {
	KeyKind object.Kind
	ValKind object.Kind

	// Combine folds a new value into the running value for a key. It is
	// used both map-side (pre-aggregation) and at the merge of shuffled
	// partial aggregates, so it must be associative and closed over the
	// value type: the Val projection should already produce the
	// accumulator type, exactly like the paper's Avg DataPoint::fromMe()
	// pattern (§Appendix A). A spec that declares a Fold leaves it nil.
	Combine CombineFn

	// Fold, when set, declares the aggregation as a closed scalar fold of
	// a KInt32, KInt64 or KFloat64 value, and is then its only definition:
	// Combiner derives the combine function from it. With a KInt64 key and
	// a KInt64 or KFloat64 value the sinks and merges fold typed columns
	// and raw map slots in place (object.ScalarSlots) instead of boxing
	// every pair; the page bytes are the same either way.
	Fold object.FoldOp

	// Finalize converts a merged (key, value) entry into an output
	// object on the result set's page (e.g. the k-means Centroid).
	Finalize func(a *object.Allocator, key, val object.Value) (object.Ref, error)
}

// Combiner returns the function that folds a value into a key's running
// value: Combine, or for a spec that declares a Fold the closure derived
// from it.
func (s *AggSpec) Combiner() (CombineFn, error) {
	op := s.Fold
	switch {
	case op == 0 && s.Combine == nil:
		return nil, errors.New("engine: aggregation spec has neither a Combine nor a Fold")
	case op == 0:
		return s.Combine, nil
	case s.Combine != nil:
		return nil, fmt.Errorf("engine: aggregation spec declares the %v fold and a Combine beside it", op)
	}
	switch s.ValKind {
	case object.KInt32, object.KInt64:
		return func(_ *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Int64Value(op.I64(cur.AsInt64(), next.AsInt64())), nil
		}, nil
	case object.KFloat64:
		return func(_ *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error) {
			if !exists {
				return next, nil
			}
			return object.Float64Value(op.F64(cur.AsFloat64(), next.AsFloat64())), nil
		}, nil
	default:
		return nil, fmt.Errorf("engine: the %v fold needs an int or float value, not %v", op, s.ValKind)
	}
}

// scalarSlots reports whether the spec's maps are folded on raw slots: a
// declared Fold over kinds with the 20-byte scalar slot layout.
func (s *AggSpec) scalarSlots() bool {
	return s.Fold != 0 && object.HasScalarSlots(s.KeyKind, s.ValKind)
}

// LogicalKeyHash hashes an aggregation key the way OMap does — handle keys
// dispatch through the registered type's Hash — so a logical key is
// assigned consistently regardless of which page its bytes live on (the
// physical offset changes whenever a key is deep-copied, e.g. into a merge's
// sub-map or across workers in the shuffle). Every
// layer that routes keys to a partition or a thread must use this hash.
func LogicalKeyHash(reg *object.Registry, keyKind object.Kind, key object.Value) uint64 {
	if keyKind == object.KHandle && key.K == object.KHandle && !key.H.IsNil() {
		if ti := reg.Lookup(key.H.TypeCode()); ti != nil && ti.Hash != nil {
			return ti.Hash(key.H)
		}
	}
	return object.HashValue(key)
}

// updateAggEntry folds val into key's entry of the page-backed map m with
// one probe of the map's own chain. It makes exactly the page mutations
// m.Get + Combine + m.Put would, in the same order — combine allocates
// before the growth check, growth runs before the insert even when the key
// exists — so map pages and fault points are
// byte-for-byte those of the two-probe form. stats may be nil.
func updateAggEntry(m object.OMap, a *object.Allocator, key, val object.Value,
	combine CombineFn, stats *Stats) error {
	if stats != nil {
		stats.HashProbes++
	}
	i, found := m.FindSlot(key)
	var cur object.Value
	ok := false
	if found {
		cur = m.ValAt(i)
		ok = cur.K != object.KInvalid // a faulted earlier write left a zero entry
	}
	nv, err := combine(a, cur, ok, val)
	if err != nil {
		return err
	}
	grown, err := m.MaybeGrow(a)
	if err != nil {
		return err
	}
	if grown {
		if stats != nil {
			stats.HashResizes++
		}
		i, found = m.FindSlot(key) // the rehash moved every slot
	}
	if !found {
		if err := m.ClaimSlot(a, i, key); err != nil {
			return err
		}
	}
	return m.WriteValAt(a, i, nv)
}

// subMerger incrementally folds pre-aggregated map pages into one
// sub-partition's final map. A stream cannot re-scan consumed pages, so an
// overflow grows the map in place: the entries are rehashed onto a
// double-size page and the faulted update retries.
//
// The sub-map page is a region (object.Allocator), so the merger's whole
// state is the page bytes plus the on-page watermark, and a merger that
// replays the same stream from a fresh page produces bit-for-bit the same
// final page — the invariant consumer-side crash recovery (replay from
// page 0) is built on.
type subMerger struct {
	reg              *object.Registry
	spec             *AggSpec
	part, partitions int
	sub, subs        int
	pool             *object.PagePool
	combine          CombineFn

	pg    *object.Page
	a     *object.Allocator
	final object.OMap
	// slots is final's raw slot view, typed set, when the spec folds on
	// scalar slots; shuffled maps of the same layout are then folded slot to
	// slot (foldSlots).
	slots object.ScalarSlots
	typed bool
}

// bind points the merger at its sub-map, on a fresh or grown page.
func (m *subMerger) bind(pg *object.Page, a *object.Allocator, final object.OMap) {
	m.pg, m.a, m.final = pg, a, final
	if m.spec.scalarSlots() {
		m.slots, m.typed = final.ScalarSlots(m.spec.ValKind)
	}
}

func newSubMerger(reg *object.Registry, part, partitions int, spec *AggSpec,
	pageSize int, pool *object.PagePool, sub, subs int) (*subMerger, error) {
	combine, err := spec.Combiner()
	if err != nil {
		return nil, err
	}
	m := &subMerger{reg: reg, spec: spec, part: part, partitions: partitions,
		sub: sub, subs: subs, pool: pool, combine: combine}
	for {
		var pg *object.Page
		if pool != nil && pool.Size == pageSize {
			pg = pool.Get(reg)
		} else {
			pg = object.NewPage(pageSize, reg)
		}
		a := object.NewAllocator(pg)
		final, err := object.MakeMap(a, spec.KeyKind, spec.ValKind, 64)
		if errors.Is(err, object.ErrPageFull) {
			// The configured page cannot hold even an empty map; start
			// bigger (the grow path would do the same, one fold later).
			if pool != nil {
				pool.Put(pg)
			}
			pageSize *= 2
			if pageSize > 1<<30 {
				return nil, fmt.Errorf("engine: aggregation sub-map exceeds 1GiB empty: %w", err)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		final.Retain()
		pg.SetRoot(final.Off)
		m.bind(pg, a, final)
		return m, nil
	}
}

// fold merges the sub-partition's share of one shuffled map page.
func (m *subMerger) fold(src *object.Page) error {
	if src.Root() == 0 {
		return nil
	}
	root := object.AsVector(object.Ref{Page: src, Off: src.Root()})
	if m.part >= root.Len() {
		return fmt.Errorf("engine: page has %d partitions, need %d", root.Len(), m.part+1)
	}
	srcMap := object.AsMap(root.HandleAt(m.part))
	if m.typed {
		if slots, ok := srcMap.ScalarSlots(m.spec.ValKind); ok {
			return m.foldSlots(&slots)
		}
	}
	var ferr error
	srcMap.Iterate(func(key, val object.Value) bool {
		// Sub-partition on hash DIVIDED by the partition count: every
		// key in partition part satisfies hash%partitions == part, so
		// taking hash%subs again would correlate with the partition
		// routing (all keys in one sub whenever subs divides partitions);
		// the quotient varies freely within a partition.
		if m.subs > 1 && int((LogicalKeyHash(m.reg, m.spec.KeyKind, key)/uint64(m.partitions))%uint64(m.subs)) != m.sub {
			return true
		}
		if err := m.update(key, val); err != nil {
			ferr = err
			return false
		}
		return true
	})
	return ferr
}

func (m *subMerger) update(key, val object.Value) error {
	for {
		err := updateAggEntry(m.final, m.a, key, val, m.combine, nil)
		if !errors.Is(err, object.ErrPageFull) {
			return err
		}
		if err := m.grow(); err != nil {
			return err
		}
	}
}

// foldSlots is fold's loop over a shuffled map's raw slots, in the slot
// order Iterate walks: the same sub-partition filter on the same hash, the
// same grow-and-retry on a full page.
func (m *subMerger) foldSlots(src *object.ScalarSlots) error {
	for i, n := 0, src.Slots(); i < n; i++ {
		key, val, full := src.EntryAt(i)
		if !full {
			continue
		}
		h := object.HashInt64(key)
		if m.subs > 1 && int((h/uint64(m.partitions))%uint64(m.subs)) != m.sub {
			continue
		}
		for {
			_, err := m.slots.Fold(m.a, h, key, val, m.spec.Fold)
			if err == nil {
				break
			}
			if !errors.Is(err, object.ErrPageFull) {
				return err
			}
			if err := m.grow(); err != nil {
				return err
			}
		}
	}
	return nil
}

// grow rehashes the sub-map onto a page of at least double the size,
// recycling the outgrown page. Entries deep-copy across by the object
// model's cross-block assignment rule, exactly as they do in the shuffle.
// A typed merger re-inserts on raw slots (regrowSlots); every other spec
// goes through Iterate + Put.
func (m *subMerger) grow() error {
	for size := len(m.pg.Data) * 2; ; size *= 2 {
		if size > 1<<30 {
			return fmt.Errorf("engine: aggregation sub-partition exceeds 1GiB: %w", object.ErrPageFull)
		}
		npg := object.NewPage(size, m.reg)
		na := object.NewAllocator(npg)
		nm, err := object.MakeMap(na, m.spec.KeyKind, m.spec.ValKind, 64)
		if err != nil {
			return err
		}
		nm.Retain()
		npg.SetRoot(nm.Off)
		var cerr error
		if m.typed {
			cerr = m.regrowSlots(na, nm)
		} else {
			m.final.Iterate(func(key, val object.Value) bool {
				if err := nm.Put(na, key, val); err != nil {
					cerr = err
					return false
				}
				return true
			})
		}
		if errors.Is(cerr, object.ErrPageFull) {
			continue // even the copy overflowed; double again
		}
		if cerr != nil {
			return cerr
		}
		if m.pool != nil {
			m.pool.Put(m.pg)
		}
		m.bind(npg, na, nm)
		return nil
	}
}

// regrowSlots copies the sub-map's entries into nm in slot order through
// nm's typed Fold. The keys are unique, so Fold never finds one and makes
// exactly Put's mutations in Put's order: the bytes of Iterate + Put.
func (m *subMerger) regrowSlots(na *object.Allocator, nm object.OMap) error {
	// Resolved afresh: a boxed update may have rehashed final under m.slots.
	src, _ := m.final.ScalarSlots(m.spec.ValKind)
	dst, _ := nm.ScalarSlots(m.spec.ValKind)
	for i, n := 0, src.Slots(); i < n; i++ {
		if key, val, full := src.EntryAt(i); full {
			if _, err := dst.Fold(na, object.HashInt64(key), key, val, m.spec.Fold); err != nil {
				return err
			}
		}
	}
	return nil
}

// MergeAggMapsStream implements the consuming stage of distributed
// aggregation: it folds partition part of every pre-aggregated map page next
// yields into final maps, reading the pages' maps as raw bytes with zero
// deserialization. The partition's key space is split into threads
// sub-partitions keyed on (LogicalKeyHash / partitions) % threads, and
// sub-partition merger t folds only its own keys onto its own page, so the
// merge work — not the cheap key hashing — is what parallelizes. next yields
// pages in a deterministic order (a shuffle's (producer worker, thread,
// sequence) order, or a single process's thread order); every merger folds
// every page in exactly that order, so the merge is bit-for-bit
// reproducible.
//
// The merge takes no cuts and releases none of the pages: a crashed merge
// starts over from the stream's first page, and the pages belong to the
// caller (an exchange's replay retention, or a page slice).
//
// Sub-maps and their pages are returned in sub-partition order;
// FinalizeAggParallel materializes them in that order, so the output page
// sequence is deterministic for a given thread count.
func MergeAggMapsStream(reg *object.Registry, next func() (*object.Page, bool, error),
	part, partitions int, spec *AggSpec, pageSize int, pool *object.PagePool,
	threads int) ([]object.OMap, []*object.Page, error) {
	if threads < 1 {
		threads = 1
	}
	mergers := make([]*subMerger, threads)
	for t := range mergers {
		m, err := newSubMerger(reg, part, partitions, spec, pageSize, pool, t, threads)
		if err != nil {
			return nil, nil, err
		}
		mergers[t] = m
	}
	fold := func(t int, p *object.Page) error { return mergers[t].fold(p) }
	if err := streamPages(next, threads, true, fold); err != nil {
		return nil, nil, err
	}
	maps := make([]object.OMap, threads)
	pages := make([]*object.Page, threads)
	for t, m := range mergers {
		maps[t], pages[t] = m.final, m.pg
	}
	return maps, pages, nil
}

// SliceSource yields pages in order, as MergeAggMapsStream's next.
func SliceSource(pages []*object.Page) func() (*object.Page, bool, error) {
	return func() (*object.Page, bool, error) {
		if len(pages) == 0 {
			return nil, false, nil
		}
		p := pages[0]
		pages = pages[1:]
		return p, true, nil
	}
}

// FinalizeAgg materializes a merged aggregation map into output objects via
// the spec's Finalize, writing them through an OutputSink.
func FinalizeAgg(reg *object.Registry, final object.OMap, spec *AggSpec, pageSize int, pool *object.PagePool, stats *Stats) ([]*object.Page, error) {
	sink, err := NewOutputSink(reg, pageSize, pool, stats)
	if err != nil {
		return nil, err
	}
	var ferr error
	final.Iterate(func(key, val object.Value) bool {
		obj, err := spec.Finalize(sink.Out.Alloc, key, val)
		if errors.Is(err, object.ErrPageFull) {
			if err = sink.Out.Rotate(); err == nil {
				obj, err = spec.Finalize(sink.Out.Alloc, key, val)
			}
		}
		if err != nil {
			ferr = err
			return false
		}
		if err := sink.appendWithRotate(obj); err != nil {
			ferr = err
			return false
		}
		return true
	})
	if ferr != nil {
		return nil, ferr
	}
	return sink.Pages(), nil
}

// FinalizeAggParallel materializes the hash-range sub-maps produced by
// MergeAggMapsStream, one executor thread per sub-map, each writing
// through its own OutputSink with its own Stats. Output pages are
// concatenated in sub-partition order, so the page sequence (and the row
// order within each sub-map's pages) is deterministic for a given thread
// count. Per-thread counters are folded into stats after the barrier.
func FinalizeAggParallel(reg *object.Registry, finals []object.OMap, spec *AggSpec,
	pageSize int, pool *object.PagePool, stats *Stats) ([]*object.Page, error) {
	if len(finals) == 1 {
		return FinalizeAgg(reg, finals[0], spec, pageSize, pool, stats)
	}
	perThread := make([][]*object.Page, len(finals))
	tstats := make([]Stats, len(finals))
	err := ParallelFor(len(finals), func(t int) error {
		pages, err := FinalizeAgg(reg, finals[t], spec, pageSize, pool, &tstats[t])
		if err != nil {
			return err
		}
		perThread[t] = pages
		return nil
	})
	if stats != nil {
		for t := range tstats {
			stats.Merge(&tstats[t])
		}
	}
	if err != nil {
		return nil, err
	}
	var out []*object.Page
	for _, pages := range perThread {
		out = append(out, pages...)
	}
	return out, nil
}
