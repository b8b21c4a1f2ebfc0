package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/object"
	"repro/internal/tcap"
)

// Sink terminates a pipeline (the paper's pipe sink): it consumes the final
// vector list of each batch and materializes it into PC objects on output
// pages — an output set's root vector, pre-aggregation maps, or a join hash
// table. Sinks own their page-rotation policy.
type Sink interface {
	Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error
	// Pages returns the sealed+live output pages the sink produced.
	Pages() []*object.Page
}

// StreamSink is a sink that can stream its output pages: installing an
// OnSeal hook on its page set(s) makes every sealed page flow to the hook
// (an exchange channel) the moment it fills, and CloseStream flushes the
// final live page(s) when the owning executor thread finishes its chunk.
// The stage driver calls CloseStream on the producing thread, so a sink's
// whole stream is emitted in (thread, sequence) order. Without a hook
// CloseStream is a no-op and the sink behaves like any other.
type StreamSink interface {
	Sink
	CloseStream() error
}

// CombineFn merges an incoming aggregation value into the current value for
// a key (the paper's "the existing value is added to the new value").
// Handle-valued aggregates allocate their state with a.
type CombineFn func(a *object.Allocator, cur object.Value, exists bool, next object.Value) (object.Value, error)

// OutputSink writes result objects into output pages, each holding a root
// Vector<Handle>. Objects already allocated on the live output page are
// appended with a same-page handle write; objects on other pages (identity
// projections of input data, or stragglers on a just-sealed zombie page) are
// deep-copied by the handle-assignment rule.
type OutputSink struct {
	Out *OutputPageSet
}

// NewOutputSink creates an output sink writing pages of the given size.
func NewOutputSink(reg *object.Registry, pageSize int, pool *object.PagePool, stats *Stats) (*OutputSink, error) {
	ops, err := NewOutputPageSet(reg, pageSize, initRootVector, pool, stats)
	if err != nil {
		return nil, err
	}
	return &OutputSink{Out: ops}, nil
}

func initRootVector(a *object.Allocator, p *object.Page) error {
	v, err := object.MakeVector(a, object.KHandle, 0)
	if err != nil {
		return err
	}
	v.Retain()
	p.SetRoot(v.Off)
	return nil
}

// Consume appends the statement's applied column (result objects) to the
// live page's root vector, rotating on page-full.
func (s *OutputSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	if len(stmt.Applied.Cols) != 1 {
		return fmt.Errorf("engine: OUTPUT consumes one column, got %v", stmt.Applied.Cols)
	}
	col := vl.Col(stmt.Applied.Cols[0])
	rc, ok := col.(RefCol)
	if !ok {
		return fmt.Errorf("engine: OUTPUT column %q must hold objects", stmt.Applied.Cols[0])
	}
	for _, r := range rc {
		if err := appendToRoot(s.Out, r); err != nil {
			return err
		}
	}
	return nil
}

// appendToRoot appends r to the root vector of out's live page, rotating
// once on page-full.
func appendToRoot(out *OutputPageSet, r object.Ref) error {
	root := object.AsVector(object.Ref{Page: out.Live, Off: out.Live.Root()})
	err := root.PushBackHandle(out.Alloc, r)
	if !errors.Is(err, object.ErrPageFull) {
		return err
	}
	if err := out.Rotate(); err != nil {
		return err
	}
	root = object.AsVector(object.Ref{Page: out.Live, Off: out.Live.Root()})
	if err := root.PushBackHandle(out.Alloc, r); err != nil {
		return fmt.Errorf("engine: object does not fit on an empty page: %w", err)
	}
	return nil
}

// Pages returns the output pages.
func (s *OutputSink) Pages() []*object.Page { return s.Out.Pages() }

// CloseStream flushes the final live page through the page set's OnSeal
// hook (no-op without one).
func (s *OutputSink) CloseStream() error { return s.Out.CloseStream() }

// AggSink pre-aggregates (key, value) pairs into per-hash-partition PC Map
// objects held on output pages — the producing stage of distributed
// aggregation (paper Appendix D.2, Figure 5). Each live page's root is a
// Vector<Handle<Map>> with one map per partition, so a filled page ships to
// the shuffle as raw bytes.
//
// A sink has two ways to fold a pair into its map, and both write the same
// bytes. The boxed one (updateAggEntry) serves every spec. The typed one
// (object.ScalarSlots.Fold) runs when the spec declares a Fold over scalar
// slots and the pairs arrive unboxed — an I64Col key column with an I64Col
// or F64Col of the spec's value kind; any other batch under the same spec
// takes the boxed path.
//
// A partition's map that moves to a fresh page starts at the slot count it
// had reached on the page before (the first page's maps start at 8). Every
// block is a region, so a map that doubles in place leaves its outgrown slot
// array on the page, and the array ships with it: a map that started small
// on every page would climb the doubling chain, and ship it, once a page.
type AggSink struct {
	Out        *OutputPageSet
	Partitions int
	KeyKind    object.Kind
	ValKind    object.Kind
	Combine    CombineFn

	// KeyCol and ValCol name the columns Consume reads each row's key and
	// value from.
	KeyCol, ValCol string

	// fold is the spec's Fold when its maps have scalar slots, else 0.
	fold object.FoldOp

	// rotateAt keeps headroom on the live page so a single map update
	// (rehash, key allocation, combined-state allocation) rarely faults
	// mid-write; when it does fault anyway, the row is redone from scratch
	// on a fresh page. Partial aggregates split across pages are merged
	// downstream, which is sound because the combine is associative.
	rotateAt uint32

	// slots is each partition map's slot count on the live page: set when
	// initMaps makes the maps and whenever one rehashes, so it is current
	// before the page seals and nothing is read off a page OnSeal was
	// handed.
	slots []int

	// partCache (slotCache for a typed sink) holds the live page's resolved
	// per-partition maps so the per-row path skips root-vector resolution;
	// rebuilt after each page rotation (the maps move to a fresh page).
	partCache []object.OMap
	slotCache []object.ScalarSlots
	cachePage *object.Page

	stats *Stats
}

// NewAggSink creates a pre-aggregation sink for spec, reading each batch's
// keys and values from the named columns.
func NewAggSink(reg *object.Registry, pageSize, partitions int, spec *AggSpec,
	keyCol, valCol string, pool *object.PagePool, stats *Stats) (*AggSink, error) {
	combine, err := spec.Combiner()
	if err != nil {
		return nil, err
	}
	s := &AggSink{Partitions: partitions, KeyKind: spec.KeyKind, ValKind: spec.ValKind,
		Combine: combine, KeyCol: keyCol, ValCol: valCol, stats: stats,
		rotateAt: uint32(min(pageSize/8, 4096)), slots: make([]int, partitions)}
	for i := range s.slots {
		s.slots[i] = 8
	}
	if spec.scalarSlots() {
		s.fold = spec.Fold
	}
	ops, err := NewOutputPageSet(reg, pageSize,
		func(a *object.Allocator, p *object.Page) error { return s.initMaps(a, p) }, pool, stats)
	if err != nil {
		return nil, err
	}
	s.Out = ops
	return s, nil
}

func (s *AggSink) initMaps(a *object.Allocator, p *object.Page) error {
	root, err := object.MakeVector(a, object.KHandle, s.Partitions)
	if err != nil {
		return err
	}
	root.Retain()
	s.fitSlots(p.Remaining())
	for i := 0; i < s.Partitions; i++ {
		m, err := object.MakeMap(a, s.KeyKind, s.ValKind, s.slots[i])
		if err != nil {
			return err
		}
		if err := root.PushBackHandle(a, m.Ref); err != nil {
			return err
		}
	}
	p.SetRoot(root.Off)
	return nil
}

// mapFixedBytes bounds what a map costs on a page beside its slot array: the
// header and array objects' headers, the map header and alignment.
const mapFixedBytes = 64

// fitSlots halves the slot counts until maps made at them fit in free bytes
// with rotateAt to spare (no count drops below 8). Maps that left less than
// rotateAt would rotate the page on every row, and the counts one small page
// with many partitions reached can fill most of the next.
func (s *AggSink) fitSlots(free uint32) {
	slotBytes := uint64(4 + s.KeyKind.Size() + s.ValKind.Size())
	for {
		need, halvable := uint64(s.rotateAt), false
		for _, n := range s.slots {
			need += uint64(n)*slotBytes + mapFixedBytes
			halvable = halvable || n > 8
		}
		if need <= uint64(free) || !halvable {
			return
		}
		for i, n := range s.slots {
			s.slots[i] = max(n/2, 8)
		}
	}
}

// resolveParts re-reads the live page's partition maps after a rotation.
func (s *AggSink) resolveParts() {
	root := object.AsVector(object.Ref{Page: s.Out.Live, Off: s.Out.Live.Root()})
	s.partCache, s.slotCache = s.partCache[:0], s.slotCache[:0]
	for p := 0; p < s.Partitions; p++ {
		m := object.AsMap(root.HandleAt(p))
		s.partCache = append(s.partCache, m)
		if s.fold != 0 {
			slots, _ := m.ScalarSlots(s.ValKind) // initMaps made it with the spec's kinds
			s.slotCache = append(s.slotCache, slots)
		}
	}
	s.cachePage = s.Out.Live
}

func (s *AggSink) partitionMap(i int) object.OMap {
	if s.cachePage != s.Out.Live {
		s.resolveParts()
	}
	return s.partCache[i]
}

func (s *AggSink) partitionSlots(i int) *object.ScalarSlots {
	if s.cachePage != s.Out.Live {
		s.resolveParts()
	}
	return &s.slotCache[i]
}

// Consume folds each (key, value) row into its partition's map.
func (s *AggSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	keyCol := vl.Col(s.KeyCol)
	valCol := vl.Col(s.ValCol)
	if keyCol == nil || valCol == nil {
		return fmt.Errorf("engine: AGGREGATE needs columns %q and %q", s.KeyCol, s.ValCol)
	}
	// The batch's keys and values may be objects the kernels allocated on
	// the live page (Ctx.Out is this sink's page set). A page that seals
	// mid-batch is therefore kept back from OnSeal until the batch is
	// folded: the exchange may deliver, fold and recycle a page it was
	// handed while later rows still read their values off it.
	s.Out.holdSeals = true
	if err := s.consume(keyCol, valCol); err != nil {
		s.Out.holdSeals = false
		return err
	}
	return s.Out.releaseSeals()
}

func (s *AggSink) consume(keyCol, valCol Column) error {
	if keys, ok := keyCol.(I64Col); ok && s.fold != 0 {
		// The value column must be the spec's own kind, unboxed: an I64Col
		// feeding a float map (or the reverse) is converted by the boxed
		// path's writes and must not be read as raw bits here.
		switch vals := valCol.(type) {
		case I64Col:
			if s.ValKind == object.KInt64 {
				for i, k := range keys {
					if err := s.foldWithRotate(k, uint64(vals[i])); err != nil {
						return err
					}
				}
				return nil
			}
		case F64Col:
			if s.ValKind == object.KFloat64 {
				for i, k := range keys {
					if err := s.foldWithRotate(k, math.Float64bits(vals[i])); err != nil {
						return err
					}
				}
				return nil
			}
		}
	}
	n := keyCol.Len()
	for i := 0; i < n; i++ {
		if err := s.updateWithRotate(keyCol.Value(i), valCol.Value(i)); err != nil {
			return err
		}
	}
	return nil
}

// partitionHash routes a key to its consuming partition via LogicalKeyHash,
// so a logical key lands in the same partition regardless of which page its
// bytes live on.
func (s *AggSink) partitionHash(key object.Value) uint64 {
	return LogicalKeyHash(s.Out.Reg, s.KeyKind, key)
}

func (s *AggSink) updateWithRotate(key, val object.Value) error {
	if s.Out.Live.Remaining() < s.rotateAt {
		if err := s.Out.Rotate(); err != nil {
			return err
		}
	}
	part := int(s.partitionHash(key) % uint64(s.Partitions))

	err := s.updateEntry(part, key, val)
	if !errors.Is(err, object.ErrPageFull) {
		return err
	}
	if err := s.Out.Rotate(); err != nil {
		return err
	}
	if err := s.updateEntry(part, key, val); err != nil {
		return fmt.Errorf("engine: aggregation entry does not fit on an empty page: %w", err)
	}
	return nil
}

// foldWithRotate is updateWithRotate for an unboxed pair under a typed
// spec (val is the value's 8 stored bytes): the same rotation rule, one hash
// for the partition route and the probe, the same redo on a fresh page.
func (s *AggSink) foldWithRotate(key int64, val uint64) error {
	if s.Out.Live.Remaining() < s.rotateAt {
		if err := s.Out.Rotate(); err != nil {
			return err
		}
	}
	h := object.HashInt64(key)
	part := int(h % uint64(s.Partitions))

	err := s.foldEntry(part, h, key, val)
	if !errors.Is(err, object.ErrPageFull) {
		return err
	}
	if err := s.Out.Rotate(); err != nil {
		return err
	}
	if err := s.foldEntry(part, h, key, val); err != nil {
		return fmt.Errorf("engine: aggregation entry does not fit on an empty page: %w", err)
	}
	return nil
}

// updateEntry folds a boxed pair into partition part's map; a rehash
// updates the partition's slot count.
func (s *AggSink) updateEntry(part int, key, val object.Value) error {
	m := s.partitionMap(part)
	grown, err := updateAggEntry(m, s.Out.Alloc, key, val, s.Combine, s.stats)
	if grown {
		s.slots[part] = m.Slots()
	}
	return err
}

// foldEntry counts what updateAggEntry counts: a probe per attempt, a
// resize per rehash. A rehash updates the partition's slot count.
func (s *AggSink) foldEntry(part int, h uint64, key int64, val uint64) error {
	slots := s.partitionSlots(part)
	grown, err := slots.Fold(s.Out.Alloc, h, key, val, s.fold)
	if grown {
		s.slots[part] = slots.Slots()
	}
	if s.stats != nil {
		s.stats.HashProbes++
		if grown {
			s.stats.HashResizes++
		}
	}
	return err
}

// Pages returns the pre-aggregated map pages.
func (s *AggSink) Pages() []*object.Page { return s.Out.Pages() }

// CloseStream flushes the final live map page through the page set's
// OnSeal hook (no-op without one). Streaming producers ship even an
// empty-map page, matching the barrier artifact contract (a worker with no
// input still contributes one page of empty partition maps).
func (s *AggSink) CloseStream() error { return s.Out.CloseStream() }

// JoinBuildSink builds the probe hash table for one join input (the
// BuildHashTableJobStage's terminal). The table references objects on their
// pages — input pages, or the pipeline's own output pages when a fused
// upstream projection allocated the build objects — which the engine keeps
// pinned for the duration of the join, mirroring the paper's careful page
// usage (§6.5). The sink records which pages the table references so the
// stage driver can recycle its scratch output pages that hold only dead
// kernel intermediates.
type JoinBuildSink struct {
	Table   *JoinTable
	HashCol string
	ObjCol  string

	// KeyCol, when set, puts the sink in key-set mode (semi/anti join
	// build): Consume reads that column's key VALUES into the table's
	// key set and HashCol/ObjCol are unused.
	KeyCol string

	refPages map[*object.Page]struct{}
	lastPage *object.Page
}

// NewJoinBuildSink creates a build sink reading the given hash and object
// columns.
func NewJoinBuildSink(hashCol, objCol string) *JoinBuildSink {
	return &JoinBuildSink{Table: NewJoinTable(), HashCol: hashCol, ObjCol: objCol,
		refPages: map[*object.Page]struct{}{}}
}

// NewKeySetBuildSink creates a semi/anti join build sink collecting the
// given column's key values into a key-set table.
func NewKeySetBuildSink(keyCol string) *JoinBuildSink {
	return &JoinBuildSink{Table: NewKeySetTable(), KeyCol: keyCol,
		refPages: map[*object.Page]struct{}{}}
}

// Consume inserts every (hash, object) row into the table (key-set mode:
// every key value).
func (s *JoinBuildSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	if s.KeyCol != "" {
		kc := vl.Col(s.KeyCol)
		if kc == nil {
			return fmt.Errorf("engine: join build key column %q missing", s.KeyCol)
		}
		n := kc.Len()
		for i := 0; i < n; i++ {
			s.Table.AddKey(kc.Value(i))
		}
		if ctx != nil && ctx.Stats != nil {
			ctx.Stats.HashProbes += n
		}
		return nil
	}
	hc, ok := vl.Col(s.HashCol).(U64Col)
	if !ok {
		return fmt.Errorf("engine: join build hash column %q missing or mistyped", s.HashCol)
	}
	oc, ok := vl.Col(s.ObjCol).(RefCol)
	if !ok {
		return fmt.Errorf("engine: join build object column %q missing or mistyped", s.ObjCol)
	}
	resizesBefore := s.Table.Resizes()
	for i, h := range hc {
		r := oc[i]
		// Page-run cache: batches reference long runs of the same page,
		// so the map insert is off the per-row path.
		if r.Page != s.lastPage && r.Page != nil {
			s.lastPage = r.Page
			s.refPages[r.Page] = struct{}{}
		}
		s.Table.Add(h, r)
	}
	if ctx != nil && ctx.Stats != nil {
		ctx.Stats.HashProbes += len(hc)
		ctx.Stats.HashResizes += int(s.Table.Resizes() - resizesBefore)
	}
	return nil
}

// References reports whether the built table holds a handle into p (such a
// page must stay live as long as the table).
func (s *JoinBuildSink) References(p *object.Page) bool {
	_, ok := s.refPages[p]
	return ok
}

// Pages is empty: the build table is worker-transient state.
func (s *JoinBuildSink) Pages() []*object.Page { return nil }

// RepartitionSink materializes (hash, object) rows into per-partition output
// pages for shuffling: partition p's pages hold root vectors of the objects
// whose join-key hash lands in p. This is the data-repartition job stage of
// the paper's 2n-stage distributed join (Appendix D.3).
type RepartitionSink struct {
	Parts   []*OutputPageSet
	HashCol string
	ObjCol  string
}

// NewRepartitionSink creates one output page set per partition.
func NewRepartitionSink(reg *object.Registry, pageSize, partitions int, hashCol, objCol string, pool *object.PagePool, stats *Stats) (*RepartitionSink, error) {
	s := &RepartitionSink{HashCol: hashCol, ObjCol: objCol}
	for i := 0; i < partitions; i++ {
		ops, err := NewOutputPageSet(reg, pageSize, initRootVector, pool, stats)
		if err != nil {
			return nil, err
		}
		s.Parts = append(s.Parts, ops)
	}
	return s, nil
}

// Consume routes each object to its hash partition's pages.
func (s *RepartitionSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	hc, ok := vl.Col(s.HashCol).(U64Col)
	if !ok {
		return fmt.Errorf("engine: repartition hash column %q missing or mistyped", s.HashCol)
	}
	oc, ok := vl.Col(s.ObjCol).(RefCol)
	if !ok {
		return fmt.Errorf("engine: repartition object column %q missing or mistyped", s.ObjCol)
	}
	for i, h := range hc {
		part := s.Parts[PartitionOf(h, len(s.Parts))]
		if err := appendToRoot(part, oc[i]); err != nil {
			return err
		}
	}
	return nil
}

// PartitionOf is the partition, of n, that key hash h routes to: the rule
// RepartitionSink places every row by, and the one a co-partitioned join
// checks stored rows against.
func PartitionOf(h uint64, n int) int { return int(h % uint64(n)) }

// SetOnSeal streams every partition's sealed pages through fn (tagged with
// the partition, so the caller can route each page to the worker owning
// it). Install before consuming any rows.
func (s *RepartitionSink) SetOnSeal(fn func(part int, p *object.Page) error) {
	for i, ops := range s.Parts {
		i := i
		ops.OnSeal = func(p *object.Page) error { return fn(i, p) }
	}
}

// CloseStream flushes every partition's final live page through its OnSeal
// hook, in partition order (no-op without hooks).
func (s *RepartitionSink) CloseStream() error {
	for _, ops := range s.Parts {
		if err := ops.CloseStream(); err != nil {
			return err
		}
	}
	return nil
}

// PartitionPages returns partition p's pages.
func (s *RepartitionSink) PartitionPages(p int) []*object.Page { return s.Parts[p].Pages() }

// Pages returns all partitions' pages.
func (s *RepartitionSink) Pages() []*object.Page {
	var out []*object.Page
	for _, p := range s.Parts {
		out = append(out, p.Pages()...)
	}
	return out
}
