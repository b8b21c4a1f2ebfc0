package engine

// Distributed ORDER BY / top-k, and the window-style running aggregate that
// rides it. The operator is a merge network over sorted runs:
//
//	executor thread   -> SortSink      : one sorted run (SortRow pages)
//	worker            -> SortMerger    : its threads' runs -> one run
//	consumer          -> SortMerger    : the workers' runs -> final order
//
// Rows travel between the layers as SortRow carrier objects — a
// memcomparable key string plus the original object — so every merge layer
// compares plain strings and the sealed run pages ARE the wire format, like
// every other shuffle in the system. Determinism: each run is sorted
// stably by (key, arrival), runs are merged with a lowest-run-index
// tie-break, and runs are numbered in source order, so any split of the
// input into runs (threads, workers) merges to the byte-identical
// stable order.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/storage"
	"repro/internal/tcap"
)

// SortRowTypeName names the carrier type sort runs are made of.
const SortRowTypeName = "pc.SortRow"

// SortRowType returns (registering on first use) the SortRow carrier type:
// the encoded sort key, the original object, and an optional window value
// (vk holds the value's kind, vi/vf its payload). Registration is
// idempotent per registry, and unknown codes on shipped run pages resolve
// through the registry's Miss hook like any user type.
func SortRowType(reg *object.Registry) *object.TypeInfo {
	if ti := reg.LookupName(SortRowTypeName); ti != nil {
		return ti
	}
	return object.NewStruct(SortRowTypeName).
		AddField("key", object.KString).
		AddField("obj", object.KHandle).
		AddField("vk", object.KInt32).
		AddField("vi", object.KInt64).
		AddField("vf", object.KFloat64).
		MustBuild(reg)
}

// EncodeSortKey encodes one row's key values into a single memcomparable
// string: byte-wise comparison of encoded keys equals the tuple ordering
// (object.Value.Less per column, NULLs first, descending columns
// inverted). Each segment is a presence byte (0x00 for a NULL — sorting
// first — 0x01 otherwise), a kind tag, and a payload: integers as
// sign-biased big-endian, floats via the IEEE sign trick, strings
// 0x00-escaped and terminated. A descending column XORs its whole segment.
func EncodeSortKey(vals []object.Value, desc []bool) (string, error) {
	buf := make([]byte, 0, 16*len(vals))
	for i, v := range vals {
		start := len(buf)
		var err error
		buf, err = appendKeySegment(buf, v)
		if err != nil {
			return "", err
		}
		if i < len(desc) && desc[i] {
			for j := start; j < len(buf); j++ {
				buf[j] ^= 0xFF
			}
		}
	}
	return string(buf), nil
}

func appendKeySegment(buf []byte, v object.Value) ([]byte, error) {
	if v.K == object.KInvalid {
		return append(buf, 0x00), nil
	}
	buf = append(buf, 0x01)
	switch v.K {
	case object.KBool:
		buf = append(buf, 0x01)
		if v.B {
			return append(buf, 1), nil
		}
		return append(buf, 0), nil
	case object.KInt32, object.KInt64:
		buf = append(buf, 0x02)
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		return append(buf, b[:]...), nil
	case object.KFloat64:
		buf = append(buf, 0x03)
		f := v.F
		if f == 0 {
			f = 0 // normalize -0.0 so equal keys encode identically
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(buf, b[:]...), nil
	case object.KString:
		buf = append(buf, 0x04)
		for i := 0; i < len(v.S); i++ {
			if v.S[i] == 0x00 {
				buf = append(buf, 0x00, 0x01)
			} else {
				buf = append(buf, v.S[i])
			}
		}
		return append(buf, 0x00, 0x00), nil
	default:
		return nil, fmt.Errorf("engine: unsupported sort key kind %v", v.K)
	}
}

// AppendSortRow materializes one (key, obj, val) row as a SortRow object on
// out's live page and appends it to the root vector, rotating on page-full
// (the deep-copy handle rule carries obj onto the run page, so runs are
// self-contained and shippable).
func AppendSortRow(out *OutputPageSet, ti *object.TypeInfo, key string, obj object.Ref, val object.Value) error {
	try := func() error {
		r, err := out.Alloc.MakeObject(ti)
		if err != nil {
			return err
		}
		if err := object.SetStrField(out.Alloc, r, ti.Field("key"), key); err != nil {
			return err
		}
		if err := object.SetHandleField(out.Alloc, r, ti.Field("obj"), obj); err != nil {
			return err
		}
		object.SetI32(r, ti.Field("vk"), int32(val.K))
		switch val.K {
		case object.KInvalid:
		case object.KBool:
			if val.B {
				object.SetI64(r, ti.Field("vi"), 1)
			}
		case object.KInt32, object.KInt64:
			object.SetI64(r, ti.Field("vi"), val.I)
		case object.KFloat64:
			object.SetF64(r, ti.Field("vf"), val.F)
		default:
			return fmt.Errorf("engine: unsupported sort row value kind %v", val.K)
		}
		root := object.AsVector(object.Ref{Page: out.Live, Off: out.Live.Root()})
		return root.PushBackHandle(out.Alloc, r)
	}
	err := try()
	if !errors.Is(err, object.ErrPageFull) {
		return err
	}
	if err := out.Rotate(); err != nil {
		return err
	}
	if err := try(); err != nil {
		return fmt.Errorf("engine: sort row does not fit on an empty run page: %w", err)
	}
	return nil
}

// ReadSortRow decodes a SortRow object back into (key, obj, val).
func ReadSortRow(ti *object.TypeInfo, r object.Ref) (string, object.Ref, object.Value) {
	key := object.GetStrField(r, ti.Field("key"))
	obj := object.GetHandleField(r, ti.Field("obj"))
	var val object.Value
	switch object.Kind(object.GetI32(r, ti.Field("vk"))) {
	case object.KBool:
		val = object.BoolValue(object.GetI64(r, ti.Field("vi")) != 0)
	case object.KInt32, object.KInt64:
		val = object.Int64Value(object.GetI64(r, ti.Field("vi")))
	case object.KFloat64:
		val = object.Float64Value(object.GetF64(r, ti.Field("vf")))
	}
	return key, obj, val
}

// AppendToRoot appends an object handle to out's live root vector with the
// usual rotate-on-full discipline (exported for the sort-merge consumers
// materializing final output pages).
func AppendToRoot(out *OutputPageSet, r object.Ref) error { return appendToRoot(out, r) }

// sortRow is one buffered row awaiting the run sort.
type sortRow struct {
	key string
	obj object.Ref
	val object.Value
	seq int // arrival order; the stability tie-break
}

// SortSink buffers a pipeline's rows and emits them as ONE sorted run of
// SortRow pages when its stream closes — the per-thread leaf of the merge
// network. With Limit > 0 it keeps a bounded heap of the Limit smallest
// rows (the top-k fast path: memory is O(k) whatever the input size).
// Without a limit, an optional spill threshold bounds memory by sealing
// sorted sub-runs to a SpillPool and merging them back at close.
type SortSink struct {
	Out     *OutputPageSet
	KeyCols []string
	ObjCol  string
	ValCol  string // "" unless a window aggregate rides the sort
	Desc    []bool
	Limit   int

	// SpillThreshold (rows) bounds the in-memory buffer when Limit == 0;
	// 0 means never spill. Spill must be set when the threshold is.
	SpillThreshold int
	Spill          *storage.SpillPool
	Fault          *fault.Plan
	Worker         int

	ti      *object.TypeInfo
	rows    []sortRow
	seq     int
	spilled [][]int // sealed sub-runs, as spill-slot lists in seal order
	stats   *Stats
	pool    *object.PagePool
}

// NewRunPageSet creates an output page set whose pages carry SortRow runs
// (root vector of SortRow handles) — the page shape SortSink emits and
// SortMerger consumes. Cluster code uses it to re-materialize a worker's
// merged run for streaming over the exchange.
func NewRunPageSet(reg *object.Registry, pageSize int, pool *object.PagePool, stats *Stats) (*OutputPageSet, error) {
	return NewOutputPageSet(reg, pageSize, object.PolicyLightweightReuse, initRootVector, pool, stats)
}

// NewSortSink creates a sort sink emitting runs of pageSize pages.
func NewSortSink(reg *object.Registry, pageSize int, keyCols []string, objCol, valCol string,
	desc []bool, limit int, pool *object.PagePool, stats *Stats) (*SortSink, error) {
	ops, err := NewOutputPageSet(reg, pageSize, object.PolicyLightweightReuse, initRootVector, pool, stats)
	if err != nil {
		return nil, err
	}
	return &SortSink{Out: ops, KeyCols: keyCols, ObjCol: objCol, ValCol: valCol,
		Desc: desc, Limit: limit, ti: SortRowType(reg), stats: stats, pool: pool}, nil
}

// Consume buffers each row's (encoded key, object, optional value).
func (s *SortSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	oc, ok := vl.Col(s.ObjCol).(RefCol)
	if !ok {
		return fmt.Errorf("engine: sort object column %q missing or mistyped", s.ObjCol)
	}
	keyCols := make([]Column, len(s.KeyCols))
	for i, name := range s.KeyCols {
		if keyCols[i] = vl.Col(name); keyCols[i] == nil {
			return fmt.Errorf("engine: sort key column %q missing", name)
		}
	}
	var valCol Column
	if s.ValCol != "" {
		if valCol = vl.Col(s.ValCol); valCol == nil {
			return fmt.Errorf("engine: sort value column %q missing", s.ValCol)
		}
	}
	vals := make([]object.Value, len(keyCols))
	for i := range oc {
		for k, c := range keyCols {
			vals[k] = c.Value(i)
		}
		key, err := EncodeSortKey(vals, s.Desc)
		if err != nil {
			return err
		}
		row := sortRow{key: key, obj: oc[i], seq: s.seq}
		s.seq++
		if valCol != nil {
			row.val = valCol.Value(i)
		}
		if s.Limit > 0 {
			s.pushBounded(row)
			continue
		}
		s.rows = append(s.rows, row)
		if s.SpillThreshold > 0 && len(s.rows) >= s.SpillThreshold {
			if err := s.spillRun(); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowLess orders rows by (key, arrival) — the stable sort order.
func rowLess(a, b sortRow) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// pushBounded maintains a max-heap of the Limit smallest (key, seq) rows:
// evicting the largest is exactly stable-sort-then-truncate.
func (s *SortSink) pushBounded(row sortRow) {
	if len(s.rows) < s.Limit {
		s.rows = append(s.rows, row)
		s.siftUp(len(s.rows) - 1)
		return
	}
	if !rowLess(row, s.rows[0]) {
		return // not smaller than the current k-th: drop
	}
	s.rows[0] = row
	s.siftDown(0)
}

func (s *SortSink) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !rowLess(s.rows[p], s.rows[i]) {
			return
		}
		s.rows[i], s.rows[p] = s.rows[p], s.rows[i]
		i = p
	}
}

func (s *SortSink) siftDown(i int) {
	n := len(s.rows)
	for {
		l, r, big := 2*i+1, 2*i+2, i
		if l < n && rowLess(s.rows[big], s.rows[l]) {
			big = l
		}
		if r < n && rowLess(s.rows[big], s.rows[r]) {
			big = r
		}
		if big == i {
			return
		}
		s.rows[i], s.rows[big] = s.rows[big], s.rows[i]
		i = big
	}
}

// spillRun seals the in-memory buffer as one sorted sub-run in the spill
// pool. The SortSpill fault site fires before the first slot write, so a
// crashed producer's retry re-spills from scratch with nothing leaked; an
// injected SpillWrite error frees the sub-run's already-written slots
// before surfacing, so a failed job leaks no slots either.
func (s *SortSink) spillRun() error {
	if len(s.rows) == 0 {
		return nil
	}
	s.Fault.Hit(fault.SortSpill, s.Worker)
	sort.SliceStable(s.rows, func(i, j int) bool { return rowLess(s.rows[i], s.rows[j]) })
	run, err := NewOutputPageSet(s.Out.Reg, s.Out.PageSize, object.PolicyLightweightReuse, initRootVector, s.pool, s.stats)
	if err != nil {
		return err
	}
	for _, row := range s.rows {
		if err := AppendSortRow(run, s.ti, row.key, row.obj, row.val); err != nil {
			return err
		}
	}
	var slots []int
	for _, p := range run.Pages() {
		if err := s.Fault.ErrAt(fault.SpillWrite, s.Worker); err != nil {
			s.freeSlots(slots)
			return err
		}
		slot, err := s.Spill.Spill(p)
		if err != nil {
			s.freeSlots(slots)
			return err
		}
		slots = append(slots, slot)
	}
	s.spilled = append(s.spilled, slots)
	s.rows = s.rows[:0]
	return nil
}

func (s *SortSink) freeSlots(slots []int) {
	for _, slot := range slots {
		s.Spill.Free(slot)
	}
}

// ReleaseSpilled frees every sub-run slot still held (the failure path's
// zero-leak guarantee; a successful Finish already freed them).
func (s *SortSink) ReleaseSpilled() {
	for _, slots := range s.spilled {
		s.freeSlots(slots)
	}
	s.spilled = nil
}

// Finish sorts the buffered rows and materializes the sink's single output
// run onto Out, merging any spilled sub-runs back in (loads free their
// slots immediately, so success leaves zero live slots).
func (s *SortSink) Finish() error {
	sort.SliceStable(s.rows, func(i, j int) bool { return rowLess(s.rows[i], s.rows[j]) })
	if len(s.spilled) == 0 {
		for _, row := range s.rows {
			if err := AppendSortRow(s.Out, s.ti, row.key, row.obj, row.val); err != nil {
				return err
			}
		}
		s.rows = nil
		return nil
	}
	// Load the spilled sub-runs (sealed in arrival order, so run index
	// remains the stability tie-break) and merge with the final buffer.
	runs := make([][]*object.Page, 0, len(s.spilled)+1)
	for _, slots := range s.spilled {
		var pages []*object.Page
		for _, slot := range slots {
			if err := s.Fault.ErrAt(fault.SpillRead, s.Worker); err != nil {
				s.ReleaseSpilled()
				return err
			}
			p, err := s.Spill.Load(slot)
			if err != nil {
				s.ReleaseSpilled()
				return err
			}
			pages = append(pages, p)
		}
		runs = append(runs, pages)
	}
	s.ReleaseSpilled()
	mem, err := NewOutputPageSet(s.Out.Reg, s.Out.PageSize, object.PolicyLightweightReuse, initRootVector, s.pool, s.stats)
	if err != nil {
		return err
	}
	for _, row := range s.rows {
		if err := AppendSortRow(mem, s.ti, row.key, row.obj, row.val); err != nil {
			return err
		}
	}
	s.rows = nil
	runs = append(runs, mem.Pages())
	m := NewSortMerger(s.Out.Reg, runs, 0)
	for {
		key, obj, val, ok := m.Next()
		if !ok {
			break
		}
		if err := AppendSortRow(s.Out, s.ti, key, obj, val); err != nil {
			return err
		}
	}
	return nil
}

// Pages returns the run pages (valid after Finish/CloseStream).
func (s *SortSink) Pages() []*object.Page { return s.Out.Pages() }

// CloseStream finalizes the run (the stage driver calls this on the owning
// thread when its chunk completes) and flushes it through the
// page set's OnSeal hook if one is installed.
func (s *SortSink) CloseStream() error {
	if err := s.Finish(); err != nil {
		return err
	}
	return s.Out.CloseStream()
}

// RunPos is one run's merge cursor: the next element to emit, as a
// (page, element) pair over the run's root vectors. It is the unit of
// sort-merge checkpoint state.
type RunPos struct {
	Page int `json:"page"`
	Elem int `json:"elem"`
}

// SortMerger merges N sorted SortRow runs into the global order: at each
// step it emits the smallest (key, run index) head — runs are numbered in
// source order, so the merge is exactly the stable sort of the whole
// input. A Limit > 0 stops after that many rows (top-k). The cursor
// vector is exposed for checkpointing: a consumer snapshots Cursor() at a
// cut and a restarted merge Restore()s it and continues bit-for-bit.
type SortMerger struct {
	ti      *object.TypeInfo
	runs    [][]*object.Page
	pos     []RunPos
	limit   int
	emitted int
}

// NewSortMerger builds a merger over runs (each a page list in run order).
func NewSortMerger(reg *object.Registry, runs [][]*object.Page, limit int) *SortMerger {
	m := &SortMerger{ti: SortRowType(reg), runs: runs, pos: make([]RunPos, len(runs)), limit: limit}
	for i := range m.pos {
		m.skipEmpty(i)
	}
	return m
}

// skipEmpty advances run i's cursor past empty or exhausted pages.
func (m *SortMerger) skipEmpty(i int) {
	p := &m.pos[i]
	for p.Page < len(m.runs[i]) {
		pg := m.runs[i][p.Page]
		if pg.Root() != 0 && p.Elem < object.AsVector(object.Ref{Page: pg, Off: pg.Root()}).Len() {
			return
		}
		p.Page++
		p.Elem = 0
	}
}

// head returns run i's current row, or ok=false when exhausted.
func (m *SortMerger) head(i int) (string, object.Ref, object.Value, bool) {
	p := m.pos[i]
	if p.Page >= len(m.runs[i]) {
		return "", object.Ref{}, object.Value{}, false
	}
	pg := m.runs[i][p.Page]
	root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()})
	key, obj, val := ReadSortRow(m.ti, root.HandleAt(p.Elem))
	return key, obj, val, true
}

// Next emits the next row in global order; ok=false when the merge is done
// (all runs drained, or the limit reached).
func (m *SortMerger) Next() (string, object.Ref, object.Value, bool) {
	if m.limit > 0 && m.emitted >= m.limit {
		return "", object.Ref{}, object.Value{}, false
	}
	best := -1
	var bestKey string
	var bestObj object.Ref
	var bestVal object.Value
	for i := range m.runs {
		key, obj, val, ok := m.head(i)
		if !ok {
			continue
		}
		if best < 0 || key < bestKey {
			best, bestKey, bestObj, bestVal = i, key, obj, val
		}
	}
	if best < 0 {
		return "", object.Ref{}, object.Value{}, false
	}
	m.pos[best].Elem++
	m.skipEmpty(best)
	m.emitted++
	return bestKey, bestObj, bestVal, true
}

// Emitted reports how many rows the merge has produced.
func (m *SortMerger) Emitted() int { return m.emitted }

// Cursor snapshots the merge position (per-run cursors + emitted count).
func (m *SortMerger) Cursor() ([]RunPos, int) {
	return append([]RunPos(nil), m.pos...), m.emitted
}

// Restore rewinds the merge to a snapshot taken by Cursor on a merger
// built over the identical runs.
func (m *SortMerger) Restore(pos []RunPos, emitted int) error {
	if len(pos) != len(m.pos) {
		return fmt.Errorf("engine: sort cursor arity %d != %d runs", len(pos), len(m.runs))
	}
	copy(m.pos, pos)
	m.emitted = emitted
	return nil
}

// WindowSpec describes the running aggregate a WINDOW computation folds
// over the globally sorted stream: Combine accumulates each row's value
// into the running state (the same associative CombineFn aggregations
// use), and Emit materializes the output object for a row given the
// running state after that row.
type WindowSpec struct {
	ValKind object.Kind
	Combine CombineFn
	Emit    func(a *object.Allocator, obj object.Ref, running object.Value) (object.Ref, error)
}
