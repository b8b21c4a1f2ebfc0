package engine

// Distributed ORDER BY / top-k, and the window-style running aggregate that
// rides it. The operator is a merge network over sorted runs:
//
//	executor thread   -> SortSink      : one sorted run (SortRow pages)
//	consumer          -> SortMerger    : every run -> final order
//
// Rows travel between the layers as SortRow carrier objects — a
// memcomparable key string plus the original object — so the merge compares
// plain bytes where they lie on the run page and the sealed run pages ARE
// the wire format, like every other shuffle in the system. Determinism:
// each run is sorted by (key, arrival), runs are merged with a
// lowest-run-index tie-break, and runs are numbered in source order, so any
// split of the input into runs (threads, workers, pages) merges to the
// byte-identical stable order.
//
// The Go heap is touched per run, not per row: a sink buffers keys in one
// byte arena and sorts row indices, and a merger holds one cached head per
// lane in a binary heap.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/object"
	"repro/internal/tcap"
)

// SortRowTypeName names the carrier type sort runs are made of.
const SortRowTypeName = "pc.SortRow"

// The carrier's fields, in the order SortRowType declares them. The order
// is fixed, so the per-row paths index ti.Fields instead of looking each
// name up.
const (
	sortRowKey = iota
	sortRowObj
	sortRowVK
	sortRowVI
	sortRowVF
)

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

// AppendSortKey appends one row's key values to dst as a single
// memcomparable key: byte-wise comparison of encoded keys equals the tuple
// ordering (NULLs first, then object.Value.Less per column, descending
// columns inverted). Each segment is a presence byte (0x00 for a NULL —
// sorting first — 0x01 otherwise), a kind tag, and a payload: integers as
// sign-biased big-endian, floats via the IEEE sign trick, strings
// 0x00-escaped and terminated. A descending column XORs its whole segment.
//
// Floats get a total order where Value.Less has none: -0.0 encodes as +0.0,
// and every NaN, whatever its sign and payload, encodes as one pattern that
// sorts after +Inf ascending (first descending) — so NaN rows tie and keep
// arrival order.
func AppendSortKey(dst []byte, vals []object.Value, desc []bool) ([]byte, error) {
	for i, v := range vals {
		start := len(dst)
		var err error
		if dst, err = appendKeySegment(dst, v); err != nil {
			return nil, err
		}
		if i < len(desc) && desc[i] {
			for j := start; j < len(dst); j++ {
				dst[j] ^= 0xFF
			}
		}
	}
	return dst, nil
}

// EncodeSortKey is AppendSortKey into a fresh Go string, for callers that
// keep keys as strings.
func EncodeSortKey(vals []object.Value, desc []bool) (string, error) {
	var buf [64]byte
	key, err := AppendSortKey(buf[:0], vals, desc)
	return string(key), err
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
		return binary.BigEndian.AppendUint64(buf, uint64(v.I)^(1<<63)), nil
	case object.KFloat64:
		buf = append(buf, 0x03)
		f := v.F
		switch {
		case f == 0:
			f = 0 // -0.0 and +0.0 are equal keys
		case math.IsNaN(f):
			f = math.NaN() // one NaN: positive, so it lands after +Inf
		}
		bits := math.Float64bits(f)
		if bits&(1<<63) != 0 {
			bits = ^bits
		} else {
			bits |= 1 << 63
		}
		return binary.BigEndian.AppendUint64(buf, bits), nil
	case object.KString:
		buf = append(buf, 0x04)
		if v.H.IsNil() {
			return appendEscaped(buf, v.Str()), nil // Go-backed: Str copies nothing
		}
		return appendEscaped(buf, object.StringBytes(v.H)), nil
	default:
		return nil, fmt.Errorf("engine: unsupported sort key kind %v", v.K)
	}
}

// appendEscaped appends a string key segment's contents, a Go string or a
// view of the page: 0x00 is escaped as 0x00 0x01 and 0x00 0x00 terminates,
// so a prefix sorts first.
func appendEscaped[S ~string | ~[]byte](buf []byte, s S) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == 0x00 {
			buf = append(buf, 0x00, 0x01)
		} else {
			buf = append(buf, c)
		}
	}
	return append(buf, 0x00, 0x00)
}

// AppendSortRow materializes one (key, obj, val) row as a SortRow object on
// out's live page and appends it to the root vector, rotating on page-full
// (the deep-copy handle rule carries obj onto the run page, so runs are
// self-contained and shippable).
func AppendSortRow(out *OutputPageSet, ti *object.TypeInfo, key string, obj object.Ref, val object.Value) error {
	return appendSortRow(out, ti, []byte(key), obj, val)
}

func appendSortRow(out *OutputPageSet, ti *object.TypeInfo, key []byte, obj object.Ref, val object.Value) error {
	err := tryAppendSortRow(out, ti, key, obj, val)
	if !errors.Is(err, object.ErrPageFull) {
		return err
	}
	if err := out.Rotate(); err != nil {
		return err
	}
	if err := tryAppendSortRow(out, ti, key, obj, val); err != nil {
		return fmt.Errorf("engine: sort row does not fit on an empty run page: %w", err)
	}
	return nil
}

func tryAppendSortRow(out *OutputPageSet, ti *object.TypeInfo, key []byte, obj object.Ref, val object.Value) error {
	r, err := out.Alloc.MakeObject(ti)
	if err != nil {
		return err
	}
	ks, err := object.MakeStringBytes(out.Alloc, key)
	if err != nil {
		return err
	}
	if err := object.SetHandleField(out.Alloc, r, &ti.Fields[sortRowKey], ks); err != nil {
		return err
	}
	if err := object.SetHandleField(out.Alloc, r, &ti.Fields[sortRowObj], obj); err != nil {
		return err
	}
	object.SetI32(r, &ti.Fields[sortRowVK], int32(val.K))
	switch val.K {
	case object.KInvalid:
	case object.KBool:
		if val.B {
			object.SetI64(r, &ti.Fields[sortRowVI], 1)
		}
	case object.KInt32, object.KInt64:
		object.SetI64(r, &ti.Fields[sortRowVI], val.I)
	case object.KFloat64:
		object.SetF64(r, &ti.Fields[sortRowVF], val.F)
	default:
		return fmt.Errorf("engine: unsupported sort row value kind %v", val.K)
	}
	root := object.AsVector(object.Ref{Page: out.Live, Off: out.Live.Root()})
	return root.PushBackHandle(out.Alloc, r)
}

// readSortRow decodes a SortRow object's payload: the original object and
// the window value.
func readSortRow(ti *object.TypeInfo, r object.Ref) (object.Ref, object.Value) {
	obj := object.GetHandleField(r, &ti.Fields[sortRowObj])
	var val object.Value
	switch object.Kind(object.GetI32(r, &ti.Fields[sortRowVK])) {
	case object.KBool:
		val = object.BoolValue(object.GetI64(r, &ti.Fields[sortRowVI]) != 0)
	case object.KInt32, object.KInt64:
		val = object.Int64Value(object.GetI64(r, &ti.Fields[sortRowVI]))
	case object.KFloat64:
		val = object.Float64Value(object.GetF64(r, &ti.Fields[sortRowVF]))
	}
	return obj, val
}

// SortSink buffers a pipeline's rows and emits them as ONE sorted run of
// SortRow pages when its stream closes — the per-thread leaf of the merge
// network. With Limit > 0 it keeps a bounded heap of the Limit smallest
// rows (the top-k fast path: memory is O(k) whatever the input size).
// Without a limit the whole run is buffered: a thread's share of the
// partition must fit in memory.
type SortSink struct {
	Out     *OutputPageSet
	KeyCols []string
	ObjCol  string
	ValCol  string // "" unless a window aggregate rides the sort
	Desc    []bool
	Limit   int

	ti *object.TypeInfo

	// The buffered rows, one slice per column so that a row is no Go object
	// of its own. Without a limit, encoded keys lie back to back in arena
	// (row i's is arena[offs[i]:offs[i+1]]) and a row's index is its
	// arrival order. order holds row indices; it is all the run sort moves.
	arena []byte
	offs  []int
	objs  []object.Ref
	vals  []object.Value // filled only when ValCol != ""
	order []int32
	// reserved is Reserve's row count until the first key sizes arena.
	reserved int

	// Top-k keeps at most Limit rows, in slots: slot i's key buffer slots[i]
	// is reused when the row is evicted, arrival[i] is its arrival number,
	// and order is a max-heap of slots by (key, arrival). A row that does
	// not make the cut is compared from scratch and never stored.
	slots   [][]byte
	arrival []int
	seen    int
	scratch []byte

	keyCols []Column       // per-batch scratch
	keyVals []object.Value // per-row scratch
}

// NewRunPageSet creates an output page set whose pages carry SortRow runs
// (root vector of SortRow handles) — the page shape SortSink emits and
// SortMerger consumes.
func NewRunPageSet(reg *object.Registry, pageSize int, pool *object.PagePool, stats *Stats) (*OutputPageSet, error) {
	return NewOutputPageSet(reg, pageSize, initRootVector, pool, stats)
}

// NewSortSink creates a sort sink emitting runs of pageSize pages.
func NewSortSink(reg *object.Registry, pageSize int, keyCols []string, objCol, valCol string,
	desc []bool, limit int, pool *object.PagePool, stats *Stats) (*SortSink, error) {
	ops, err := NewRunPageSet(reg, pageSize, pool, stats)
	if err != nil {
		return nil, err
	}
	return &SortSink{Out: ops, KeyCols: keyCols, ObjCol: objCol, ValCol: valCol,
		Desc: desc, Limit: limit, ti: SortRowType(reg), offs: []int{0}}, nil
}

// Consume buffers each row's (encoded key, object, optional value).
func (s *SortSink) Consume(ctx *Ctx, vl *VectorList, stmt *tcap.Stmt) error {
	oc, ok := vl.Col(s.ObjCol).(RefCol)
	if !ok {
		return fmt.Errorf("engine: sort object column %q missing or mistyped", s.ObjCol)
	}
	s.keyCols = s.keyCols[:0]
	for _, name := range s.KeyCols {
		c := vl.Col(name)
		if c == nil {
			return fmt.Errorf("engine: sort key column %q missing", name)
		}
		s.keyCols = append(s.keyCols, c)
	}
	var valCol Column
	if s.ValCol != "" {
		if valCol = vl.Col(s.ValCol); valCol == nil {
			return fmt.Errorf("engine: sort value column %q missing", s.ValCol)
		}
	}
	if len(s.objs)+len(oc) > math.MaxInt32 {
		return fmt.Errorf("engine: sort run exceeds %d buffered rows; spread the input over more Workers or Threads, or give the sort a Limit", math.MaxInt32)
	}
	if s.keyVals == nil {
		s.keyVals = make([]object.Value, len(s.KeyCols))
	}
	for i := range oc {
		for k, c := range s.keyCols {
			s.keyVals[k] = c.Value(i)
		}
		var val object.Value
		if valCol != nil {
			val = valCol.Value(i)
		}
		if s.Limit > 0 {
			if err := s.pushBounded(oc[i], val); err != nil {
				return err
			}
			continue
		}
		arena, err := AppendSortKey(s.arena, s.keyVals, s.Desc)
		if err != nil {
			return err
		}
		if s.reserved > 0 {
			// The first key's length stands for every key of the run.
			arena = slices.Grow(arena, len(arena)*(s.reserved-1))
			s.reserved = 0
		}
		s.arena = arena
		s.offs = append(s.offs, len(arena))
		s.objs = append(s.objs, oc[i])
		if valCol != nil {
			s.vals = append(s.vals, val)
		}
	}
	return nil
}

// Reserve presizes the run for rows more rows — the thread driver passes
// its chunk's row count before the first batch: offs, objs, vals and the
// order Finish sorts exactly, and arena once the first key's length is
// known. A top-k sink keeps at most Limit rows and ignores it.
func (s *SortSink) Reserve(rows int) {
	if s.Limit > 0 || rows <= 0 {
		return
	}
	s.offs = slices.Grow(s.offs, rows)
	s.objs = slices.Grow(s.objs, rows)
	if s.ValCol != "" {
		s.vals = slices.Grow(s.vals, rows)
	}
	s.order = slices.Grow(s.order, len(s.objs)+rows)
	if len(s.objs) == 0 {
		s.reserved = rows
	}
}

// key returns buffered row (or top-k slot) i's encoded key.
func (s *SortSink) key(i int32) []byte {
	if s.Limit > 0 {
		return s.slots[i]
	}
	return s.arena[s.offs[i]:s.offs[i+1]]
}

// cmpRows orders buffered rows by (key, arrival). Arrival makes the order
// total, so an unstable sort over it IS the stable sort of the run.
func (s *SortSink) cmpRows(a, b int32) int {
	if c := bytes.Compare(s.key(a), s.key(b)); c != 0 {
		return c
	}
	if s.Limit > 0 {
		return s.arrival[a] - s.arrival[b]
	}
	return int(a - b)
}

// pushBounded offers the row whose key values sit in keyVals to the max-heap
// of the Limit smallest (key, arrival) rows: evicting the largest is exactly
// stable-sort-then-truncate.
func (s *SortSink) pushBounded(obj object.Ref, val object.Value) error {
	key, err := AppendSortKey(s.scratch[:0], s.keyVals, s.Desc)
	if err != nil {
		return err
	}
	s.scratch = key
	seq := s.seen
	s.seen++
	full := len(s.order) == s.Limit
	var slot int32
	if full {
		// Arrival only grows, so a key tie with the current Limit-th row
		// loses as well.
		if slot = s.order[0]; bytes.Compare(key, s.slots[slot]) >= 0 {
			return nil
		}
	} else {
		slot = int32(len(s.slots))
		s.slots = append(s.slots, nil)
		s.arrival = append(s.arrival, 0)
		s.objs = append(s.objs, object.Ref{})
		if s.ValCol != "" {
			s.vals = append(s.vals, object.Value{})
		}
	}
	s.slots[slot] = append(s.slots[slot][:0], key...)
	s.arrival[slot] = seq
	s.objs[slot] = obj
	if s.ValCol != "" {
		s.vals[slot] = val
	}
	if full {
		siftDown(s.order, 0, s.rowAfter)
	} else {
		s.order = append(s.order, slot)
		siftUp(s.order, len(s.order)-1, s.rowAfter)
	}
	return nil
}

// rowAfter is the max-heap order of the top-k slots: the root is the row
// that sorts last.
func (s *SortSink) rowAfter(a, b int32) bool { return s.cmpRows(a, b) > 0 }

// Finish sorts the buffered rows and materializes them onto Out as the
// sink's single run.
func (s *SortSink) Finish() error {
	defer s.dropRows()
	if s.Limit == 0 {
		s.order = s.order[:0]
		for i := range s.objs {
			s.order = append(s.order, int32(i))
		}
	}
	slices.SortFunc(s.order, s.cmpRows)
	for _, i := range s.order {
		var val object.Value // invalid unless a window value rides the sort
		if s.ValCol != "" {
			val = s.vals[i]
		}
		if err := appendSortRow(s.Out, s.ti, s.key(i), s.objs[i], val); err != nil {
			return err
		}
	}
	return nil
}

// dropRows lets the row buffers go once the run is on pages.
func (s *SortSink) dropRows() {
	s.arena, s.offs, s.objs, s.vals, s.order, s.slots, s.arrival = nil, nil, nil, nil, nil, nil, nil
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

// runPos is one run's merge cursor: the next element to emit, as a
// (page, element) pair over the run's root vectors.
type runPos struct {
	page, elem int
}

// SortMerger merges N sorted SortRow runs (lanes) into the global order: at
// each step it emits the smallest (key, lane index) head — lanes are
// numbered in source order, so the merge is exactly the stable sort of the
// whole input. It is a tournament, not a scan: each lane's head is read
// once per advance and cached as a view of the key bytes on the run page,
// the lanes that still have a row sit in a binary min-heap, and a step
// costs O(log lanes) compares and no allocation. The run pages must stay
// untouched while the merger lives. A Limit > 0 stops after that many rows
// (top-k).
type SortMerger struct {
	ti      *object.TypeInfo
	runs    [][]*object.Page
	pos     []runPos
	heads   []laneHead
	heap    []int32 // lanes with a head, ordered by (head key, lane)
	limit   int
	emitted int
}

// laneHead is a lane's current row: the SortRow carrier and its key bytes,
// both on the run page.
type laneHead struct {
	key []byte
	row object.Ref
}

// NewSortMerger builds a merger over runs (each a page list in run order).
func NewSortMerger(reg *object.Registry, runs [][]*object.Page, limit int) *SortMerger {
	m := &SortMerger{ti: SortRowType(reg), runs: runs, pos: make([]runPos, len(runs)),
		heads: make([]laneHead, len(runs)), heap: make([]int32, 0, len(runs)), limit: limit}
	// Load every lane's first head and heapify the lanes that have one.
	for i := range m.runs {
		if m.load(i) {
			m.heap = append(m.heap, int32(i))
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		siftDown(m.heap, i, m.laneLess)
	}
	return m
}

// load advances lane i's cursor past empty or exhausted pages and caches
// the row it lands on; false when the lane is drained.
func (m *SortMerger) load(i int) bool {
	p := &m.pos[i]
	for p.page < len(m.runs[i]) {
		pg := m.runs[i][p.page]
		if pg.Root() != 0 {
			if root := object.AsVector(object.Ref{Page: pg, Off: pg.Root()}); p.elem < root.Len() {
				row := root.HandleAt(p.elem)
				key := object.StringBytes(object.GetHandleField(row, &m.ti.Fields[sortRowKey]))
				m.heads[i] = laneHead{key: key, row: row}
				return true
			}
		}
		p.page++
		p.elem = 0
	}
	m.heads[i] = laneHead{}
	return false
}

// laneLess is the min-heap order of the lanes: (head key, lane index).
func (m *SortMerger) laneLess(a, b int32) bool {
	if c := bytes.Compare(m.heads[a].key, m.heads[b].key); c != 0 {
		return c < 0
	}
	return a < b
}

// siftUp and siftDown maintain a binary heap of indices (top-k slots, merge
// lanes) whose root is the element that comes first under before.
func siftUp(h []int32, i int, before func(a, b int32) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func siftDown(h []int32, i int, before func(a, b int32) bool) {
	for {
		l, r, first := 2*i+1, 2*i+2, i
		if l < len(h) && before(h[l], h[first]) {
			first = l
		}
		if r < len(h) && before(h[r], h[first]) {
			first = r
		}
		if first == i {
			return
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// NextRow emits the next row in global order without touching the Go heap;
// ok=false when the merge is done (all lanes drained, or the limit
// reached). The key is a view of the run page.
func (m *SortMerger) NextRow() (key []byte, obj object.Ref, val object.Value, ok bool) {
	if len(m.heap) == 0 || (m.limit > 0 && m.emitted >= m.limit) {
		return nil, object.Ref{}, object.Value{}, false
	}
	lane := int(m.heap[0])
	head := m.heads[lane]
	obj, val = readSortRow(m.ti, head.row)
	m.pos[lane].elem++
	if !m.load(lane) {
		n := len(m.heap) - 1
		m.heap[0] = m.heap[n]
		m.heap = m.heap[:n]
	}
	siftDown(m.heap, 0, m.laneLess)
	m.emitted++
	return head.key, obj, val, true
}

// Next is NextRow with the key copied into a Go string, for callers that
// keep keys past the run pages' life.
func (m *SortMerger) Next() (string, object.Ref, object.Value, bool) {
	key, obj, val, ok := m.NextRow()
	return string(key), obj, val, ok
}

// Emitted reports how many rows the merge has produced.
func (m *SortMerger) Emitted() int { return m.emitted }

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

// WindowState is a window's running aggregate between two rows of the
// merged stream.
type WindowState struct {
	Running object.Value
	Exists  bool
}

// EmitMerged materializes one row of the merged stream onto out: the step
// the sort-merge consumer (core.StageEnv.MergeSort) repeats per row. Without a window the row's
// object joins the root vector (the cross-page push deep-copies it off its
// run page). With one, val is folded into st and the window's Emit builds
// the output object from the running state, on a fresh page if the live
// one fills under it.
func EmitMerged(out *OutputPageSet, ws *WindowSpec, st *WindowState, obj object.Ref, val object.Value) error {
	if ws == nil {
		return appendToRoot(out, obj)
	}
	running, err := ws.Combine(out.Alloc, st.Running, st.Exists, val)
	if err != nil {
		return err
	}
	st.Running, st.Exists = running, true
	emitted, err := ws.Emit(out.Alloc, obj, running)
	if errors.Is(err, object.ErrPageFull) {
		if err = out.Rotate(); err == nil {
			emitted, err = ws.Emit(out.Alloc, obj, running)
		}
	}
	if err != nil {
		return err
	}
	return appendToRoot(out, emitted)
}
