package engine

import (
	"fmt"
	"sync"

	"repro/internal/object"
	"repro/internal/swiss"
)

// Stats accumulates execution counters for tests and benchmarks. A Stats
// belongs to one executor thread; parallel stages give each thread its own
// and fold them together with Merge after the stage barrier, so the hot path
// counts without atomics.
type Stats struct {
	Batches     int
	Rows        int
	PagesSealed int
	PageRetries int

	// JoinProbeRows counts rows entering JOIN probes (the optimizer's
	// pushdown rule exists to shrink this).
	JoinProbeRows int

	// HashProbes counts hash-table lookups on the agg and join hot paths
	// (join build inserts, join probes — two passes per probed row — and
	// aggregation key probes). Counted at call sites rather than inside
	// the tables because probe-phase tables are read concurrently.
	HashProbes int

	// HashResizes counts hash-table growth events: OMap rehashes in the
	// pre-aggregation sink plus swiss control-array growths on the join
	// build path.
	HashResizes int
}

// Merge folds another thread's counters into s (post-barrier, single
// goroutine).
func (s *Stats) Merge(o *Stats) {
	s.Batches += o.Batches
	s.Rows += o.Rows
	s.PagesSealed += o.PagesSealed
	s.PageRetries += o.PageRetries
	s.JoinProbeRows += o.JoinProbeRows
	s.HashProbes += o.HashProbes
	s.HashResizes += o.HashResizes
}

// Ctx carries per-pipeline execution state: the worker's type registry
// (for dynamic dispatch), the live output page set (kernels allocate output
// objects in place on it — "data should be constructed where it is
// ultimately needed", Appendix C), join tables built by earlier job stages,
// and counters.
//
// A Ctx is single-threaded state: parallel stage execution builds one Ctx
// per executor thread, each with its own Out page set and Stats. Reg and
// Tables may be shared across the worker's threads — the registry is
// internally locked and join tables are read-only during probes.
type Ctx struct {
	Reg    *object.Registry
	Out    *OutputPageSet
	Tables map[string]*JoinTable
	Stats  *Stats

	// probeIdx is the join probe's gather-index scratch, reused across
	// batches so the probe's fan-out buffer is allocated once per thread
	// instead of once per page.
	probeIdx []int

	// slots holds each statement's output column scratch, indexed by the
	// statement's position in Pipeline.Stmts; stmt is that position plus
	// one for the kernel now running, 0 outside a pipeline (the buffer
	// methods then allocate fresh columns).
	slots []colSlot
	stmt  int
}

// colSlot is one statement's reused output column on one executor thread,
// kept boxed: converting a slice to Column allocates its header, so col is
// handed out again while the length stays the same. args is a native
// kernel's argument vector.
type colSlot struct {
	col  Column
	args []object.Value
}

// Alloc returns the live output allocator.
func (c *Ctx) Alloc() *object.Allocator { return c.Out.Alloc }

// useSlot makes statement i (its position in Pipeline.Stmts) the owner of
// the buffers the next kernel takes; i < 0 ends the pipeline pass.
func (c *Ctx) useSlot(i int) {
	c.stmt = i + 1
	if i >= len(c.slots) {
		c.slots = append(c.slots, make([]colSlot, i+1-len(c.slots))...)
	}
}

func (c *Ctx) slot() *colSlot {
	if c == nil || c.stmt == 0 {
		return nil
	}
	return &c.slots[c.stmt-1]
}

// ColBuf returns the n-element output column of type C a kernel fills
// instead of calling make, and the same column as a Column, ready to
// return: out, col := ColBuf[I64Col](ctx, n). Inside a pipeline it is the
// running statement's scratch on this executor thread, valid until the
// thread's next batch, and every element must be written; its backing
// array is reused while it is large enough, its boxed header while the
// length is unchanged. Outside a pipeline it is freshly allocated.
func ColBuf[C interface {
	~[]E
	Column
}, E any](ctx *Ctx, n int) (C, Column) {
	s := ctx.slot()
	if s == nil {
		c := make(C, n)
		return c, c
	}
	if c, ok := s.col.(C); ok && cap(c) >= n {
		if len(c) == n {
			return c, s.col
		}
		c = c[:n]
		s.col = c
		return c, s.col
	}
	c := make(C, n)
	s.col = c
	return c, s.col
}

// ArgBuf returns an n-element argument vector for a row-wise call, reused
// like ColBuf's columns but never part of one.
func (c *Ctx) ArgBuf(n int) []object.Value {
	s := c.slot()
	if s == nil {
		return make([]object.Value, n)
	}
	if cap(s.args) < n {
		s.args = make([]object.Value, n)
	}
	s.args = s.args[:n]
	return s.args
}

// ApplyKernel is one compiled pipeline stage: it consumes the applied input
// columns of a vector list and produces the new output column. Kernels are
// monomorphic closures generated by the TCAP compiler — the engine's
// analogue of template-instantiated C++ stages (paper §5.3). A kernel that
// allocates output objects uses ctx.Alloc() and may surface
// object.ErrPageFull, which the pipeline driver handles by rotating the
// output page and retrying the batch.
//
// Kernels are shared by every thread and worker, so they keep no scratch of
// their own: a kernel takes its output column from the Ctx (ColBuf). That
// column belongs to the statement on this executor thread and is valid
// until the thread's next batch: a later statement may read it, and a sink
// copies what it keeps (a value, a handle, a row), never the column.
type ApplyKernel func(ctx *Ctx, inputs []Column) (Column, error)

// StageRegistry maps (computation, stage) names — the identifiers embedded
// in TCAP statements like 'Join_2212'.'att_acc_1' — to executable kernels.
type StageRegistry struct {
	mu sync.RWMutex
	m  map[string]ApplyKernel
}

// NewStageRegistry creates an empty registry.
func NewStageRegistry() *StageRegistry {
	return &StageRegistry{m: map[string]ApplyKernel{}}
}

func stageKey(comp, stage string) string { return comp + "." + stage }

// Register installs a kernel for a (computation, stage) pair.
func (r *StageRegistry) Register(comp, stage string, k ApplyKernel) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.m[stageKey(comp, stage)] = k
}

// Lookup resolves a kernel; an unknown stage is a programming error surfaced
// as an execution failure.
func (r *StageRegistry) Lookup(comp, stage string) (ApplyKernel, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	k, ok := r.m[stageKey(comp, stage)]
	if !ok {
		return nil, fmt.Errorf("engine: no kernel registered for %s.%s", comp, stage)
	}
	return k, nil
}

// JoinTable is a built hash table for one join input: join-key hash to the
// build-side objects with that hash. Probe hits are re-verified by the
// post-join equality filter, as in the paper (hash collisions are not
// matches).
//
// Buckets live in a swiss open-addressing RefTable (group-probed control
// bytes, no per-key slice allocation for unique keys). Once built, a table
// is probed read-only and is safe for concurrent readers.
type JoinTable struct {
	st *swiss.RefTable

	// keys, when non-nil, puts the table in key-set mode: the build side
	// of a semi/anti join stores only canonicalized key VALUES, and
	// probes test exact membership (no hash-collision hazard, no
	// re-verification filter needed). A key-set table has no buckets.
	keys map[object.Value]struct{}

	// Rows counts build-side rows (optimizer statistics / tests).
	Rows int
}

// NewJoinTable creates an empty join table.
func NewJoinTable() *JoinTable { return &JoinTable{st: swiss.NewRefTable()} }

// NewKeySetTable creates an empty key-set table (semi/anti join build).
func NewKeySetTable() *JoinTable { return &JoinTable{keys: map[object.Value]struct{}{}} }

// canonKey normalizes a key value so logically equal keys compare equal as
// Go map keys: int32 widens to int64, -0.0 folds to 0.0, and strings — views
// of a page and string-object handles alike — fold to their contents as a Go
// string. That copy is deliberate: the key set outlives the build side's
// pages.
func canonKey(v object.Value) object.Value {
	switch v.K {
	case object.KInt32:
		return object.Int64Value(v.I)
	case object.KFloat64:
		if v.F == 0 {
			return object.Float64Value(0)
		}
	case object.KString:
		if !v.H.IsNil() {
			return object.StringValue(v.Str())
		}
	case object.KHandle:
		if !v.H.IsNil() && v.H.TypeCode() == object.TCString {
			return object.StringValue(object.StringContents(v.H))
		}
	}
	return v
}

// AddKey inserts a build key into a key-set table.
func (t *JoinTable) AddKey(v object.Value) {
	t.keys[canonKey(v)] = struct{}{}
	t.Rows++
}

// HasKey tests probe-key membership in a key-set table.
func (t *JoinTable) HasKey(v object.Value) bool {
	_, ok := t.keys[canonKey(v)]
	return ok
}

// IsKeySet reports whether the table is in key-set mode.
func (t *JoinTable) IsKeySet() bool { return t.keys != nil }

// Add inserts a build row.
func (t *JoinTable) Add(h uint64, r object.Ref) {
	t.st.Add(h, r)
	t.Rows++
}

// Bucket is a read-only view of one hash bucket's build refs, in insert
// order. The view stays valid only until the table's next Add/Merge.
type Bucket struct {
	first object.Ref
	rest  []object.Ref
	found bool
}

// Len returns the number of refs in the bucket.
func (b Bucket) Len() int {
	if !b.found {
		return 0
	}
	return 1 + len(b.rest)
}

// At returns the bucket's i-th ref in build order.
func (b Bucket) At(i int) object.Ref {
	if i == 0 {
		return b.first
	}
	return b.rest[i-1]
}

// Bucket returns hash h's build refs (empty bucket when absent).
func (t *JoinTable) Bucket(h uint64) Bucket {
	first, rest, found := t.st.Lookup(h)
	return Bucket{first: first, rest: rest, found: found}
}

// Resizes returns the table's control-array growth count (zero for a
// key-set table) — the build-side half of Stats.HashResizes.
func (t *JoinTable) Resizes() uint64 {
	if t.st == nil {
		return 0
	}
	return t.st.Resizes()
}

// Merge appends another table's rows bucket by bucket. Called in thread
// order after a parallel build barrier; because each thread consumed a
// contiguous slice of the source, per-bucket row order matches what a
// sequential build over the whole source would produce.
func (t *JoinTable) Merge(o *JoinTable) {
	if t.keys != nil || o.keys != nil {
		for k := range o.keys {
			t.keys[k] = struct{}{}
		}
		t.Rows += o.Rows
		return
	}
	o.st.Range(func(h uint64, first object.Ref, rest []object.Ref) bool {
		t.st.AddBucket(h, first, rest)
		return true
	})
	t.Rows += o.Rows
}

// OutputPageSet manages the pages a pipeline writes: one live page receiving
// all allocations, plus the sealed pages produced when the live page fills
// (the paper's live/zombie output page discipline, Appendix C). InitRoot
// re-establishes the sink's root container (vector, map set, ...) on each
// fresh page.
type OutputPageSet struct {
	Reg      *object.Registry
	PageSize int

	Live  *object.Page
	Alloc *object.Allocator

	// Sealed pages hold completed output data.
	Sealed []*object.Page

	// InitRoot prepares a fresh live page's root container.
	InitRoot func(a *object.Allocator, p *object.Page) error

	// Pool, when set, recycles pages instead of allocating fresh zeroed
	// blocks (the buffer-pool recycling of paper §3).
	Pool *object.PagePool

	// OnSeal, when set, receives each sealed page instead of the Sealed
	// list — the streaming-sink contract: a sink owned by one executor
	// thread hands pages to the exchange the moment they seal, so the
	// shuffle overlaps production. The hook runs on the owning executor
	// thread and takes ownership of the page; CloseStream flushes the
	// final live page through it when the thread's chunk is done.
	OnSeal func(*object.Page) error

	// holdSeals keeps Rotate from handing a sealed page to OnSeal: it waits
	// in held, in seal order, until releaseSeals.
	holdSeals bool
	held      []*object.Page

	stats *Stats
}

// NewOutputPageSet creates a page set and initializes the first live page.
func NewOutputPageSet(reg *object.Registry, pageSize int,
	initRoot func(*object.Allocator, *object.Page) error, pool *object.PagePool, stats *Stats) (*OutputPageSet, error) {
	o := &OutputPageSet{Reg: reg, PageSize: pageSize, InitRoot: initRoot, Pool: pool, stats: stats}
	if err := o.fresh(); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *OutputPageSet) fresh() error {
	if o.Pool != nil && o.Pool.Size == o.PageSize {
		o.Live = o.Pool.Get(o.Reg)
	} else {
		o.Live = object.NewPage(o.PageSize, o.Reg)
	}
	o.Alloc = object.NewAllocator(o.Live)
	if o.InitRoot != nil {
		return o.InitRoot(o.Alloc, o.Live)
	}
	return nil
}

// Rotate seals the live page and starts a fresh one. The sealed page keeps
// its data intact and is only read from here on (object.Page.Seal); in the
// distributed runtime it is handed to the shuffle (OnSeal, streaming) or
// kept on the Sealed list as raw bytes.
func (o *OutputPageSet) Rotate() error {
	o.Alloc.Detach().Seal()
	if o.stats != nil {
		o.stats.PagesSealed++
	}
	if o.OnSeal != nil {
		if o.holdSeals {
			o.held = append(o.held, o.Live)
		} else if err := o.OnSeal(o.Live); err != nil {
			return err
		}
		return o.fresh()
	}
	o.Sealed = append(o.Sealed, o.Live)
	return o.fresh()
}

// releaseSeals ends a holdSeals stretch and hands the pages sealed during it
// to OnSeal.
func (o *OutputPageSet) releaseSeals() error {
	o.holdSeals = false
	for i, p := range o.held {
		o.held[i] = nil
		if err := o.OnSeal(p); err != nil {
			o.held = o.held[:0]
			return err
		}
	}
	o.held = o.held[:0]
	return nil
}

// CloseStream seals the final live page and hands it to OnSeal, ending the
// page set's stream; the set must not be written afterwards. Without an
// OnSeal hook it is a no-op (the live page stays on Pages() as always).
func (o *OutputPageSet) CloseStream() error {
	if o.OnSeal == nil || o.Live == nil {
		return nil
	}
	p := o.Alloc.Detach()
	p.Seal()
	o.Live, o.Alloc = nil, nil
	return o.OnSeal(p)
}

// Pages returns all pages carrying output data (sealed plus live): the live
// page once anything, a root container included, is allocated on it.
func (o *OutputPageSet) Pages() []*object.Page {
	out := append([]*object.Page(nil), o.Sealed...)
	if o.Live != nil && o.Live.Used() > object.PageHeaderSize {
		out = append(out, o.Live)
	}
	return out
}
