// Package pc is the public PlinyCompute API: a high-performance platform
// for developing distributed, data-intensive tools and libraries.
//
// The programming model is the paper's "declarative in the large,
// high-performance in the small":
//
//   - In the large, users describe computations as a graph of Selection,
//     MultiSelection, Join, and Aggregate computations whose behaviour is
//     specified with lambda *term construction functions* (FromMember,
//     FromMethod, FromNative, composed with Eq/And/Gt/...). The system —
//     not the user — picks join orders, filter placement, and
//     materialization by compiling to TCAP and optimizing it. (The join
//     algorithm is not yet the planner's: a Join computation broadcasts
//     its build side, and a build side too large for that goes through
//     Client.HashPartitionJoinKind, which shuffles both sets unless the
//     catalog labels them co-partitioned.)
//
//   - In the small, all data live in the PC object model: objects are
//     allocated in place on pages, referenced by offset handles, and move
//     between memory, disk, and the (simulated) network as raw bytes with
//     zero serialization cost.
//
// A minimal session mirrors the paper's §3 example:
//
//	client, _ := pc.Connect(pc.Config{Workers: 4})
//	dp := pc.NewStruct("DataPoint").AddField("data", pc.KHandle).MustBuild(client.Registry())
//	client.CreateDatabase("Mydb")
//	client.CreateSet("Mydb", "Myset", "DataPoint")
//	pages, _ := client.BuildPages(100, func(a *pc.Allocator, i int) (pc.Ref, error) { ... })
//	client.SendData("Mydb", "Myset", pages)
//
// # Threading model
//
// Execution is parallel at two levels. Worker-level: every job stage runs
// on all Config.Workers simultaneously, each worker executing its share of
// the stored set (the paper's distributed scheduler). Thread-level: inside
// each worker backend, the stage's source batches are split into
// Config.Threads contiguous chunks (default runtime.NumCPU()/Workers, min
// 1), each driven by a dedicated executor thread with a private pipeline,
// execution context, output page set, and sink shard — no locks or atomics
// on the per-row path.
//
// Per-thread results are combined by the sink-merge protocol after the
// stage barrier:
//
//   - OUTPUT and materialization sinks concatenate per-thread pages in
//     thread order; because chunks are contiguous, result order is
//     identical to a sequential run at any thread count.
//   - Pre-aggregation sinks stream: each thread's partitioned map pages
//     flow into the shuffle exchange the moment they seal, tagged
//     (worker, thread, sequence), so shipping and the downstream merge
//     overlap production instead of waiting for the stage barrier.
//   - Join-build sinks merge per-thread hash tables bucket-wise in thread
//     order, preserving sequential per-bucket row order.
//
// The consuming phases honor Config.Threads too, and run concurrently
// with their producers: each worker's aggregation consume stage splits
// its hash partition into per-thread hash-range sub-partitions, every
// thread folding shuffled pages — delivered in deterministic tag order
// regardless of arrival order — into a disjoint sub-map as they arrive,
// then finalizing independently with output pages concatenated in
// sub-partition order.
// The hash-partition join, shuffled or co-partitioned, runs one consumer
// body: it parallelizes its repartition scans, hash-table builds (bucket-wise
// merged, as above), and probe loops; the probe runs in windows of a fixed
// 16 pages, each window's matches buffered per thread and emitted after the
// window's barrier in thread order, so each worker's emit calls stay
// serialized in the sequential match order and the match buffer is bounded
// by a window. Workers emit in parallel with each other (as
// they always have), so an emit callback touching cross-worker shared
// state must synchronize it. Join key and equality lambdas must be pure:
// they are invoked concurrently across workers and threads.
//
// The single-process core.Executor runs stages through the same worker
// stage code (core.StageEnv), so Threads behaves identically there.
//
// Query results are therefore deterministic in Config.Threads, up to
// floating-point summation order inside aggregations (integer and
// lattice-quantized aggregates are bit-identical at every thread count).
//
// # Memory governance
//
// Config.MemoryBudget bounds the exchange bytes each worker backend keeps
// resident during a streaming shuffle — lane buffers and replay retention,
// which for an aggregation is its whole shuffle stream — spilling the
// coldest pages to reusable page
// files (under Config.DataDir, or a temp directory) and reloading them
// transparently. Results are bit-for-bit identical at any budget; only
// page residence changes. It is the only memory setting: every exchange
// lane holds at most four pages, a constant rather than a setting, and what
// a job holds as its own working state — merged aggregation maps, join
// tables, an ORDER BY's sorted runs (a partition sorted without a Limit is
// buffered whole) — is outside the budget and must fit in RAM. See
// docs/TUNING.md for the memory model and how MemoryBudget interacts with
// Threads and DataDir.
package pc

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/object"
)

// Config sizes the cluster a client connects to (re-exported).
type Config = cluster.Config

// Client is a connection to a PC cluster (in this reproduction, an owned
// in-process simulated cluster; see docs/ARCHITECTURE.md).
type Client struct {
	Cluster *cluster.Cluster
}

// Connect starts a cluster with the given configuration and returns a
// client bound to it.
func Connect(cfg Config) (*Client, error) {
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Client{Cluster: c}, nil
}

// Registry returns the master type registry; clients build objects against
// it and register types through it before loading data.
func (c *Client) Registry() *object.Registry { return c.Cluster.Catalog.Registry() }

// RegisterType registers a user object type cluster-wide.
func (c *Client) RegisterType(ti *TypeInfo) (*TypeInfo, error) {
	return c.Cluster.RegisterType(ti)
}

// CreateDatabase creates a database.
func (c *Client) CreateDatabase(db string) error { return c.Cluster.CreateDatabase(db) }

// CreateSet creates a set of a registered type.
func (c *Client) CreateSet(db, set, typeName string) error {
	return c.Cluster.CreateSet(db, set, typeName)
}

// BuildPages fills client-side pages with n objects built by fill — the
// makeObjectAllocatorBlock / makeObject pattern of the paper's §3.
func (c *Client) BuildPages(n int, fill func(a *Allocator, i int) (Ref, error)) ([]*Page, error) {
	return object.BuildPages(c.Registry(), c.Cluster.Cfg.PageSize, n, fill)
}

// SendData ships pages into a stored set with zero serialization cost.
func (c *Client) SendData(db, set string, pages []*Page) error {
	return c.Cluster.SendData(db, set, pages)
}

// ExecuteComputations compiles, optimizes, plans, and runs a computation
// graph identified by its Write sinks (the paper's executeComputations).
func (c *Client) ExecuteComputations(writes ...*Write) (*cluster.ExecStats, error) {
	return c.Cluster.Execute(writes...)
}

// ScanSet iterates a stored set's objects.
func (c *Client) ScanSet(db, set string, fn func(r Ref) bool) error {
	return c.Cluster.ScanSet(db, set, fn)
}

// CountSet counts a stored set's objects.
func (c *Client) CountSet(db, set string) (int, error) { return c.Cluster.CountSet(db, set) }

// DropSet removes a stored set.
func (c *Client) DropSet(db, set string) error { return c.Cluster.DropSet(db, set) }

// Close tears the cluster down: socket transports close their
// connections and listeners, and proc-mode worker processes are killed
// and reaped. Durable state under Config.DataDir survives Close; a
// client reconnected on the same directory restores it.
func (c *Client) Close() error { return c.Cluster.Close() }

// Object model re-exports: the "in the small" API surface.

// Ref is a reference to a PC object on a page.
type Ref = object.Ref

// Page is a self-contained block of PC objects.
type Page = object.Page

// Allocator manages the active allocation block.
type Allocator = object.Allocator

// TypeInfo describes a registered PC object type.
type TypeInfo = object.TypeInfo

// Method is a virtual method on a registered type.
type Method = object.Method

// Field describes a member of a registered type.
type Field = object.Field

// Value is a boxed scalar flowing through computations.
type Value = object.Value

// Vector is the PC growable container.
type Vector = object.Vector

// OMap is the PC hash map container.
type OMap = object.OMap

// Kind identifies a storage kind.
type Kind = object.Kind

// Storage kinds.
const (
	KBool    = object.KBool
	KInt32   = object.KInt32
	KInt64   = object.KInt64
	KFloat64 = object.KFloat64
	KHandle  = object.KHandle
	KString  = object.KString
)

// FoldOp declares an Aggregate as a scalar sum, min or max (Aggregate.Fold)
// in place of a Combine closure; the engine then folds typed columns
// without boxing each row.
type FoldOp = object.FoldOp

// The scalar folds.
const (
	FoldSum = object.FoldSum
	FoldMin = object.FoldMin
	FoldMax = object.FoldMax
)

// NewStruct begins building a user type layout.
func NewStruct(name string) *object.StructBuilder { return object.NewStruct(name) }

// MakeVector allocates a PC vector.
func MakeVector(a *Allocator, elem Kind, initCap int) (Vector, error) {
	return object.MakeVector(a, elem, initCap)
}

// MakeMap allocates a PC map.
func MakeMap(a *Allocator, keyKind, valKind Kind, initSlots int) (OMap, error) {
	return object.MakeMap(a, keyKind, valKind, initSlots)
}

// Computation graph re-exports: the "in the large" API surface.

// Computation is a node in a query graph.
type Computation = core.Computation

// Scan reads a stored set (the paper's ObjectReader).
type Scan = core.Scan

// Write stores a computation's output (the paper's Writer).
type Write = core.Write

// Selection is SelectionComp.
type Selection = core.Selection

// MultiSelection is MultiSelectionComp.
type MultiSelection = core.MultiSelection

// Join is JoinComp.
type Join = core.Join

// Aggregate is AggregateComp.
type Aggregate = core.Aggregate

// OrderBy sorts a computation's output by one or more lambda-extracted
// keys, optionally keeping only the first Limit rows (top-k).
type OrderBy = core.OrderBy

// SortKey is one ORDER BY key: a lambda term, its scalar kind, and the
// sort direction.
type SortKey = core.SortKey

// Distinct deduplicates a computation's output by a lambda-extracted key.
type Distinct = core.Distinct

// Window is a running aggregate over the sorted stream: rows are ordered
// by Keys, then Combine folds Val left-to-right and Emit rewrites each row
// with the running value.
type Window = core.Window

// JoinKind selects a join's output semantics (see the core constants).
type JoinKind = core.JoinKind

// Join kinds. Inner/semi/anti lower through the computation graph; the
// outer kinds are served by Client.HashPartitionJoinKind, which surfaces
// the absent side of a null-extended row as NilRef.
const (
	JoinInner = core.JoinInner
	JoinSemi  = core.JoinSemi
	JoinAnti  = core.JoinAnti
	JoinLeft  = core.JoinLeft
	JoinRight = core.JoinRight
	JoinFull  = core.JoinFull
)

// NilRef is the null object reference (the absent side of an outer join's
// null-extended row).
var NilRef = object.NilRef

// NewScan creates a set reader.
func NewScan(db, set, typeName string) *Scan { return core.NewScan(db, set, typeName) }

// NewWrite creates a set writer.
func NewWrite(db, set string, in Computation) *Write { return core.NewWrite(db, set, in) }

// SendDataPartitioned loads pages into a set pre-partitioned on key: each
// object is placed on the worker owning hash(key(obj)), and the catalog
// labels the set keyLabel if it was empty or already carried that label.
// Any other load into the set clears the label. HashPartitionJoinKind joins
// two sets sharing a label with zero shuffle — the paper's §8.3.3
// future-work item, implemented.
func (c *Client) SendDataPartitioned(db, set string, pages []*Page, keyLabel string, key func(Ref) uint64) error {
	return c.Cluster.SendDataPartitioned(db, set, pages, keyLabel, key)
}

// HashPartitionJoinKind runs the streaming hash-partition join with
// selectable semantics (inner/left/semi/anti/right/full); null-extended
// rows carry NilRef on the absent side. Two sets sharing a partition label
// (SendDataPartitioned) join where they are stored, with no shuffle. See
// cluster.Cluster.HashPartitionJoinKind for the placement check and the
// recovery contract.
func (c *Client) HashPartitionJoinKind(kind JoinKind, dbL, setL, dbR, setR string,
	keyL, keyR func(Ref) uint64, eq func(l, r Ref) bool,
	emit func(workerID int, l, r Ref) error) error {
	_, err := c.Cluster.HashPartitionJoinKind(kind, dbL, setL, dbR, setR, keyL, keyR, eq, emit)
	return err
}
