// Package cluster implements PC's distributed runtime (paper §2, Appendix
// D) as an in-process simulation: a master node (catalog manager,
// distributed storage manager, TCAP optimizer, distributed query scheduler)
// plus worker nodes, each split into a front-end process (local catalog,
// storage server, message proxy) and a backend process that runs potentially
// unsafe user code and is re-forked by the front end when it crashes.
//
// Substitution note (docs/ARCHITECTURE.md): "processes" are goroutine-owned memory
// spaces; the transport copies page bytes between them and counts traffic,
// so every algorithm (shuffle, broadcast join, two-stage aggregation, crash
// re-fork) executes the real code path with only the wire simulated.
//
// # Stage lifecycle
//
// Execute compiles a computation graph to TCAP (internal/core), optimizes
// it (internal/optimizer), plans job stages (internal/physical), and runs
// each schedulable step — a barrier stage, or an exchange-linked stage pair
// — on every worker in parallel. A worker's stage work is written once,
// in internal/core (core.StageEnv, stage.go), and shared with the
// single-process core.Executor: the pipeline driver (RunPipeline, over
// engine.RunPipelineThreads) splits the worker's source batches into
// Config.Threads contiguous chunks, each driven by a dedicated executor
// thread with a private pipeline, context, output page set, and sink; the
// aggregation consumer merges and finalizes through MergeAggregation, the
// sort consumer through MergeSort. The roles here add the exchange ends,
// fault sites and commits around those calls. Artifacts are committed only
// after the all-workers barrier, so no goroutine writes a map a peer is
// reading.
//
// # Step runner
//
// Every step — a barrier stage, the aggregation and sort stage pairs, the
// hash-partition join, shuffled or over co-partitioned sets — is a list of
// roles, each one worker's share of the work (a stage pipeline, a shuffle
// producer, a streaming consumer, a join probe), and the protocol around
// the roles is written once (step.go, retry.go):
//
//   - runStep fans the roles out, cancels the step's exchanges on the first
//     failure so blocked siblings return, waits for every role, releases
//     or discards the pages the exchanges still hold, and reports the
//     step's telemetry (ExecStats.Ships).
//   - runRole owns the crash policy. A panic in user code kills the
//     backend; the front end re-forks it and the role is retried once per
//     step, accounted per role in ExecStats.RoleRetries. A
//     crash that repeats identically on the retried attempt is treated as a
//     deterministic user bug and fails the job immediately with the failing
//     role and worker in the error. In proc mode the backend is a pcworker
//     OS process and the crash is the process dying under the role's
//     session: same budget, same accounting.
//   - Every consumer recovers the same way: the exchange retains every page
//     it delivered until the step ends, and a retried consumer rewinds its
//     end to page 0 and consumes the whole stream again — in a re-forked
//     backend or a respawned worker process alike. A successful step hands
//     the retained pages back (the aggregation's to the page pool); a
//     failed one drops them.
//
// An operator keeps only what is its own: its sinks, its recovery record,
// its failure cleanup. Every role — the aggregation, sort and join pairs —
// is a function of a small per-worker environment (workerEnv), not of the
// Cluster, and a pcworker process runs the aggregation's with its control
// socket as its end of the shuffle (procserve.go; sort and join do not ship
// yet): one crash policy and one replay policy in both modes. Recovery
// state lives in memory only: a cluster restarted mid-job re-runs the job
// from its start.
// docs/FAULTS.md tabulates the full fault model (role × crash site →
// recovery outcome), and internal/fault injects deterministic crashes and
// I/O errors at every site via Config.Fault.
//
// # Streaming shuffle
//
// Stages connected by a shuffle — the pre-aggregation producer and its
// aggregation-consume stage, and the hash-partition join's repartition and
// build/probe phases — do NOT meet at a barrier. The physical plan marks
// such producer→consumer pairs exchange-linked, and the scheduler launches
// both together, connected by an internal/exchange Exchange: each executor
// thread's sink hands every page to the exchange the moment it seals
// (engine's OnSeal streaming-sink contract) tagged (worker, thread,
// sequence), the transport ships it in flight, and the consumer starts
// merging immediately. The exchange delivers pages in deterministic tag
// order regardless of arrival order, so results do not depend on the
// schedule.
//
// That determinism is what makes both halves replayable. A retried
// producer re-runs from scratch and re-sends the same tagged pages; the
// exchange drops the duplicates at the sender, so the merge sees every page
// exactly once. The exchange retains delivered pages until the step ends,
// and a retried consumer replays its retained streams from page 0: the
// aggregation merge onto fresh sub-maps, the sort onto a fresh merge, the
// join reusing its finished table and skipping the matches user code
// already observed. No consumer takes a checkpoint. The output is
// bit-for-bit identical to a crash-free run and user emit code observes
// each match exactly once (runExchangeGroup, consumeSortStream, and
// HashPartitionJoinKind's "Probe/emit recovery" carry the per-operator
// detail).
//
// # Sink-merge protocol
//
// Per-thread results of non-streamed sinks combine after each stage
// barrier, always in thread order (source order, because chunks are
// contiguous):
//
//   - Output/materialize: per-thread pages are concatenated.
//   - Join build (broadcast-join build stages): per-thread hash tables
//     merge bucket-wise, preserving sequential per-bucket row order.
//   - Join probe (HashPartitionJoinKind, shuffled or co-partitioned, one
//     consumer body — consumeJoin): per window of probe pages, probe
//     threads buffer matches and the worker emits them after the window's
//     barrier in thread order, so a worker's emit calls stay serialized
//     (workers still emit in parallel with each other, as they always
//     did).
//
// Pre-aggregation sinks and repartition sinks stream instead: their pages
// flow through the exchange per thread, and the consumer's merge — the
// hash-range-parallel aggregation merge (engine.MergeAggMapsStream) or the
// join-table build — consumes them in (worker, thread, sequence) order.
package cluster

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/storage"
)

// Config sizes a simulated cluster.
type Config struct {
	// Workers is the number of worker nodes (the paper uses 10).
	Workers int
	// Threads is the number of executor threads each worker backend runs
	// per job stage (intra-worker parallelism). Zero picks
	// runtime.NumCPU()/Workers (min 1), so a default cluster saturates
	// the machine; 1 reproduces strictly sequential per-worker
	// execution.
	Threads int
	// PageSize is the storage/output page size (paper default 256 MB;
	// scaled down here).
	PageSize int
	// DataDir, when non-empty, persists worker sets under
	// DataDir/worker-N and the catalog manifest under DataDir; a cluster
	// reopened on the same directory restores its sets (re-register the
	// element types, then read or query as usual). Empty keeps all pages
	// in memory.
	//
	// Only stored sets and the catalog are durable: a job's recovery state
	// — the exchange's retained pages — lives in memory, so a cluster
	// restarted mid-job (or a process that died) re-runs the job from its
	// start on the next Execute.
	DataDir string
	// CheckpointInterval is ignored: no consumer takes recovery
	// checkpoints. Every crashed consumer — the aggregation merge, the
	// join, the sort — replays its retained stream from page 0.
	//
	// Deprecated: kept only so callers that still set it compile. ROADMAP
	// item 1(a) deletes it.
	CheckpointInterval int
	// MemoryBudget, in bytes, bounds the exchange memory each worker
	// backend keeps resident during a streaming step: pages buffered in
	// lanes and delivered pages retained for replay — for an aggregation
	// its whole shuffle stream, which the exchange retains until the step
	// ends — all meter against it, and the coldest of them spill to
	// reusable page files — under DataDir/worker-N/_spill when DataDir is
	// set, a temporary directory otherwise — reloading transparently on
	// delivery and replay. Results are bit-for-bit identical at any budget
	// (only page residence changes), and ExecStats.Ships surfaces
	// SpilledPages/SpilledBytes/MaxBufferedBytes per step. Zero or
	// negative disables governance: everything stays resident and nothing
	// is metered. The join's probe-side pages are exchange retention and
	// meter against the budget like any other retained page; a job's
	// working state (merged sub-maps, join tables and their referenced
	// build pages, an ORDER BY's sorted runs — a partition sorted without
	// a limit is buffered whole) is not exchange memory and is outside
	// the budget, and no other setting bounds it — see docs/TUNING.md for
	// the full memory model.
	MemoryBudget int64
	// Transport selects the process-boundary implementation: "" or "mem"
	// (the default) is the in-process copier; "unix" and "tcp" ship every
	// page through a real socket as wire frames (internal/wire) — the
	// exchange protocol, results, and recovery behavior are identical, only
	// the wire is real. Socket transports are torn down by Close.
	Transport string
	// ProcBin, when non-empty, is the path to a built cmd/pcworker binary
	// and switches the cluster to proc mode: every worker backend runs as
	// a real OS process the master spawns lazily at the first Execute and
	// talks to over per-session control sockets (Transport picks the
	// network — "" or "unix" for unix domain sockets under each worker's
	// DataDir subtree, "tcp" for TCP loopback). Jobs ship as optimized
	// TCAP text plus type schemas, so they must be shippable: scan →
	// aggregate → write plans whose aggregation is a registered named
	// family (internal/agglib) — anything else fails with a clear error.
	// Requires DataDir (worker processes read their input partitions
	// there). A killed worker process is respawned and its role retried:
	// the master's exchange retains the stream, so the retried consume
	// session replays it from page 0. Close kills every spawned process.
	ProcBin string
	// Fault, when non-nil, is a deterministic fault-injection schedule
	// (internal/fault) the runtime consults at every instrumented crash
	// site — page seals, deliveries, spills, finalize, probe/emit. Nil (the production default) injects nothing and costs
	// nothing. Crash tests and the chaos campaign (TestChaosCampaign) use
	// it to place reproducible crashes and I/O errors anywhere in a job.
	Fault *fault.Plan
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Threads <= 0 {
		c.Threads = runtime.NumCPU() / c.Workers
		if c.Threads < 1 {
			c.Threads = 1
		}
	}
	if c.PageSize <= 0 {
		c.PageSize = 1 << 18
	}
}

// Backend is the worker's backend process: the only place user code runs.
// A panic in user code "crashes" it; the front end re-forks a fresh one.
// Crash state is atomic because a streaming stage runs concurrent roles
// (producer pipeline, consumer merge) on one backend.
type Backend struct {
	ID      int
	crashed atomic.Bool
	Stats   engine.Stats
}

// Crashed reports whether user code killed this backend process.
func (b *Backend) Crashed() bool { return b.crashed.Load() }

// errBackendDead marks an attempt to run work on a crashed backend.
var errBackendDead = fmt.Errorf("cluster: backend is dead")

// errBackendCrashed marks an error produced by a Run whose own fn panicked
// — as opposed to a Run that failed because a sibling role crashed the
// shared backend. Retry logic keys on it: only the role whose user code
// actually crashed gets the re-fork retry.
var errBackendCrashed = fmt.Errorf("cluster: backend crashed")

// Run executes fn, converting panics into a crash error (the process dying).
func (b *Backend) Run(fn func() error) (err error) {
	if b.crashed.Load() {
		return fmt.Errorf("%w (worker %d)", errBackendDead, b.ID)
	}
	defer func() {
		if r := recover(); r != nil {
			b.crashed.Store(true)
			err = fmt.Errorf("%w (worker %d): %v", errBackendCrashed, b.ID, r)
		}
	}()
	return fn()
}

// FrontEnd is the worker's crash-proof front-end process: local catalog,
// storage server, and the proxy that forwards work to the backend.
type FrontEnd struct {
	Local   *catalog.Local
	Store   *storage.Server
	mu      sync.Mutex
	backend *Backend
	ReForks int
}

// Backend returns the live backend, re-forking a crashed one (paper §2).
func (f *FrontEnd) Backend() *Backend {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.backend.Crashed() {
		f.ReForks++
		f.backend = &Backend{ID: f.backend.ID}
	}
	return f.backend
}

// Worker is one node: front end + backend plus per-job artifact state.
type Worker struct {
	ID    int
	Front *FrontEnd

	// Per-execution artifacts (reset per job): materialized pages and
	// join tables, keyed like the physical plan's artifact names.
	artPages  map[string][]*object.Page
	artTables map[string]*engine.JoinTable

	// statsMu serializes counter folding into the backend: a streaming
	// stage's producer and consumer roles account concurrently.
	statsMu sync.Mutex
}

// Reg returns the worker's type registry (through its local catalog).
func (w *Worker) Reg() *object.Registry { return w.Front.Local.Registry() }

// mergeStats folds per-thread counters into the current backend's
// accounting (post-role, under the worker's stats lock).
func (w *Worker) mergeStats(stats ...engine.Stats) {
	w.statsMu.Lock()
	defer w.statsMu.Unlock()
	b := w.Front.Backend()
	for i := range stats {
		b.Stats.Merge(&stats[i])
	}
}

// Cluster is the whole simulated deployment.
type Cluster struct {
	Cfg       Config
	Catalog   *catalog.Master
	Workers   []*Worker
	Transport Transport

	// pool recycles transient pages (output, pre-aggregation, merge)
	// across job stages and jobs; its free list, at most the pages it
	// ever made, lives until Close.
	pool *object.PagePool

	// procs manages spawned pcworker OS processes when Config.ProcBin is
	// set (procexec.go); nil in the in-process modes.
	procs *procSet

	// manifestMu serializes catalog-manifest writes (restore.go).
	manifestMu sync.Mutex
}

// New builds a cluster: one master and cfg.Workers workers. With
// Config.DataDir set, sets persisted by a previous cluster on the same
// directory are restored (storage page files plus the catalog manifest);
// re-register their element types before reading them.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	c := &Cluster{Cfg: cfg, Catalog: catalog.NewMaster(), pool: object.NewPagePool(cfg.PageSize)}
	if cfg.ProcBin != "" {
		// Proc mode: worker backends are real OS processes reached over
		// control sockets (procrun.go); the master's internal transport —
		// data loading, exchange lane ships between master-side views —
		// stays the in-process copier, and the control-socket relay adds
		// its own traffic to the same ShipStats.
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("cluster: proc mode (ProcBin) requires DataDir")
		}
		var network string
		switch cfg.Transport {
		case "", "unix":
			network = "unix"
		case "tcp":
			network = "tcp"
		default:
			return nil, fmt.Errorf("cluster: proc mode needs a socket network (unix or tcp), not %q", cfg.Transport)
		}
		c.Transport = &MemTransport{pool: c.pool}
		ps := &procSet{}
		for i := 0; i < cfg.Workers; i++ {
			ps.workers = append(ps.workers, &procWorker{
				id: i, bin: cfg.ProcBin, network: network, dataDir: c.workerSubdir(i, ""),
			})
		}
		c.procs = ps
	} else {
		tr, err := newTransport(cfg, c.pool, func() *fault.Plan { return c.Cfg.Fault })
		if err != nil {
			return nil, err
		}
		c.Transport = tr
	}
	for i := 0; i < cfg.Workers; i++ {
		local := catalog.NewLocal(c.Catalog)
		store, err := storage.NewServer(c.workerSubdir(i, ""), local.Registry())
		if err != nil {
			return nil, err
		}
		c.Workers = append(c.Workers, &Worker{
			ID:    i,
			Front: &FrontEnd{Local: local, Store: store, backend: &Backend{ID: i}},
		})
	}
	if err := c.loadManifest(); err != nil {
		return nil, err
	}
	return c, nil
}

// workerSubdir is worker i's directory under DataDir (DataDir/worker-i) or,
// with sub, a subdirectory of it; "" on a memory-only cluster.
func (c *Cluster) workerSubdir(i int, sub string) string {
	if c.Cfg.DataDir == "" {
		return ""
	}
	return filepath.Join(c.Cfg.DataDir, fmt.Sprintf("worker-%d", i), sub)
}

// RegisterType registers a user type with the master catalog; workers fault
// it in on first use. Disk-backed clusters persist the name→code binding so
// restored pages keep resolving after a restart.
func (c *Cluster) RegisterType(ti *object.TypeInfo) (*object.TypeInfo, error) {
	reged, err := c.Catalog.RegisterType(ti)
	if err != nil {
		return nil, err
	}
	return reged, c.saveManifest()
}

// CreateDatabase creates a database.
func (c *Cluster) CreateDatabase(db string) error {
	if err := c.Catalog.CreateDatabase(db); err != nil {
		return err
	}
	return c.saveManifest()
}

// CreateSet creates a set of a registered type.
func (c *Cluster) CreateSet(db, set, typeName string) error {
	if _, err := c.Catalog.CreateSet(db, set, typeName); err != nil {
		return err
	}
	return c.saveManifest()
}

// SendData ships client-built pages into the cluster, round-robin across
// workers — the zero-cost dispatch of paper §3: the occupied portion of each
// allocation block is transferred in its entirety with no pre-processing.
// Rows placed this way follow no key, so a page appended to a non-empty set
// clears its partition label (catalog.Master.UpdateSetStats).
func (c *Cluster) SendData(db, set string, pages []*object.Page) error {
	if _, err := c.Catalog.LookupSet(db, set); err != nil {
		return err
	}
	for i, p := range pages {
		if err := c.storePage(c.Workers[i%len(c.Workers)], db, set, p, ""); err != nil {
			return err
		}
	}
	return nil
}

// storePage ships a client page to w and appends it to db.set, its rows
// placed by partitionKey ("" for any other placement).
func (c *Cluster) storePage(w *Worker, db, set string, p *object.Page, partitionKey string) error {
	q, err := c.Transport.Ship(p, w.Reg())
	if err != nil {
		return err
	}
	if err := w.Front.Store.Append(db, set, []*object.Page{q}); err != nil {
		return err
	}
	return c.noteAppend(db, set, 1, int64(p.Used()), partitionKey)
}

// noteAppend records pages appended to a set, routed by partitionKey ("" for
// any other placement), and persists the catalog manifest when the append
// changed the set's partition label, so a restart never restores a label
// the rows no longer follow.
func (c *Cluster) noteAppend(db, set string, pages int, bytes int64, partitionKey string) error {
	if c.Catalog.UpdateSetStats(db, set, pages, bytes, partitionKey) {
		return c.saveManifest()
	}
	return nil
}

// ScanSet iterates every object of a set across all workers (gathering to
// the "client": each worker's pages are read in place — no shipping needed
// inside the simulation, matching a client-side cursor). A worker that
// holds no pages of the set contributes nothing; a worker whose stored
// pages fail to read or decode fails the scan with the storage error.
func (c *Cluster) ScanSet(db, set string, fn func(r object.Ref) bool) error {
	if _, err := c.Catalog.LookupSet(db, set); err != nil {
		return err
	}
	for _, w := range c.Workers {
		pages, err := storedPages(w.Front.Store, db, set)
		if err != nil {
			return err
		}
		for _, p := range pages {
			if p.Root() == 0 {
				continue
			}
			root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
			for i := 0; i < root.Len(); i++ {
				if !fn(root.HandleAt(i)) {
					return nil
				}
			}
		}
	}
	return nil
}

// CountSet counts a set's objects cluster-wide.
func (c *Cluster) CountSet(db, set string) (int, error) {
	n := 0
	err := c.ScanSet(db, set, func(object.Ref) bool { n++; return true })
	return n, err
}

// Close tears the cluster down: socket transports release their listener,
// dialed connections, and socket files, and proc mode (Config.ProcBin) kills
// every spawned pcworker process and waits for it to exit. The page pool's
// free list is dropped. Stored data under Config.DataDir is untouched — a
// cluster reopened on the same directory restores its sets. Idempotent; safe
// on a cluster whose transport is the default in-process copier.
func (c *Cluster) Close() error {
	if c.procs != nil {
		for _, pw := range c.procs.workers {
			pw.stop() // kill, reap, remove the control socket
		}
	}
	c.pool.Drain()
	return c.Transport.Close()
}

// DropSet removes a set cluster-wide.
func (c *Cluster) DropSet(db, set string) error {
	if err := c.Catalog.DropSet(db, set); err != nil {
		return err
	}
	for _, w := range c.Workers {
		_ = w.Front.Store.Drop(db, set) // workers without data are fine
	}
	return c.saveManifest()
}
