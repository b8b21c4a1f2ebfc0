// Package engine implements PC's vectorized execution engine (paper §5,
// Appendix C). TCAP statements are executed as pipelines of fully-compiled
// stages; each stage consumes a *vector list* (named columns) and produces
// a new vector list, amortizing any dispatch over a whole vector of
// objects. Pipelines end in sinks — output sets, pre-aggregation maps, or
// join hash tables — whose data structures are PC objects allocated in
// place on output pages, so they ship with zero serialization cost.
//
// # Stage lifecycle
//
// A job stage (internal/physical.JobStage) runs in four steps, each driven
// by this package:
//
//  1. Scan. The stage's source pages are enumerated as batch-sized
//     PageRanges (BatchRanges) and streamed as single-column vector lists
//     (ScanRanges/ScanPages). The handle column is scratch reused across
//     batches; pipeline stages copy what they keep.
//  2. Pipeline. Each batch flows through the stage's non-breaking TCAP
//     statements (APPLY, HASH, FILTER, FLATTEN, JOIN-probe) via
//     Pipeline.RunBatch. Kernels allocate result objects directly on the
//     live output page (Ctx.Out); a page-full fault rotates the page and
//     retries, splitting the batch recursively if even a fresh page cannot
//     hold it.
//  3. Sink. The surviving rows of each batch enter the stage's terminal
//     Sink: OutputSink (result-set root vectors), AggSink (per-partition
//     pre-aggregation maps), JoinBuildSink (probe hash tables), or
//     RepartitionSink (per-partition shuffle pages).
//  4. Merge. When the stage ran on several executor threads, the
//     per-thread sinks are combined by the sink-merge protocol below —
//     unless the sink streams, in which case its pages already left
//     through the exchange (see "The OnSeal streaming sink contract").
//
// # Per-thread scratch: a batch allocates nothing
//
// After its first batch an executor thread makes no Go object per batch
// for a run of APPLY and HASH statements (object allocations on the output
// page aside); rows a filter drops are still gathered into fresh columns,
// and FLATTEN and join probes build theirs. What a batch passes through is
// scratch owned by the thread and rewritten by the next batch:
//
//   - Kernel output columns live on the thread's Ctx, one slot per
//     statement, indexed by the statement's position in Pipeline.Stmts
//     (the pass sets it before each kernel, fused or not). Kernels are
//     shared by every thread and worker, so they hold none themselves: a
//     kernel takes its typed column from the Ctx (ColBuf) instead of
//     calling make. The slot keeps the column boxed as a Column — a slice
//     converted to an interface allocates its header — and boxes again
//     only when the batch length changes. hashColumn's U64Col and a native
//     kernel's argument vector (Ctx.ArgBuf) are slots the same way.
//   - The pipeline (one per thread) resolves each statement's kernel and
//     new column name once and reuses its input slice, its output header,
//     the fused pass's selection vector, compaction headers and final
//     projection. The caller's batch is never mutated.
//   - ScanRanges reuses the handle column, its boxed header and the
//     vector-list header.
//
// So a column is valid until its thread's next batch. A later statement
// may read it; a sink copies what it keeps — a value, a handle, a row on
// its own page — never the column. Outside a pipeline (a kernel called
// directly, ExecuteStmtForTest) the buffers are freshly allocated.
//
// # The typed aggregation fold
//
// An aggregation's maps are updated one (key, value) pair at a time, and
// there are two ways to do it that write the same bytes. The boxed update
// (updateAggEntry) serves every AggSpec: it boxes the pair into
// object.Values, probes through OMap and calls the spec's combine closure.
// A spec that declares a Fold — sum, min or max — over a KInt64 key and a
// KInt64 or KFloat64 value is also served by the typed fold
// (object.ScalarSlots.Fold): one FNV hash per row, used for the partition
// route and the probe; a probe on the raw 20-byte slots; the op applied in
// place. The choice is made from the spec and from what arrives, never from
// configuration:
//
//   - AggSink.Consume takes the typed loop for a batch whose key column is
//     an I64Col and whose value column is the I64Col or F64Col matching the
//     spec's value kind. Any other batch under the same spec — a boxed
//     ValCol, a float column feeding an int64 map, string or handle columns
//     — goes through the boxed update with the combine derived from the
//     Fold (AggSpec.Combiner), which converts where the typed loop would
//     mis-read.
//   - The merge (subMerger.fold) takes it slot to slot when the source map
//     has the same scalar layout.
//   - A Fold over a KInt32 value, or over a string or float key, has no
//     20-byte slots: boxed path, derived combine. Handle-valued aggregates
//     (k-means, the TPC-H map-valued ones), DISTINCT and anonymous closures
//     declare no Fold and are untouched.
//
// Page bytes are path-independent: the typed fold makes updateAggEntry's
// mutations in updateAggEntry's order (combine, growth check, rehash,
// claim, write), grows through the same OMap rehash, and faults with
// ErrPageFull at the same points, so rotate points, sub-map pages
// and Stats.HashProbes/HashResizes are those of the boxed path
// (TestUpdateAggEntryMatchesGetPut/typed, FuzzTypedAggMatchesBoxed). Growth
// itself is typed where the layout allows: OMap's rehash moves 20-byte
// scalar slots as raw bytes (pinned against its generic walk in package
// object), and a typed merger outgrowing its sub-map page re-inserts the
// entries in slot order through the new map's Fold (subMerger.regrowSlots),
// which on unique keys is Put's mutations in Put's order.
//
// A map that moves to a new page starts at the slot count it had reached,
// because an outgrown slot array stays on its page (blocks are regions) and
// ships with it. A rotated AggSink page makes each partition map at the
// count the partition's map reached on the page before (the first page at
// 8; halved until the maps leave rotateAt free), and a regrown merge
// sub-map starts at the count the faulted update needed (OMap.NeedSlots),
// so the copy never rehashes.
//
// # Intra-worker parallelism and the sink-merge protocol
//
// RunPipelineThreads splits a stage's source into contiguous chunks, one
// executor thread per chunk, each with a private Pipeline, Ctx, output page
// set, Stats, and sink — nothing shared on the per-row path. After the
// stage barrier the coordinating goroutine merges per-thread results in
// thread order, which is source order because chunks are contiguous:
//
//   - Output/materialize sinks: pages are concatenated in thread order
//     (PipelineThreads.OutputPages), so parallel runs materialize objects
//     in exactly the sequential order.
//   - Pre-aggregation sinks: every thread's map pages go to the merge as
//     they are, in thread order — through a shuffle on a cluster, as one
//     page slice in the single-process executor (both merge through
//     core.StageEnv.MergeAggregation); the merge folds them
//     like any other partial aggregates (Combine is associative).
//   - Join-build sinks: per-thread hash tables merge bucket-wise in thread
//     order (JoinTable.Merge via PipelineThreads.MergeJoinTables), so
//     per-bucket row order matches a sequential build.
//
// # The OnSeal streaming sink contract
//
// A sink whose output feeds a shuffle does not accumulate an artifact
// list. Installing OutputPageSet.OnSeal turns the sink into a stream:
// every page is handed to the hook — an exchange channel — the moment
// Rotate seals it, and the hook takes ownership (the hook may recycle the
// page at once, so AggSink, whose batch rows can be objects the kernels
// allocated on its own live page, keeps a page that seals while it is
// folding a batch back until the batch is done). When an executor thread
// finishes its chunk, RunPipelineThreads calls the sink's CloseStream on
// that same thread, flushing the final live page through the hook; the
// optional done epilogue then lets the caller send its thread-close
// marker. A thread's whole stream is therefore emitted in (thread,
// sequence) order on the producing thread, which is what lets the
// exchange reconstruct a deterministic global order at the consumer.
// StreamSink marks the sinks that implement the contract (OutputSink,
// AggSink, RepartitionSink); without a hook CloseStream is a no-op and
// the sink behaves exactly as before. mk receives the run's stop channel
// (closed on sibling-thread failure) so a hook blocked on exchange
// backpressure can bail out with ErrAborted instead of deadlocking the
// stage barrier.
//
// The consuming phases parallelize with the same machinery:
//
//   - Aggregation consume: MergeAggMapsStream (fed page by page, from an
//     exchange or a page slice) splits a partition's key space into
//     hash-range sub-partitions (LogicalKeyHash, so handle keys route by
//     logical value, not page offset); each thread folds only its sub-partition's keys into a
//     private sub-map, consuming pages in the stream's deterministic
//     order through the one stream fan-out (streamPages; exported as
//     StreamPages for the join build). FinalizeAggParallel
//     then materializes the sub-maps concurrently and concatenates their
//     pages in sub-partition order.
//   - Join build/probe (internal/cluster.HashPartitionJoinKind, shuffled
//     or over co-partitioned sets, one consumer body): the build side
//     streams into per-thread tables (pages dealt round-robin by delivery
//     index) merged bucket-wise; per window of probe pages, probe threads buffer
//     their matches, which are emitted after the window's barrier in
//     thread order — so user emit callbacks never run concurrently on one
//     worker.
//
// The fan-out takes no cuts: a crashed consumer — the aggregation merge,
// the join build — replays its whole retained stream from page 0 through
// the same dispatch, and the deterministic page→thread assignment
// reproduces the crash-free output exactly.
//
// Error and panic discipline: the first failing thread sets a shared abort
// flag checked once per batch (never per row); panics in user kernels are
// re-raised on the coordinating goroutine after the barrier so the
// simulated cluster's crash-proof front end observes them as backend
// crashes.
//
// One caller drives stages through this package: core.StageEnv
// (internal/core/stage.go), the worker stage code that both the
// distributed runtime (internal/cluster) and the single-process executor
// run, so local runs exercise the identical code path as the cluster.
package engine
