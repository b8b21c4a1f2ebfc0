package cluster

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/physical"
)

// HashPartitionJoinKind implements the paper's 2n-job-stage distributed
// equi-join (Appendix D.3) for two sets: the strategy for a build side too
// large to broadcast, chosen by the caller (a planned core.Join always
// broadcasts its build side). The repartition stages stream: both sides' repartition scans, the shuffle,
// and the build all run concurrently, connected by exchanges —
//
//  1. Every worker repartitions its local objects of both sets across
//     Config.Threads executor threads; each thread's RepartitionSink
//     streams every sealed per-partition page straight to the worker
//     owning that partition, tagged (worker, thread, sequence).
//  2. Concurrently, every worker builds its hash table from the build
//     (right) side's stream as pages arrive — delivered in deterministic
//     tag order and dealt round-robin across Config.Threads builder
//     threads, whose tables merge bucket-wise in thread order — while
//     draining the probe (left) side's stream into the exchange's
//     replay retention: retention is the probe buffer, metered against
//     Config.MemoryBudget (and spillable) like any retained page.
//  3. When its build stream closes, each worker rewinds the probe stream
//     and probes it in windows of Config.CheckpointInterval pages
//     (contiguous-chunk parallel probe, thread-ordered emit), releasing
//     each window from retention as it goes.
//
// keyL/keyR extract the join key hash from an object (the compiled key
// lambdas); emit is invoked on each pair kind selects (below), running on
// the owning worker's goroutine; the returned ExecStats carry the crash
// accounting (RoleRetries "producer", "consumer" for the build phase,
// "probe" for the probe/emit phase) and the step's one StageShip. Matches
// are verified with eq (hash collisions are not matches). keyL, keyR, and
// eq are called concurrently across workers and executor threads and must
// be safe for concurrent use (pure functions of their arguments). A worker
// never calls emit from two executor threads at once, but different workers
// probe — and emit — in parallel: an emit touching state shared across
// workers must synchronize it.
//
// # Join kinds
//
// kind selects the output semantics. The left set is the probe side, the
// right set the build side:
//
//   - JoinInner emits every matching pair.
//   - JoinLeft emits every matching pair plus (l, NilRef) for each probe
//     row with no match.
//   - JoinSemi emits (l, r) once per probe row with at least one match (r
//     is the first matching build row in bucket order).
//   - JoinAnti emits (l, NilRef) for each probe row with no match.
//   - JoinRight emits every matching pair, then — after the probe stream
//     drains — (NilRef, r) for each build row no probe row matched.
//   - JoinFull combines JoinLeft's probe behavior with JoinRight's tail.
//
// The right/full kinds track build-side matches in a bitmap indexed by
// exchange delivery order. The bitmap is checkpointed alongside the probe
// cursor: bits are re-marked idempotently when a crash replays a probe
// window (marking precedes the exactly-once skip check, under the
// fault.ProbeBitmap site), and the unmatched-row tail sweep checkpoints
// its own cursor, so emit stays exactly-once across crashes at every site
// and output is bit-for-bit identical to a crash-free run. Join recovery
// state lives in memory: a join whose process dies re-runs from its start
// on the next run, so emit is at-least-once across process deaths.
//
// # Probe/emit recovery
//
// A backend crash anywhere in the join is recovered (within
// Config.MaxRetries). A producer crash (the key panics while
// repartitioning) is re-forked and re-run; the deterministic retry
// re-sends the same tags and the lanes drop its duplicates at the sender.
// A build-phase consumer crash restores the build's checkpoint: the build
// clones its per-thread tables every Config.CheckpointInterval pages —
// plus once at stream end — and the re-forked backend restores the clones,
// rewinds both streams, and replays only the pages past their cuts. A
// probe/emit-phase crash recovers the same way: the probe runs in windows
// of Config.CheckpointInterval pages, checkpointing a probe cursor and
// emitted-match count after each window and acknowledging the window's
// pages to the exchange; the re-forked backend rebuilds the table from the
// completed build's clones, rewinds the probe stream to the cursor, and
// replays the suffix, skipping matches user code already observed — match
// order equals page order, so the skip prefix is exact and emit sees every
// match exactly once. Match output is bit-for-bit identical to a
// crash-free run in every case. With recovery disabled
// (CheckpointInterval < 0) the consumer runs the same path with the cuts
// absent — no table clones, no saved cursor, no retry: any consumer crash
// fails the join — in windows of physical.DefaultCheckpointInterval pages.
func (c *Cluster) HashPartitionJoinKind(kind core.JoinKind, dbL, setL, dbR, setR string,
	keyL, keyR func(object.Ref) uint64,
	eq func(l, r object.Ref) bool,
	emit func(workerID int, l, r object.Ref) error) (*ExecStats, error) {
	nw := len(c.Workers)
	interval := c.checkpointEvery()
	// One governor per consumer backend, shared by both exchanges: the
	// memory budget is per backend, not per shuffle. Build-side delivered
	// pages are consumer-owned (the tables reference them in place, so they
	// live for the join regardless); probe-side delivered pages are
	// exchange-owned replay retention — metered, evictable, and released
	// once the probe acknowledges past them — with recovery on or off:
	// retention is what holds the probe side while the build runs. The
	// release is a no-op rather than a pool recycle because user emit code
	// may hold refs into probe pages; dropping the exchange's reference lets
	// the garbage collector reclaim them exactly when user code is done.
	govs, closeGovs := c.stepGovernors()
	defer closeGovs()
	exL := c.newShuffleExchange(true, func(*object.Page) {}, govs)
	exR := c.newShuffleExchange(interval > 0, nil, govs)
	stats := &ExecStats{Threads: c.Cfg.Threads, RoleRetries: map[string]int{}}
	roles := make([]role, 3*nw)
	for i, w := range c.Workers {
		env := c.env(w)
		// Producer roles: repartition-stream each side.
		produce := func(ex *exchange.Exchange, db, set string, key func(object.Ref) uint64) role {
			return role{w: w, name: roleProducer, what: "join repartition " + set,
				onRetry: stats.noteRetry(roleProducer, false),
				body:    func() error { return env.streamRepartition(db, set, key, ex) },
				closes:  ex}
		}
		roles[i], roles[nw+i] = produce(exL, dbL, setL, keyL), produce(exR, dbR, setR, keyR)
		// Consumer role: build from the right stream, retain the left
		// stream, probe in windows, emit.
		j := &joinSpec{kind: kind, keyL: keyL, keyR: keyR, eq: eq,
			emit: func(l, r object.Ref) error { return emit(i, l, r) }}
		rec := &joinRecovery{}
		build := &exchangeEnd{ex: exR, worker: i, replayable: interval > 0}
		probe := &exchangeEnd{ex: exL, worker: i, replayable: true}
		roles[2*nw+i] = role{w: w, name: roleConsumer, what: "join build/probe", noRetry: interval <= 0,
			saves: &rec.saves,
			onRetry: func() {
				if rec.built {
					stats.noteRetry(roleProbe, true)()
				} else {
					stats.noteRetry(roleConsumer, true)()
				}
			},
			body: func() error { return env.consumeJoin(build, probe, j, interval, interval, rec) }}
	}
	// Join recovery state is in-memory clones: beyond runStep's discard of
	// both exchanges there is nothing to drop.
	ship, err := c.runStep(roles, govs, exL, exR)
	stats.Ships = []StageShip{ship}
	if err != nil {
		return stats, fmt.Errorf("cluster: hash-partition join %s.%s ⋈ %s.%s: %w", dbL, setL, dbR, setR, err)
	}
	return stats, nil
}

// joinSpec is the user's side of one worker's join: the kind, the compiled
// key lambdas and equality check, and emit bound to the worker.
type joinSpec struct {
	kind       core.JoinKind
	keyL, keyR func(object.Ref) uint64
	eq         func(l, r object.Ref) bool
	emit       func(l, r object.Ref) error
}

// needTail reports whether the kind sweeps unmatched build rows after the
// probe (and so tracks build-side matches in a bitmap).
func (j *joinSpec) needTail() bool { return j.kind == core.JoinRight || j.kind == core.JoinFull }

// streamRepartition runs one worker's repartition of one set across its
// executor threads: each thread hashes its contiguous chunk into a private
// RepartitionSink whose per-partition pages stream to the owning worker the
// moment they seal. The thread flushes its partitions' final pages and
// sends its close marker on the way out.
func (e *workerEnv) streamRepartition(db, set string, key func(object.Ref) uint64, ex *exchange.Exchange) error {
	pages, err := storedPages(e.store, db, set)
	if err != nil {
		return err
	}
	chunks := e.threadChunks(pages)
	tstats := make([]engine.Stats, len(chunks))
	err = engine.ParallelThreads(len(chunks), func(t int, stop <-chan struct{}) error {
		sink, err := engine.NewRepartitionSink(e.reg, e.pageSize, e.workers, "h", "obj", e.pool, &tstats[t])
		if err != nil {
			return err
		}
		seqs := make([]int, e.workers)
		sink.SetOnSeal(func(part int, p *object.Page) error {
			e.fault.Hit(fault.PageSeal, e.id)
			tag := exchange.Tag{Producer: e.id, Thread: t, Seq: seqs[part]}
			seqs[part]++
			return streamErr(ex.Send(tag, part, p, stop))
		})
		if err := engine.ScanRanges(chunks[t], "obj", repartitionBatch(sink, key, stop)); err != nil {
			return err
		}
		if err := sink.CloseStream(); err != nil {
			return err
		}
		return streamErr(ex.CloseThread(e.id, t, stop))
	})
	e.noteStats(tstats...)
	return err
}

// repartitionBatch is the scan callback that routes a batch of objects
// (column "obj") through sink by their key hash (column "h"); it aborts the
// scan once stop closes (a nil stop never does).
func repartitionBatch(sink *engine.RepartitionSink, key func(object.Ref) uint64, stop <-chan struct{}) func(*engine.VectorList) error {
	return func(vl *engine.VectorList) error {
		select {
		case <-stop:
			return engine.ErrAborted
		default:
		}
		rc := vl.Col("obj").(engine.RefCol)
		hashes := make(engine.U64Col, len(rc))
		for j, r := range rc {
			hashes[j] = key(r)
		}
		vl.Append("h", hashes)
		return sink.Consume(nil, vl, nil)
	}
}

// consumeJoin is the join's one consumer body, whatever carries its two page
// streams (exchange ends for HashPartitionJoinKind, the worker's stored
// pages for CoPartitionedJoin): build the table while the probe stream
// drains into its end's retention, probe the rewound stream in windows, then
// sweep the outer tail. buildEvery and probeEvery are the two phases' cut
// intervals; at <= 0 a phase runs the same code with its cut hooks absent.
func (e *workerEnv) consumeJoin(build, probe consumerEnd, j *joinSpec, buildEvery, probeEvery int, rec *joinRecovery) error {
	var table *engine.JoinTable
	if rec.built {
		// Probe-phase crash: the completed build's clones rebuild the
		// table without touching the build stream (already fully
		// delivered and acked) — merged in thread order onto a clone, so
		// the record stays pristine for the next crash (Merge never
		// mutates its argument).
		table = rec.tables[0].Clone()
		for _, tbl := range rec.tables[1:] {
			table.Merge(tbl)
		}
	} else {
		var err error
		if table, err = e.gatherJoinStreams(build, probe, j, buildEvery, rec); err != nil {
			return err
		}
		// The epilogue cut cloned the complete tables (or the last
		// interval cut already covered the stream); from here on a crash
		// is a probe-phase crash. A build without cuts holds no clones:
		// its retry, where there is one, rebuilds.
		rec.built = buildEvery > 0
	}
	// The gather delivered the whole probe stream, so the cursor — zero or a
	// probe cut of this attempt's predecessor — is at most what this end has
	// delivered: hello rewinds to it and acknowledges the prefix the cut
	// already covers.
	if err := probe.hello(rec.probeCursor); err != nil {
		return err
	}
	bitmap, counter, err := e.probeEmitStream(probe, table, j, probeEvery, rec)
	if err != nil {
		return err
	}
	return e.sweepUnmatchedBuildRows(j, bitmap, counter, probeEvery, rec)
}

// gatherJoinStreams overlaps the join's two shuffles with the build: the
// build-side stream feeds the hash table as pages arrive while the
// probe-side stream drains concurrently, so neither side's producers stall
// on a full lane longer than the backpressure bound. The drained probe
// pages are dropped on delivery — the end's retention holds them for the
// windowed probe to rewind over. The build (re)starts at its last cut; the
// probe side from zero, since nothing of it is acknowledged before the build
// completes. A panic on either goroutine re-raises on the caller, the
// backend goroutine (engine.ParallelFor): the user key lambda in the build,
// and in the drain a crash under Recv — which settles the governor's
// accounting and can spill a retained page — must reach the backend, not
// kill the process.
func (e *workerEnv) gatherJoinStreams(build, probe consumerEnd, j *joinSpec, interval int, rec *joinRecovery) (*engine.JoinTable, error) {
	if err := build.hello(rec.cut); err != nil {
		return nil, err
	}
	if err := probe.hello(0); err != nil {
		return nil, err
	}
	var table *engine.JoinTable
	err := engine.ParallelFor(2, func(side int) (err error) {
		if side == 0 {
			table, err = e.buildTableStream(build, j, interval, rec)
			return err
		}
		for {
			if _, ok, err := probe.next(); err != nil || !ok {
				return err
			}
		}
	})
	return table, err
}

// buildTableStream builds the probe hash table incrementally from the build
// stream: pages are dealt round-robin by global delivery index across the
// worker's builder threads (a pure function of the deterministic delivery
// order), and the per-thread tables merge bucket-wise in thread order after
// the stream closes. Build pages are never recycled — the table references
// their objects for the life of the join.
//
// With interval > 0 the build checkpoints for consumer crash recovery:
// every interval pages — and once more at stream end — the quiesced
// per-thread tables are cloned into rec and the cut acknowledged to the
// end; a resumed build (rec already holding clones) starts from those
// tables at rec.cut, fed by an end positioned at the same cut, and
// reproduces the crash-free table exactly. The epilogue clone means rec
// always holds the complete table set once the stream closes, which is
// what probe-phase recovery restores from.
func (e *workerEnv) buildTableStream(end consumerEnd, j *joinSpec, interval int, rec *joinRecovery) (*engine.JoinTable, error) {
	// Drop build rows appended past the last committed cut: the rewound
	// stream redelivers those pages and next re-appends their rows.
	rec.buildRows = rec.buildRows[:rec.buildRowsCut]
	tables := make([]*engine.JoinTable, e.threads)
	start := 0
	if rec.tables != nil {
		start = rec.cut
		for t := range tables {
			tables[t] = rec.tables[t].Clone()
		}
	} else {
		for t := range tables {
			tables[t] = engine.NewJoinTable()
		}
	}
	resizesBefore := 0
	for _, tbl := range tables {
		resizesBefore += int(tbl.Resizes())
	}
	next := func() (*object.Page, bool, error) {
		p, ok, err := end.next()
		if ok {
			e.fault.Hit(fault.BuildPage, e.id)
			if j.needTail() {
				// Delivery order defines the match bitmap's index space;
				// next runs on the dispatch goroutine, so the append stays
				// aligned with the delivered-page count the cuts commit.
				appendPageRows(&rec.buildRows, p)
			}
		}
		return p, ok, err
	}
	tstats := make([]engine.Stats, len(tables))
	fold := func(t int, p *object.Page) error {
		if p.Root() == 0 {
			return nil
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		tbl, key := tables[t], j.keyR
		for i, n := 0, root.Len(); i < n; i++ {
			r := root.HandleAt(i)
			tbl.Add(key(r), r)
		}
		tstats[t].HashProbes += root.Len()
		return nil
	}
	var cut func(delivered int, final bool) error
	if interval > 0 {
		cut = func(delivered int, _ bool) error {
			e.fault.Hit(fault.Checkpoint, e.id)
			clones := make([]*engine.JoinTable, len(tables))
			for t := range tables {
				clones[t] = tables[t].Clone()
			}
			rec.cut, rec.tables, rec.buildRowsCut = delivered, clones, len(rec.buildRows)
			rec.saves++
			return end.ack(delivered)
		}
	}
	if err := engine.StreamPagesCheckpointed(next, len(tables), false, start, interval, fold, cut); err != nil {
		return nil, err
	}
	table := tables[0]
	for _, tbl := range tables[1:] {
		table.Merge(tbl)
	}
	resizes := -resizesBefore
	for _, tbl := range tables {
		resizes += int(tbl.Resizes())
	}
	tstats[0].HashResizes += resizes
	e.noteStats(tstats...)
	return table, nil
}

// probeEmitStream is the probe/emit phase: it consumes the rewound probe
// stream in windows of interval pages, probes each window in parallel
// (collectProbeMatches — match order is page order, independent of the
// thread split), and emits the matches in order, maintaining the
// exactly-once cursor as it goes. After each window it checkpoints
// (rec.probeCursor/rec.emittedAtCut) and acknowledges the window's pages,
// bounding both the replay window and — under Config.MemoryBudget — the
// probe side's retained memory. On a replayed window, matches below
// rec.emitted were already observed by user code and are skipped: window
// boundaries are a pure function of the cursor, so the replayed window's
// match sequence is identical to the crashed attempt's and the skip prefix
// is exact. With interval <= 0 nothing is checkpointed (no saved cursor, no
// counted cut, no Checkpoint site) but the windows stay, at the planner's
// default size: the acknowledgement releases retention, the window bounds
// the match buffer.
//
// For the right/full kinds the returned bitmap records which build rows
// (delivery-order index) matched some probe row. Marking happens before the
// skip check — a replayed window restarts from the checkpointed bitmap
// snapshot, so its marks must be re-applied even for matches user code
// already observed; setting a set bit is idempotent, and each checkpoint
// snapshots the bitmap alongside the cursor it describes.
func (e *workerEnv) probeEmitStream(end consumerEnd, table *engine.JoinTable, j *joinSpec,
	interval int, rec *joinRecovery) ([]uint64, int, error) {
	counter, cursor := rec.emittedAtCut, rec.probeCursor
	pagesPerWindow := interval
	if interval <= 0 {
		pagesPerWindow = physical.DefaultCheckpointInterval
	}
	var bitmap []uint64
	var rowIdx map[object.Ref]int
	if j.needTail() {
		bitmap = make([]uint64, (len(rec.buildRows)+63)/64)
		copy(bitmap, rec.bitmapAtCut)
		rowIdx = buildRowIndex(rec.buildRows)
	}
	// scratch backs each window's flattened match list and is recycled
	// across windows, so a long probe stream allocates the flatten buffer
	// O(1) times instead of once per window.
	var scratch [][2]object.Ref
	for done := false; !done; {
		var window []*object.Page
		var pstats engine.Stats
		for len(window) < pagesPerWindow {
			p, ok, err := end.next()
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				done = true
				break
			}
			e.fault.Hit(fault.ProbePage, e.id)
			window = append(window, p)
			if p.Root() != 0 {
				pstats.HashProbes += object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len()
			}
		}
		if len(window) == 0 {
			break // the stream ended on a window boundary
		}
		e.noteStats(pstats)
		matches, err := e.collectProbeMatches(window, table, j, scratch[:0])
		if err != nil {
			return nil, 0, err
		}
		scratch = matches
		for _, m := range matches {
			if bitmap != nil && m[1] != object.NilRef {
				e.fault.Hit(fault.ProbeBitmap, e.id)
				markBit(bitmap, rowIdx[m[1]])
			}
			if counter < rec.emitted {
				// Replay of a match user code already observed.
				counter++
				continue
			}
			e.fault.Hit(fault.Emit, e.id)
			if err := j.emit(m[0], m[1]); err != nil {
				return nil, 0, err
			}
			counter++
			// The emit landed; a crash past this point replays the
			// window but skips this match.
			rec.emitted = counter
		}
		cursor += len(window)
		if interval > 0 {
			e.fault.Hit(fault.Checkpoint, e.id)
			rec.probeCursor = cursor
			rec.emittedAtCut = counter
			if bitmap != nil {
				rec.bitmapAtCut = append(rec.bitmapAtCut[:0], bitmap...)
			}
			rec.saves++
		}
		if err := end.ack(cursor); err != nil {
			return nil, 0, err
		}
	}
	return bitmap, counter, nil
}

// sweepUnmatchedBuildRows is the right/full outer tail: after the probe
// stream drains — so the bitmap is final — it walks the build rows in
// delivery order and emits (NilRef, r) for each row no probe row matched.
// The sweep continues the probe phase's global emit counter (counter: what
// the probe returned — the committed count when a retry had nothing left to
// probe) and, with interval > 0, checkpoints its cursor every interval rows:
// boundaries are a pure function of the committed cursor and the emit
// sequence a pure function of (bitmap, cursor), so a replayed sweep skips
// exactly the rows user code already observed.
func (e *workerEnv) sweepUnmatchedBuildRows(j *joinSpec, bitmap []uint64, counter, interval int, rec *joinRecovery) error {
	if !j.needTail() {
		return nil
	}
	scanned := 0
	for i := rec.tailCursor; i < len(rec.buildRows); i++ {
		if !bitAt(bitmap, i) {
			if counter < rec.emitted {
				counter++
			} else {
				e.fault.Hit(fault.Emit, e.id)
				if err := j.emit(object.NilRef, rec.buildRows[i]); err != nil {
					return err
				}
				counter++
				rec.emitted = counter
			}
		}
		scanned++
		if interval > 0 && scanned%interval == 0 {
			e.fault.Hit(fault.Checkpoint, e.id)
			rec.tailCursor = i + 1
			rec.emittedAtCut = counter
			rec.saves++
		}
	}
	return nil
}

// appendPageRows appends a delivered page's root-vector rows (the build
// rows it carries) in page order.
func appendPageRows(rows *[]object.Ref, p *object.Page) {
	if p.Root() == 0 {
		return
	}
	root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
	for j, n := 0, root.Len(); j < n; j++ {
		*rows = append(*rows, root.HandleAt(j))
	}
}

// buildRowIndex inverts a delivery-ordered build-row list into the map the
// sequential emit loop marks the match bitmap through.
func buildRowIndex(rows []object.Ref) map[object.Ref]int {
	idx := make(map[object.Ref]int, len(rows))
	for i, r := range rows {
		idx[r] = i
	}
	return idx
}

func markBit(bits []uint64, i int)    { bits[i>>6] |= 1 << (uint(i) & 63) }
func bitAt(bits []uint64, i int) bool { return bits[i>>6]&(1<<(uint(i)&63)) != 0 }

// probeBufPool recycles the per-thread match buffers of collectProbeMatches
// across calls.
var probeBufPool = sync.Pool{New: func() any {
	b := make([][2]object.Ref, 0, 1024)
	return &b
}}

// collectProbeMatches is the join's one probe loop: it probes pages through
// the read-only build table across the worker's executor threads and
// returns the kind's emit sequence in page order, appended to reuse (pass a
// zero-length slice with retained capacity to recycle the flatten buffer
// across calls). Inner/right kinds list every matching pair; left/full add
// (l, NilRef) for matchless probe rows; semi keeps only the first match per
// probe row; anti keeps only the (l, NilRef) entries. Each thread probes a
// contiguous chunk into a pooled private buffer and the buffers concatenate
// in thread order, so the result is exactly the sequence a sequential probe
// over the same pages would emit — per-row logic is local to the row, so
// the kind cannot perturb determinism — and the caller emits it on its own
// goroutine: one worker never invokes emit from two threads at once.
func (e *workerEnv) collectProbeMatches(pages []*object.Page, table *engine.JoinTable, j *joinSpec,
	reuse [][2]object.Ref) ([][2]object.Ref, error) {
	kind, key, eq := j.kind, j.keyL, j.eq
	probeRanges := func(ranges []engine.PageRange, out [][2]object.Ref) [][2]object.Ref {
		for _, rng := range ranges {
			root := object.AsVector(object.Ref{Page: rng.Page, Off: rng.Page.Root()})
			for i := rng.Start; i < rng.End; i++ {
				l := root.HandleAt(i)
				b := table.Bucket(key(l))
				matched := false
				for k, n := 0, b.Len(); k < n; k++ {
					r := b.At(k)
					if !eq(l, r) {
						continue
					}
					matched = true
					if kind != core.JoinAnti {
						out = append(out, [2]object.Ref{l, r})
					}
					if kind == core.JoinSemi || kind == core.JoinAnti {
						break // membership decided; later matches are moot
					}
				}
				if !matched && (kind == core.JoinAnti || kind == core.JoinLeft || kind == core.JoinFull) {
					out = append(out, [2]object.Ref{l, object.NilRef})
				}
			}
		}
		return out
	}
	chunks := e.threadChunks(pages)
	matches := make([]*[][2]object.Ref, len(chunks))
	if err := engine.ParallelFor(len(chunks), func(t int) error {
		buf := probeBufPool.Get().(*[][2]object.Ref)
		*buf = probeRanges(chunks[t], (*buf)[:0])
		matches[t] = buf
		return nil
	}); err != nil {
		return nil, err
	}
	for _, buf := range matches {
		reuse = append(reuse, *buf...)
		probeBufPool.Put(buf)
	}
	return reuse, nil
}
