package cluster

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
)

// JoinStats reports one hash-partition join's crash accounting.
type JoinStats struct {
	Retries int // backend crash retries, all roles
	// RoleRetries breaks Retries out per role ("producer", "consumer" for
	// the build phase, "probe" for the probe/emit phase).
	RoleRetries map[string]int
	// BuildRecoveries and ProbeRecoveries split the consumer-side
	// recoveries by the phase the crash landed in.
	BuildRecoveries int
	ProbeRecoveries int
	// Checkpoints counts the consumer recovery cuts taken (build clones +
	// probe cursor saves across all workers).
	Checkpoints int
}

// HashPartitionJoinKind implements the paper's 2n-job-stage distributed
// equi-join (Appendix D.3) for two sets, used by the scheduler's
// large-build-side strategy and benchmarked against broadcast joins. The
// repartition stages stream: both sides' repartition scans, the shuffle,
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
//     replay retention (metered against Config.MemoryBudget like any
//     retained page).
//  3. When its build stream closes, each worker rewinds the probe stream
//     and probes it in windows of Config.CheckpointInterval pages
//     (contiguous-chunk parallel probe, thread-ordered emit).
//
// keyL/keyR extract the join key hash from an object (the compiled key
// lambdas); emit is invoked on each pair kind selects (below), running on
// the owning worker's goroutine; the returned JoinStats carry the crash
// accounting. Matches are verified with eq (hash collisions are not
// matches). keyL, keyR, and eq are called concurrently across workers and
// executor threads and must be safe for concurrent use (pure functions of
// their arguments). A worker never calls emit from two executor threads at
// once, but different workers probe — and emit — in parallel: an emit
// touching state shared across workers must synchronize it.
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
// and output is bit-for-bit identical to a crash-free run. Cross-restart
// durable resume (Config.ResumeOnRestart) stays armed only for JoinInner —
// the bitmap lives in memory, and a restarted process cannot reconstruct
// which matches a previous process already observed for the other kinds.
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
// (CheckpointInterval < 0) any consumer crash fails the join.
func (c *Cluster) HashPartitionJoinKind(kind core.JoinKind, dbL, setL, dbR, setR string,
	keyL, keyR func(object.Ref) uint64,
	eq func(l, r object.Ref) bool,
	emit func(workerID int, l, r object.Ref) error) (*JoinStats, error) {
	needTail := kind == core.JoinRight || kind == core.JoinFull
	nw := len(c.Workers)
	interval := c.checkpointEvery(nil)
	// One governor per consumer backend, shared by both exchanges: the
	// memory budget is per backend, not per shuffle. Build-side delivered
	// pages are consumer-owned (the tables reference them in place, so they
	// live for the join regardless); probe-side delivered pages are
	// exchange-owned replay retention — metered, evictable, and released
	// once the probe acknowledges past them. The release is a no-op rather
	// than a pool recycle because user emit code may hold refs into probe
	// pages; dropping the exchange's reference lets the garbage collector
	// reclaim them exactly when user code is done.
	govs, closeGovs := c.stepGovernors()
	defer closeGovs()
	exL := c.newShuffleExchange(interval > 0, func(*object.Page) {}, govs)
	exR := c.newShuffleExchange(interval > 0, nil, govs)
	stats := &JoinStats{RoleRetries: map[string]int{}}
	recs := make([]*joinRecovery, nw)
	roles := make([]role, 3*nw)
	for i, w := range c.Workers {
		// Producer roles: repartition-stream each side.
		for s, side := range []struct {
			ex      *exchange.Exchange
			db, set string
			key     func(object.Ref) uint64
		}{{exL, dbL, setL, keyL}, {exR, dbR, setR, keyR}} {
			roles[s*nw+i] = role{w: w, name: roleProducer, what: "join repartition " + side.set,
				onRetry: func() {
					stats.Retries++
					stats.RoleRetries[roleProducer]++
				},
				body:   func() error { return c.streamRepartition(side.db, side.set, side.key, w, side.ex) },
				closes: side.ex}
		}
		// Consumer role: build from the right stream, retain the left
		// stream, probe in checkpointed windows, emit.
		rec := &joinRecovery{wantBuildRows: needTail}
		if interval > 0 && c.Cfg.ResumeOnRestart && c.Cfg.DataDir != "" && kind == core.JoinInner {
			// Arm durable probe-cut persistence and pick up where a
			// previous cluster's identical join left off, if anywhere.
			rec.resumePath = c.joinResumePath(dbL, setL, dbR, setR, i)
			rec.resumeFP = jobFingerprint(
				fmt.Sprintf("join|%s.%s|%s.%s|i%d", dbL, setL, dbR, setR, interval),
				nw, c.Cfg.Threads, c.Cfg.PageSize)
			loadJoinResume(rec)
		}
		recs[i] = rec
		emitHere := func(l, r object.Ref) error { return emit(i, l, r) }
		roles[2*nw+i] = role{w: w, name: roleConsumer, what: "join build/probe", noRetry: interval <= 0,
			saves: &rec.saves,
			onRetry: func() {
				stats.Retries++
				if rec.built {
					stats.RoleRetries[roleProbe]++
					stats.ProbeRecoveries++
				} else {
					stats.RoleRetries[roleConsumer]++
					stats.BuildRecoveries++
				}
			},
			body: func() error {
				if interval <= 0 {
					// Recovery disabled: the classic buffered path —
					// gather both streams, probe the buffer once.
					table, leftPages, err := c.gatherJoinStreams(exR, exL, i, keyR, interval, rec, true)
					if err != nil {
						return err
					}
					var bitmap []uint64
					var rowIdx map[object.Ref]int
					if needTail {
						bitmap = make([]uint64, (len(rec.buildRows)+63)/64)
						rowIdx = buildRowIndex(rec.buildRows)
					}
					err = parallelProbe(leftPages, table, keyL, eq, kind, c.Cfg.Threads, func(l, r object.Ref) error {
						if needTail && r != object.NilRef {
							markBit(bitmap, rowIdx[r])
						}
						return emit(i, l, r)
					})
					if err != nil {
						return err
					}
					return c.sweepUnmatchedBuildRows(i, kind, bitmap, 0, rec, emitHere)
				}
				var table *engine.JoinTable
				if rec.built {
					// Probe-phase crash: the completed build's clones
					// rebuild the table without touching the build
					// stream (already fully delivered and acked).
					table = restoreJoinTable(rec.tables)
				} else {
					if err := exR.Rewind(i, rec.cut); err != nil {
						return err
					}
					// A restart-restored cursor points past this fresh
					// exchange's (empty) delivery window; the gather
					// below delivers the whole probe stream into
					// retention, and the post-build rewind positions it.
					if !rec.restored {
						if err := exL.Rewind(i, rec.probeCursor); err != nil {
							return err
						}
					}
					t, _, err := c.gatherJoinStreams(exR, exL, i, keyR, interval, rec, false)
					if err != nil {
						return err
					}
					table = t
					// The epilogue cut cloned the complete tables (or
					// the last interval cut already covered the stream);
					// from here on a crash is a probe-phase crash.
					rec.built = true
				}
				if err := exL.Rewind(i, rec.probeCursor); err != nil {
					return err
				}
				bitmap, err := c.probeEmitStream(exL, i, table, keyL, eq, kind, interval, rec, emitHere)
				if err != nil {
					return err
				}
				return c.sweepUnmatchedBuildRows(i, kind, bitmap, interval, rec, emitHere)
			}}
	}
	ship, err := c.runStep(roles, govs, exL, exR)
	stats.Checkpoints = ship.Checkpoints
	if err != nil {
		// Join recovery state is in-memory clones — beyond runStep's
		// discard of both exchanges there is nothing else to drop, except
		// the durable probe-cut files: a crash-type failure on a
		// ResumeOnRestart cluster keeps them, and a restarted cluster
		// resumes the probe from them.
		if !c.keepsResumeState(err) {
			dropJoinResumes(recs)
		}
		return stats, fmt.Errorf("cluster: hash-partition join %s.%s ⋈ %s.%s: %w", dbL, setL, dbR, setR, err)
	}
	dropJoinResumes(recs)
	return stats, nil
}

// dropJoinResumes removes every worker's durable probe-cut file (no-op for
// records that never armed persistence).
func dropJoinResumes(recs []*joinRecovery) {
	for _, rec := range recs {
		if rec.resumePath != "" {
			os.Remove(rec.resumePath)
		}
	}
}

// streamRepartition runs one worker's repartition of one set across
// Config.Threads executor threads: each thread hashes its contiguous chunk
// into a private RepartitionSink whose per-partition pages stream to the
// owning worker the moment they seal. The thread flushes its partitions'
// final pages and sends its close marker on the way out.
func (c *Cluster) streamRepartition(db, set string, key func(object.Ref) uint64,
	w *Worker, ex *exchange.Exchange) error {
	pages, err := storedPages(w.Front.Store, db, set)
	if err != nil {
		return err
	}
	nw := len(c.Workers)
	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), c.Cfg.Threads)
	tstats := make([]engine.Stats, len(chunks))
	err = engine.ParallelThreads(len(chunks), func(t int, stop <-chan struct{}) error {
		sink, err := engine.NewRepartitionSink(w.Reg(), c.Cfg.PageSize, nw, "h", "obj", c.pool, &tstats[t])
		if err != nil {
			return err
		}
		seqs := make([]int, nw)
		sink.SetOnSeal(func(part int, p *object.Page) error {
			c.Cfg.Fault.Hit(fault.PageSeal, w.ID)
			tag := exchange.Tag{Producer: w.ID, Thread: t, Seq: seqs[part]}
			seqs[part]++
			return streamErr(ex.Send(tag, part, p, stop))
		})
		err = engine.ScanRanges(chunks[t], "obj", func(vl *engine.VectorList) error {
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
		})
		if err != nil {
			return err
		}
		if err := sink.CloseStream(); err != nil {
			return err
		}
		return streamErr(ex.CloseThread(w.ID, t, stop))
	})
	w.mergeStats(tstats...)
	return err
}

// gatherJoinStreams overlaps the join's two shuffles with the build: the
// build-side stream feeds the hash table as pages arrive while the
// probe-side stream drains concurrently, so neither side's producers stall
// on a full lane longer than the backpressure bound. With bufferProbe the
// drained probe pages are returned for the non-recoverable buffered probe;
// otherwise they are dropped on delivery — the exchange's replay retention
// holds them for the checkpointed probe to rewind over. A panic on either
// goroutine re-raises on the caller, the backend goroutine
// (engine.ParallelFor): the user key lambda in the build, and in the drain
// a crash under Recv — which settles the governor's accounting and can
// spill a retained page — must reach the backend, not kill the process.
func (c *Cluster) gatherJoinStreams(exBuild, exProbe *exchange.Exchange, worker int,
	key func(object.Ref) uint64, interval int, rec *joinRecovery, bufferProbe bool) (*engine.JoinTable, []*object.Page, error) {
	var table *engine.JoinTable
	var leftPages []*object.Page
	err := engine.ParallelFor(2, func(side int) (err error) {
		if side == 0 {
			table, err = c.buildTableStream(exBuild, worker, key, c.Cfg.Threads, interval, rec)
			return err
		}
		for {
			p, ok, err := exProbe.Recv(worker)
			if err != nil || !ok {
				return err
			}
			if bufferProbe {
				leftPages = append(leftPages, p)
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return table, leftPages, nil
}

// buildTableStream builds the probe hash table incrementally from the
// shuffled build stream: pages are dealt round-robin by global delivery
// index across threads builder threads (a pure function of the
// deterministic delivery order), and the per-thread tables merge
// bucket-wise in thread order after the stream closes. Build pages are
// never recycled — the table references their objects for the life of the
// join.
//
// With interval > 0 the build checkpoints for consumer crash recovery:
// every interval pages — and once more at stream end — the quiesced
// per-thread tables are cloned into rec and the cut acknowledged to the
// exchange; a resumed build (rec already holding clones) starts from those
// tables at rec.cut, fed by an exchange rewound to the same cut, and
// reproduces the crash-free table exactly. The epilogue clone means rec
// always holds the complete table set once the stream closes, which is
// what probe-phase recovery restores from.
func (c *Cluster) buildTableStream(ex *exchange.Exchange, worker int,
	key func(object.Ref) uint64, threads, interval int, rec *joinRecovery) (*engine.JoinTable, error) {
	if threads < 1 {
		threads = 1
	}
	if rec != nil && rec.wantBuildRows {
		// Drop build rows appended past the last committed cut: the rewound
		// exchange redelivers those pages and next re-appends their rows.
		rec.buildRows = rec.buildRows[:rec.buildRowsCut]
	}
	tables := make([]*engine.JoinTable, threads)
	start := 0
	if rec != nil && rec.tables != nil {
		if len(rec.tables) != threads {
			return nil, fmt.Errorf("cluster: join checkpoint holds %d tables, build runs %d threads",
				len(rec.tables), threads)
		}
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
		p, ok, err := ex.Recv(worker)
		if ok {
			c.Cfg.Fault.Hit(fault.BuildPage, worker)
			if rec != nil && rec.wantBuildRows {
				// Delivery order defines the match bitmap's index space;
				// next runs on the dispatch goroutine, so the append stays
				// aligned with the delivered-page count the cuts commit.
				appendPageRows(&rec.buildRows, p)
			}
		}
		return p, ok, err
	}
	tstats := make([]engine.Stats, threads)
	fold := func(t int, p *object.Page) error {
		if p.Root() == 0 {
			return nil
		}
		root := object.AsVector(object.Ref{Page: p, Off: p.Root()})
		tbl := tables[t]
		for j, n := 0, root.Len(); j < n; j++ {
			r := root.HandleAt(j)
			tbl.Add(key(r), r)
		}
		tstats[t].HashProbes += root.Len()
		return nil
	}
	var err error
	if interval <= 0 {
		err = engine.StreamPages(next, threads, false, nil, fold)
	} else {
		err = engine.StreamPagesCheckpointed(next, threads, false, start, interval, fold,
			func(delivered int, final bool) error {
				c.Cfg.Fault.Hit(fault.Checkpoint, worker)
				clones := make([]*engine.JoinTable, len(tables))
				for t := range tables {
					clones[t] = tables[t].Clone()
				}
				rec.cut, rec.tables = delivered, clones
				if rec.wantBuildRows {
					rec.buildRowsCut = len(rec.buildRows)
				}
				rec.saves++
				return ex.Ack(worker, delivered)
			})
	}
	if err != nil {
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
	c.Workers[worker].mergeStats(tstats...)
	return table, nil
}

// restoreJoinTable rebuilds the probe table from a completed build's
// checkpointed per-thread clones, merging in thread order so the recovery
// record stays pristine for the next crash (Merge never mutates its
// argument).
func restoreJoinTable(tables []*engine.JoinTable) *engine.JoinTable {
	if len(tables) == 0 {
		return engine.NewJoinTable()
	}
	table := tables[0].Clone()
	for _, tbl := range tables[1:] {
		table.Merge(tbl)
	}
	return table
}

// probeEmitStream is the checkpointed probe/emit phase: it consumes the
// rewound probe stream in windows of interval pages, probes each window in
// parallel (collectProbeMatches — match order is page order, independent
// of the thread split), and emits the matches in order, maintaining the
// exactly-once cursor as it goes. After each window it checkpoints
// (rec.probeCursor/rec.emittedAtCut) and acknowledges the window's pages,
// bounding both the replay window and — under Config.MemoryBudget — the
// probe side's retained memory. On a replayed window, matches below
// rec.emitted were already observed by user code and are skipped: window
// boundaries are a pure function of the cursor, so the replayed window's
// match sequence is identical to the crashed attempt's and the skip prefix
// is exact.
//
// For the right/full kinds the returned bitmap records which build rows
// (delivery-order index) matched some probe row. Marking happens before the
// skip check — a replayed window restarts from the checkpointed bitmap
// snapshot, so its marks must be re-applied even for matches user code
// already observed; setting a set bit is idempotent, and each checkpoint
// snapshots the bitmap alongside the cursor it describes.
func (c *Cluster) probeEmitStream(ex *exchange.Exchange, worker int, table *engine.JoinTable,
	key func(object.Ref) uint64, eq func(l, r object.Ref) bool, kind core.JoinKind,
	interval int, rec *joinRecovery, emit func(l, r object.Ref) error) ([]uint64, error) {
	counter := rec.emittedAtCut
	cursor := rec.probeCursor
	needTail := kind == core.JoinRight || kind == core.JoinFull
	var bitmap []uint64
	var rowIdx map[object.Ref]int
	if needTail {
		bitmap = make([]uint64, (len(rec.buildRows)+63)/64)
		copy(bitmap, rec.bitmapAtCut)
		rowIdx = buildRowIndex(rec.buildRows)
	}
	if rec.restored {
		// Cross-restart resume: the pages below the restored cursor were
		// probed and their matches emitted by a previous cluster, so this
		// probe never replays them — acknowledge them straight out of the
		// gather's retention.
		if cursor > 0 {
			if err := ex.Ack(worker, cursor); err != nil {
				return nil, err
			}
		}
		rec.restored = false
	}
	// scratch backs each window's flattened match list and is recycled
	// across windows, so a long probe stream allocates the flatten buffer
	// O(1) times instead of once per window.
	var scratch [][2]object.Ref
	for {
		var window []*object.Page
		done := false
		for len(window) < interval {
			p, ok, err := ex.Recv(worker)
			if err != nil {
				return nil, err
			}
			if !ok {
				done = true
				break
			}
			c.Cfg.Fault.Hit(fault.ProbePage, worker)
			window = append(window, p)
		}
		if len(window) > 0 {
			var pstats engine.Stats
			for _, p := range window {
				if p.Root() != 0 {
					pstats.HashProbes += object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len()
				}
			}
			c.Workers[worker].mergeStats(pstats)
			matches, err := collectProbeMatches(window, table, key, eq, kind, c.Cfg.Threads, scratch[:0])
			if err != nil {
				return nil, err
			}
			scratch = matches
			for _, m := range matches {
				if needTail && m[1] != object.NilRef {
					c.Cfg.Fault.Hit(fault.ProbeBitmap, worker)
					markBit(bitmap, rowIdx[m[1]])
				}
				if counter < rec.emitted {
					// Replay of a match user code already observed.
					counter++
					continue
				}
				c.Cfg.Fault.Hit(fault.Emit, worker)
				if err := emit(m[0], m[1]); err != nil {
					return nil, err
				}
				counter++
				// The emit landed; a crash past this point replays the
				// window but skips this match.
				rec.emitted = counter
			}
			cursor += len(window)
			c.Cfg.Fault.Hit(fault.Checkpoint, worker)
			rec.probeCursor = cursor
			rec.emittedAtCut = counter
			if needTail {
				rec.bitmapAtCut = append(rec.bitmapAtCut[:0], bitmap...)
			}
			rec.saves++
			if rec.resumePath != "" {
				if err := saveJoinResume(rec); err != nil {
					return nil, err
				}
			}
			if err := ex.Ack(worker, cursor); err != nil {
				return nil, err
			}
		}
		if done {
			return bitmap, nil
		}
	}
}

// sweepUnmatchedBuildRows is the right/full outer tail: after the probe
// stream drains — so the bitmap is final — it walks the build rows in
// delivery order and emits (NilRef, r) for each row no probe row matched.
// The sweep continues the probe phase's global emit counter and, with
// interval > 0, checkpoints its cursor every interval rows scanned:
// boundaries are a pure function of the committed cursor and the emit
// sequence a pure function of (bitmap, cursor), so a replayed sweep skips
// exactly the rows user code already observed.
func (c *Cluster) sweepUnmatchedBuildRows(worker int, kind core.JoinKind, bitmap []uint64,
	interval int, rec *joinRecovery, emit func(l, r object.Ref) error) error {
	if kind != core.JoinRight && kind != core.JoinFull {
		return nil
	}
	counter := rec.emittedAtCut
	scanned := 0
	for i := rec.tailCursor; i < len(rec.buildRows); i++ {
		if !bitAt(bitmap, i) {
			if counter < rec.emitted {
				counter++
			} else {
				c.Cfg.Fault.Hit(fault.Emit, worker)
				if err := emit(object.NilRef, rec.buildRows[i]); err != nil {
					return err
				}
				counter++
				rec.emitted = counter
			}
		}
		scanned++
		if interval > 0 && scanned%interval == 0 {
			c.Cfg.Fault.Hit(fault.Checkpoint, worker)
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

// collectProbeMatches probes pages through the read-only build table
// across threads executor threads and returns the kind's emit sequence in
// page order, appended to reuse (pass a zero-length slice with retained
// capacity to recycle the flatten buffer across calls). Inner/right kinds
// list every matching pair; left/full add (l, NilRef) for matchless probe
// rows; semi keeps only the first match per probe row; anti keeps only the
// (l, NilRef) entries. Each thread probes a contiguous chunk into a pooled
// private buffer and the buffers concatenate in thread order, so the
// result is exactly the sequence a sequential probe over the same pages
// would emit — per-row logic is local to the row, so the kind cannot
// perturb determinism.
func collectProbeMatches(pages []*object.Page, table *engine.JoinTable,
	key func(object.Ref) uint64, eq func(l, r object.Ref) bool, kind core.JoinKind,
	threads int, reuse [][2]object.Ref) ([][2]object.Ref, error) {
	probeRanges := func(ranges []engine.PageRange, out [][2]object.Ref) [][2]object.Ref {
		for _, rng := range ranges {
			root := object.AsVector(object.Ref{Page: rng.Page, Off: rng.Page.Root()})
			for j := rng.Start; j < rng.End; j++ {
				l := root.HandleAt(j)
				b := table.Bucket(key(l))
				matched := false
				for i, n := 0, b.Len(); i < n; i++ {
					r := b.At(i)
					if !eq(l, r) {
						continue
					}
					matched = true
					if kind == core.JoinSemi || kind == core.JoinAnti {
						if kind == core.JoinSemi {
							out = append(out, [2]object.Ref{l, r})
						}
						break // membership decided; later matches are moot
					}
					out = append(out, [2]object.Ref{l, r})
				}
				if !matched && (kind == core.JoinAnti || kind == core.JoinLeft || kind == core.JoinFull) {
					out = append(out, [2]object.Ref{l, object.NilRef})
				}
			}
		}
		return out
	}
	all := reuse
	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), threads)
	matches := make([]*[][2]object.Ref, len(chunks))
	err := engine.ParallelFor(len(chunks), func(t int) error {
		buf := probeBufPool.Get().(*[][2]object.Ref)
		*buf = probeRanges(chunks[t], (*buf)[:0])
		matches[t] = buf
		return nil
	})
	if err != nil {
		for _, buf := range matches {
			if buf != nil {
				probeBufPool.Put(buf)
			}
		}
		return nil, err
	}
	for _, buf := range matches {
		all = append(all, *buf...)
		probeBufPool.Put(buf)
	}
	return all, nil
}

// parallelBuildTable builds a probe hash table over locally materialized
// pages across threads executor threads: each thread inserts a contiguous
// chunk of rows into a private table, and tables merge bucket-wise in
// thread order after the barrier, so per-bucket row order matches a
// sequential build over the whole input. (CoPartitionedJoin's zero-shuffle
// local builds; the shuffled build streams through buildTableStream.)
func parallelBuildTable(pages []*object.Page, key func(object.Ref) uint64, threads int) (*engine.JoinTable, error) {
	buildRanges := func(ranges []engine.PageRange) *engine.JoinTable {
		tbl := engine.NewJoinTable()
		for _, rng := range ranges {
			root := object.AsVector(object.Ref{Page: rng.Page, Off: rng.Page.Root()})
			for j := rng.Start; j < rng.End; j++ {
				r := root.HandleAt(j)
				tbl.Add(key(r), r)
			}
		}
		return tbl
	}
	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), threads)
	tables := make([]*engine.JoinTable, len(chunks))
	err := engine.ParallelFor(len(chunks), func(t int) error {
		tables[t] = buildRanges(chunks[t])
		return nil
	})
	if err != nil {
		return nil, err
	}
	table := engine.NewJoinTable()
	for _, tbl := range tables {
		if tbl != nil {
			table.Merge(tbl)
		}
	}
	return table, nil
}

// parallelProbe probes the buffered probe side through the read-only build
// table across threads executor threads (the CheckpointInterval < 0 path
// and CoPartitionedJoin's local probes). Matches are emitted in page order
// via collectProbeMatches on the calling goroutine, so one worker never
// invokes emit from two threads at once. An inner join over a single chunk
// (Threads=1, or fewer batches than threads) streams each match straight
// to emit with no buffer, like the sequential path always did.
func parallelProbe(pages []*object.Page, table *engine.JoinTable,
	key func(object.Ref) uint64, eq func(l, r object.Ref) bool, kind core.JoinKind,
	threads int, emit func(l, r object.Ref) error) error {
	chunks := engine.SplitRanges(engine.BatchRanges(pages, engine.BatchSize), threads)
	if kind == core.JoinInner && len(chunks) <= 1 {
		for _, chunk := range chunks {
			for _, rng := range chunk {
				root := object.AsVector(object.Ref{Page: rng.Page, Off: rng.Page.Root()})
				for j := rng.Start; j < rng.End; j++ {
					l := root.HandleAt(j)
					b := table.Bucket(key(l))
					for i, n := 0, b.Len(); i < n; i++ {
						if r := b.At(i); eq(l, r) {
							if err := emit(l, r); err != nil {
								return err
							}
						}
					}
				}
			}
		}
		return nil
	}
	matches, err := collectProbeMatches(pages, table, key, eq, kind, threads, nil)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if err := emit(m[0], m[1]); err != nil {
			return err
		}
	}
	return nil
}
