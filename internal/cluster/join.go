package cluster

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exchange"
	"repro/internal/fault"
	"repro/internal/object"
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
//     and probes it in windows of probeWindow pages (contiguous-chunk
//     parallel probe, thread-ordered emit); the probe stream stays
//     retained until the step ends.
//
// # Co-partitioned sets
//
// When the catalog labels both sets with the same partition key (both
// loaded with SendDataPartitioned under that label), every row already sits
// on the worker its key routes to, so the step skips stage 1: each worker's
// one consumer role builds from and probes its own stored pages, with no
// producer, exchange or governor, and nothing is shipped (the paper's
// §8.3.3). The consumer checks every stored page the first time it reads
// it: a row whose key routes to another worker — a label that keyL or keyR
// does not follow — fails the join, naming the set and both workers. Both
// inputs are read whole before the probe starts, so that worker emits
// nothing first. Any other pair of labels takes the shuffle.
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
// workers must synchronize it. A Ref handed to emit, and every ref reached
// through it, is valid only until that emit call returns — the pages under
// it go back to the page pool when the step ends — so read or copy what
// you need inside emit.
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
// delivery order. Every probe attempt builds it from scratch, marking the
// matches it skips as well as those it emits (under the fault.ProbeBitmap
// site), so the unmatched-row tail sweep sees the crash-free run's bitmap.
// Join recovery state lives in memory: a join whose process dies re-runs
// from its start on the next run, so emit is at-least-once across process
// deaths.
//
// # Probe/emit recovery
//
// A backend crash anywhere in the join is recovered (once per role per
// step) by replay. A producer crash (the key panics while repartitioning)
// is re-forked and re-run; the deterministic retry re-sends the same tags
// and the lanes drop its duplicates at the sender. A build-phase consumer
// crash re-gathers both streams from page 0 — the exchange retains both
// until the step ends, and stored pages are the front end's. Once the
// table is complete, the worker's recovery record keeps it (read-only
// from then on). A probe/emit-phase crash reuses that table, rewinds the
// probe stream to page 0, and skips the first matches the record counts as
// emitted — match order is page order, so the skip prefix is exactly what
// user code already observed and emit sees every match exactly once. Match output is bit-for-bit identical to
// a crash-free run in every case.
//
// # Proc mode
//
// The join does not ship: its roles have no pcworker session, so on a
// cluster with Config.ProcBin set they run on the master's in-process
// backends (attempt, retry.go) over the workers' DataDir stores, spawning
// no worker process, and emit is called in the master. The pairs are the
// in-memory cluster's.
func (c *Cluster) HashPartitionJoinKind(kind core.JoinKind, dbL, setL, dbR, setR string,
	keyL, keyR func(object.Ref) uint64,
	eq func(l, r object.Ref) bool,
	emit func(workerID int, l, r object.Ref) error) (*ExecStats, error) {
	nw := len(c.Workers)
	label := c.Catalog.PartitionKey(dbL, setL)
	coPartitioned := label != "" && label == c.Catalog.PartitionKey(dbR, setR)
	var govs []*exchange.Governor
	var exs []*exchange.Exchange
	if !coPartitioned {
		// One governor per consumer backend, shared by both exchanges: the
		// memory budget is per backend, not per shuffle. Build-side
		// delivered pages are read in place (the tables reference them for
		// the join); probe-side delivered pages are replay retention —
		// metered and evictable: retention is what holds the probe side
		// while the build runs. Both streams return to the page pool when
		// the step succeeds, as does each repartition page a producer sent
		// to another worker once its copy exists (exchange.Config.Release):
		// a ref handed to emit is valid only until emit returns.
		var closeGovs func()
		govs, closeGovs = c.stepGovernors()
		defer closeGovs()
		exs = []*exchange.Exchange{c.newExchange(nw, false, govs), c.newExchange(nw, true, govs)}
	}
	stats := &ExecStats{Threads: c.Cfg.Threads, RoleRetries: map[string]int{}}
	roles := make([]role, 3*nw)
	for i, w := range c.Workers {
		env := c.env(w)
		var build, probe consumerEnd
		if coPartitioned {
			build, probe = &storedEnd{env: env, db: dbR, set: setR, key: keyR}, &storedEnd{env: env, db: dbL, set: setL, key: keyL}
		} else {
			// Producer roles: repartition-stream each side.
			produce := func(ex *exchange.Exchange, db, set string, key func(object.Ref) uint64) role {
				end := &exchangeEnd{ex: ex, worker: i}
				return role{w: w, name: roleProducer, what: "join repartition " + set,
					onRetry: stats.noteRetry(roleProducer, false),
					body:    func() error { return env.streamRepartition(db, set, key, end) },
					closes:  ex}
			}
			exL, exR := exs[0], exs[1]
			roles[i], roles[nw+i] = produce(exL, dbL, setL, keyL), produce(exR, dbR, setR, keyR)
			build, probe = &exchangeEnd{ex: exR, worker: i}, &exchangeEnd{ex: exL, worker: i}
		}
		// Consumer role: build from the right stream, retain the left
		// stream, probe in windows, emit.
		j := &joinSpec{kind: kind, keyL: keyL, keyR: keyR, eq: eq,
			emit: func(l, r object.Ref) error { return emit(i, l, r) }}
		rec := &joinRecovery{}
		roles[2*nw+i] = role{w: w, name: roleConsumer, what: "join build/probe",
			onRetry: func() {
				if rec.table != nil {
					stats.noteRetry(roleProbe, true)()
				} else {
					stats.noteRetry(roleConsumer, true)()
				}
			},
			body: func() error { return env.consumeJoin(build, probe, j, rec) }}
	}
	if coPartitioned {
		roles = roles[2*nw:] // consumers only
	}
	// Join recovery state is in memory: beyond runStep's discard of both
	// exchanges there is nothing to drop.
	ship, err := c.runStep(roles, govs, exs...)
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

// joinRecovery is one worker's consumer-recovery record for a join. The
// scheduler owns it, so it survives backend crashes; a retried attempt
// replays its streams from page 0 and reads the record to skip what is
// already done.
type joinRecovery struct {
	// table is the finished hash table, nil until the build completes;
	// from then on it is read-only and a retry probes it without
	// rebuilding.
	table *engine.JoinTable
	// buildRows lists every build row in delivery order — the index space
	// of the right/full match bitmap — appended as build pages deliver.
	buildRows []object.Ref
	// emitted counts the matches user emit has seen, probe and tail alike:
	// the exactly-once skip prefix of a retried attempt.
	emitted int
}

// streamRepartition runs one worker's repartition of one set across its
// executor threads: each thread hashes its contiguous chunk into a private
// RepartitionSink whose per-partition pages stream through end to the owning
// worker the moment they seal. The thread flushes its partitions' final
// pages and sends its close marker on the way out.
func (e *workerEnv) streamRepartition(db, set string, key func(object.Ref) uint64, end shuffleEnd) error {
	pages, err := storedPages(e.store, db, set)
	if err != nil {
		return err
	}
	chunks := e.ThreadChunks(pages)
	tstats := make([]engine.Stats, len(chunks))
	err = engine.ParallelThreads(len(chunks), func(t int, stop <-chan struct{}) error {
		sink, err := engine.NewRepartitionSink(e.Reg, e.PageSize, e.Partitions, "h", "obj", e.Pool, &tstats[t])
		if err != nil {
			return err
		}
		seqs := make([]int, e.Partitions)
		sink.SetOnSeal(func(part int, p *object.Page) error {
			e.Fault.Hit(fault.PageSeal, e.ID)
			tag := exchange.Tag{Producer: e.ID, Thread: t, Seq: seqs[part]}
			seqs[part]++
			return end.send(tag, part, p, stop)
		})
		if err := engine.ScanRanges(chunks[t], "obj", repartitionBatch(sink, key, stop)); err != nil {
			return err
		}
		if err := sink.CloseStream(); err != nil {
			return err
		}
		return end.closeThread(t, stop)
	})
	e.NoteStats(tstats...)
	return err
}

// repartitionBatch is the scan callback that routes a batch of objects
// (column "obj") through sink by their key hash (column "h"); it aborts the
// scan once stop closes (a nil stop never does). Each call makes one
// thread's callback: the key-hash column and the batch header are the
// thread's, reused across its batches, and the column is boxed again only
// when its length changes (boxing a slice as a Column allocates its header).
func repartitionBatch(sink *engine.RepartitionSink, key func(object.Ref) uint64, stop <-chan struct{}) func(*engine.VectorList) error {
	var hashes engine.U64Col
	var boxed engine.Column
	batch := &engine.VectorList{Names: []string{"obj", "h"}, Cols: make([]engine.Column, 2)}
	return func(vl *engine.VectorList) error {
		select {
		case <-stop:
			return engine.ErrAborted
		default:
		}
		obj := vl.Col("obj")
		rc := obj.(engine.RefCol)
		if cap(hashes) < len(rc) {
			hashes, boxed = make(engine.U64Col, len(rc)), nil
		}
		hashes = hashes[:len(rc)]
		for j, r := range rc {
			hashes[j] = key(r)
		}
		if b, ok := boxed.(engine.U64Col); !ok || len(b) != len(rc) {
			boxed = hashes
		}
		batch.Cols[0], batch.Cols[1] = obj, boxed
		return sink.Consume(nil, batch, nil)
	}
}

// consumeJoin is the join's one consumer body, whatever carries its two page
// streams (exchange ends for a shuffled join, the worker's stored pages for
// co-partitioned sets): build the table while the probe stream
// drains into its end's retention, probe the rewound stream in windows, then
// sweep the outer tail. Until rec holds the finished table an attempt
// gathers both streams from page 0; after, it probes that table.
func (e *workerEnv) consumeJoin(build, probe consumerEnd, j *joinSpec, rec *joinRecovery) error {
	if rec.table == nil {
		table, err := e.gatherJoinStreams(build, probe, j, rec)
		if err != nil {
			return err
		}
		rec.table = table
	}
	// The gather delivered the whole probe stream; every attempt probes it
	// from page 0.
	probe.rewind()
	bitmap, counter, err := e.probeEmitStream(probe, rec.table, j, rec)
	if err != nil {
		return err
	}
	return e.sweepUnmatchedBuildRows(j, bitmap, counter, rec)
}

// gatherJoinStreams overlaps the join's two shuffles with the build: the
// build-side stream feeds the hash table as pages arrive while the
// probe-side stream drains concurrently, so neither side's producers stall
// on a full lane longer than the backpressure bound. The drained probe
// pages are dropped on delivery — the end's retention holds them for the
// windowed probe to rewind over. Both streams start at page 0. The two
// sides are a two-thread engine.ParallelThreads team, the build on the
// caller: a panic on either re-raises on the backend goroutine — the user
// key lambda in the build, and in the drain a crash under Recv, which
// settles the governor's accounting and can spill a retained page, must
// reach the backend, not kill the process.
func (e *workerEnv) gatherJoinStreams(build, probe consumerEnd, j *joinSpec, rec *joinRecovery) (*engine.JoinTable, error) {
	build.rewind()
	probe.rewind()
	var table *engine.JoinTable
	err := engine.ParallelThreads(2, func(side int, _ <-chan struct{}) (err error) {
		if side == 0 {
			table, err = e.buildTableStream(build, j, rec)
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
// the stream closes. The table references the build pages' objects in
// place, so the build exchange leaves them unmetered until the step ends.
func (e *workerEnv) buildTableStream(end consumerEnd, j *joinSpec, rec *joinRecovery) (*engine.JoinTable, error) {
	// A re-gather re-appends every build row.
	rec.buildRows = rec.buildRows[:0]
	tables := make([]*engine.JoinTable, e.Threads)
	for t := range tables {
		tables[t] = engine.NewJoinTable()
	}
	next := func() (*object.Page, bool, error) {
		p, ok, err := end.next()
		if ok {
			e.Fault.Hit(fault.BuildPage, e.ID)
			if j.needTail() {
				// Delivery order defines the match bitmap's index space;
				// next runs on the dispatch goroutine, so the rows append
				// in that order.
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
	if err := engine.StreamPages(next, len(tables), fold); err != nil {
		return nil, err
	}
	table := tables[0]
	for _, tbl := range tables[1:] {
		table.Merge(tbl)
	}
	for _, tbl := range tables {
		tstats[0].HashResizes += int(tbl.Resizes())
	}
	e.NoteStats(tstats...)
	return table, nil
}

// probeWindow is how many probe pages the join probes at a time: the window
// bounds the match buffer, not the result (match order is page order).
const probeWindow = 16

// probeEmitStream is the probe/emit phase: it consumes the rewound probe
// stream in windows of probeWindow pages, probes each window across the
// attempt's executor threads (probeThreads — match order is page order,
// independent of the thread split and the window size), and emits the
// matches in order through emitOnce, which skips the prefix an earlier
// attempt already emitted. The window only bounds the match buffers.
//
// For the right/full kinds the returned bitmap records which build rows
// (delivery-order index) matched some probe row. Marking happens before
// the skip, so a retried attempt's bitmap equals the crash-free run's.
// The returned counter is the attempt's position in the match sequence,
// which the tail sweep continues.
func (e *workerEnv) probeEmitStream(end consumerEnd, table *engine.JoinTable, j *joinSpec, rec *joinRecovery) ([]uint64, int, error) {
	counter := 0
	var bitmap []uint64
	var rowIdx map[object.Ref]int
	if j.needTail() {
		bitmap = make([]uint64, (len(rec.buildRows)+63)/64)
		rowIdx = buildRowIndex(rec.buildRows)
	}
	pt := e.newProbeThreads(table, j)
	defer pt.team.Close()
	window := make([]*object.Page, 0, probeWindow)
	for done := false; !done; {
		window = window[:0]
		var pstats engine.Stats
		for len(window) < probeWindow {
			p, ok, err := end.next()
			if err != nil {
				return nil, 0, err
			}
			if !ok {
				done = true
				break
			}
			e.Fault.Hit(fault.ProbePage, e.ID)
			window = append(window, p)
			if p.Root() != 0 {
				pstats.HashProbes += object.AsVector(object.Ref{Page: p, Off: p.Root()}).Len()
			}
		}
		if len(window) == 0 {
			break // the stream ended on a window boundary
		}
		e.NoteStats(pstats)
		bufs, err := pt.window(window)
		if err != nil {
			return nil, 0, err
		}
		for _, buf := range bufs {
			for _, m := range buf {
				if bitmap != nil && m[1] != object.NilRef {
					e.Fault.Hit(fault.ProbeBitmap, e.ID)
					markBit(bitmap, rowIdx[m[1]])
				}
				if err := e.emitOnce(j, rec, &counter, m[0], m[1]); err != nil {
					return nil, 0, err
				}
			}
		}
	}
	return bitmap, counter, nil
}

// sweepUnmatchedBuildRows is the right/full outer tail: after the probe
// stream drains — so the bitmap is final — it walks the build rows in
// delivery order and emits (NilRef, r) for each row no probe row matched,
// continuing the probe's match counter, so a retried sweep skips exactly
// the rows user code already observed.
func (e *workerEnv) sweepUnmatchedBuildRows(j *joinSpec, bitmap []uint64, counter int, rec *joinRecovery) error {
	if !j.needTail() {
		return nil
	}
	for i, r := range rec.buildRows {
		if bitAt(bitmap, i) {
			continue
		}
		if err := e.emitOnce(j, rec, &counter, object.NilRef, r); err != nil {
			return err
		}
	}
	return nil
}

// emitOnce hands the counter-th match of the attempt's sequence to user
// emit unless an earlier attempt already did (counter ≤ rec.emitted), and
// records it as emitted once the call lands.
func (e *workerEnv) emitOnce(j *joinSpec, rec *joinRecovery, counter *int, l, r object.Ref) error {
	*counter++
	if *counter <= rec.emitted {
		return nil
	}
	e.Fault.Hit(fault.Emit, e.ID)
	if err := j.emit(l, r); err != nil {
		return err
	}
	rec.emitted = *counter
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

// probeThreads is one probe attempt's executor threads and what they reuse
// from window to window, so a warm window allocates nothing: the window's
// batch ranges and thread chunks, and one match buffer per thread. The
// buffers live for the attempt (a GC between windows keeps them).
type probeThreads struct {
	team   *engine.Team
	body   func(t int, _ <-chan struct{}) error // probes chunks[t] into bufs[t]; made once
	ranges []engine.PageRange
	chunks [][]engine.PageRange
	bufs   [][][2]object.Ref
}

// newProbeThreads starts the attempt's probe threads over the read-only
// build table; the caller closes pt.team.
func (e *workerEnv) newProbeThreads(table *engine.JoinTable, j *joinSpec) *probeThreads {
	threads := max(e.Threads, 1)
	pt := &probeThreads{team: engine.NewTeam(threads), bufs: make([][][2]object.Ref, threads)}
	pt.body = func(t int, _ <-chan struct{}) error {
		buf := pt.bufs[t][:0]
		if t < len(pt.chunks) {
			rows := 0
			for _, rng := range pt.chunks[t] {
				rows += rng.Rows()
			}
			buf = probeRanges(slices.Grow(buf, rows), pt.chunks[t], table, j)
		}
		pt.bufs[t] = buf
		return nil
	}
	return pt
}

// window probes pages through the build table, each thread a contiguous
// chunk into its own buffer, and returns the buffers in thread order: read
// in that order they are exactly the sequence a sequential probe over the
// same pages would emit — per-row logic is local to the row, so neither
// the kind nor the thread split can perturb it. The caller emits them on
// its own goroutine (one worker never invokes emit from two threads at
// once); they are valid until the next window.
func (pt *probeThreads) window(pages []*object.Page) ([][][2]object.Ref, error) {
	pt.ranges = engine.AppendBatchRanges(pt.ranges[:0], pages, engine.BatchSize)
	pt.chunks = engine.AppendSplitRanges(pt.chunks[:0], pt.ranges, len(pt.bufs))
	if err := pt.team.Run(pt.body); err != nil {
		return nil, err
	}
	return pt.bufs[:len(pt.chunks)], nil
}

// probeRanges is the join's one probe loop: it appends to out the kind's
// emit sequence for the probe rows of ranges, in row order. Inner/right
// kinds list every matching pair; left/full add (l, NilRef) for matchless
// probe rows; semi keeps only the first match per probe row; anti keeps
// only the (l, NilRef) entries.
func probeRanges(out [][2]object.Ref, ranges []engine.PageRange, table *engine.JoinTable, j *joinSpec) [][2]object.Ref {
	kind, key, eq := j.kind, j.keyL, j.eq
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
