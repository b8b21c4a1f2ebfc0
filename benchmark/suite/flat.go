package suite

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/agglib"
	"repro/internal/object"
	"repro/pc"
)

// row is the flat two-column record of the relational workloads: (grp, val)
// for aggregation and sort, (key, payload) for the join and the ingest.
type row struct{ a, b int64 }

// mix is the splitmix64 finalizer; result checksums sum mix over rows so
// they do not depend on the order rows come back in.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func mixRow(a, b int64) uint64 { return mix(uint64(a)*0x9e3779b97f4a7c15 + uint64(b)) }

// shards splits [0,n) into the two halves the Go-loop references run on,
// one goroutine each: the same two cores the cluster gets.
func shards(n int, fn func(shard, lo, hi int)) {
	var wg sync.WaitGroup
	for s := 0; s < Workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fn(s, n*s/Workers, n*(s+1)/Workers)
		}(s)
	}
	wg.Wait()
}

// flatType is a registered two-int64-field struct type.
type flatType struct {
	name string
	a, b *pc.Field
	ti   *pc.TypeInfo
}

func registerFlat(c *pc.Client, name, fa, fb string) (flatType, error) {
	ti, err := pc.NewStruct(name).AddField(fa, pc.KInt64).AddField(fb, pc.KInt64).Build(c.Registry())
	if err != nil {
		return flatType{}, err
	}
	return flatType{name: name, a: ti.Field(fa), b: ti.Field(fb), ti: ti}, nil
}

func (t flatType) fill(rows []row) func(a *pc.Allocator, i int) (pc.Ref, error) {
	return func(a *pc.Allocator, i int) (pc.Ref, error) {
		r, err := a.MakeObject(t.ti)
		if err != nil {
			return pc.NilRef, err
		}
		object.SetI64(r, t.a, rows[i].a)
		object.SetI64(r, t.b, rows[i].b)
		return r, nil
	}
}

// loadFlat builds rows into pages client-side and sends them into a new set.
func loadFlat(e *env, c *pc.Client, t flatType, db, set string, rows []row) error {
	defer e.tr.span("load")()
	e.loadedRows += len(rows)
	done := e.tr.span("buildpages")
	pages, err := c.BuildPages(len(rows), t.fill(rows))
	done()
	if err != nil {
		return err
	}
	if err := c.CreateSet(db, set, t.name); err != nil {
		return err
	}
	defer e.tr.span("senddata")()
	return c.SendData(db, set, pages)
}

// scanFlat reads a whole set back, returning its row count and the
// order-independent checksum of its rows.
func scanFlat(c *pc.Client, t flatType, db, set string) (n int, sum uint64, err error) {
	err = c.ScanSet(db, set, func(r pc.Ref) bool {
		n++
		sum += mixRow(object.GetI64(r, t.a), object.GetI64(r, t.b))
		return true
	})
	return n, sum, err
}

func scaled(n, scale int) int {
	if scale <= 0 {
		return 0
	}
	return n / scale
}

const db = "bench"

// session is the part every workload shares: the open cluster and the
// checksum of the last verified result.
type session struct {
	c         *pc.Client
	lastCheck uint64
}

func (s *session) checksum() uint64   { return s.lastCheck }
func (s *session) client() *pc.Client { return s.c }

func (s *session) close() error {
	if s.c == nil {
		return nil
	}
	c := s.c
	s.c = nil
	return c.Close()
}

// flatSession is a session over one registered flat row type.
type flatSession struct {
	session
	t flatType
}

// connect opens a cluster and registers the row type; a client of a
// restored directory does the same, minus creating the database.
func (s *flatSession) connect(e *env, cfg pc.Config, typeName, fa, fb string, createDB bool) error {
	c, err := e.connect(cfg)
	if err != nil {
		return err
	}
	s.c = c
	if s.t, err = registerFlat(c, typeName, fa, fb); err != nil || !createDB {
		return err
	}
	return c.CreateDatabase(db)
}

// keyColumn is the first column of rows: what the jobs group, join and
// sort on.
func keyColumn(rows []row) []int64 {
	keys := make([]int64, len(rows))
	for i, r := range rows {
		keys[i] = r.a
	}
	return keys
}

// aggWorkload is the group-by integer sum behind agg_narrow, agg_wide and
// agg_wide_proc: agglib.SumI64 -> ExecuteComputations -> scan the result.
type aggWorkload struct {
	n, groups int
	// proc opens the cluster over DataDir with pcworker OS processes.
	proc bool

	in      []row
	wantN   int
	wantSum uint64
	flatSession
}

func (w *aggWorkload) rows() int { return w.n }

func (w *aggWorkload) generate(rng *rand.Rand) {
	w.in = make([]row, w.n)
	for i := range w.in {
		w.in[i] = row{rng.Int63n(int64(max(w.groups, 1))), rng.Int63n(1000)}
	}
}

func (w *aggWorkload) goloop() {
	parts := make([]map[int64]int64, Workers)
	shards(len(w.in), func(s, lo, hi int) {
		m := map[int64]int64{}
		for _, r := range w.in[lo:hi] {
			m[r.a] += r.b
		}
		parts[s] = m
	})
	total := parts[0]
	for _, m := range parts[1:] {
		for g, v := range m {
			total[g] += v
		}
	}
	w.wantN, w.wantSum = len(total), 0
	for g, v := range total {
		w.wantSum += mixRow(g, v)
	}
}

func (w *aggWorkload) open(e *env) error {
	cfg := baseConfig()
	if w.proc {
		bin, err := buildWorker(e)
		if err != nil {
			return err
		}
		cfg.DataDir, cfg.ProcBin = filepath.Join(e.dir, "agg"), bin
		if err := os.RemoveAll(cfg.DataDir); err != nil {
			return err
		}
	}
	if err := w.connect(e, cfg, "Row", "grp", "val", true); err != nil {
		return err
	}
	return loadFlat(e, w.c, w.t, db, "rows", w.in)
}

func (w *aggWorkload) graph() ([]*pc.Write, error) {
	agg, err := agglib.SumI64(w.c.Registry(), db, "rows", "Row", "grp", "val")
	if err != nil {
		return nil, err
	}
	return []*pc.Write{pc.NewWrite(db, "sums", agg)}, nil
}

func (w *aggWorkload) job(e *env) error {
	if err := w.c.CreateSet(db, "sums", "Row"); err != nil {
		return err
	}
	writes, err := w.graph()
	if err != nil {
		return err
	}
	done := e.tr.span("execute")
	st, err := w.c.ExecuteComputations(writes...)
	done()
	if err != nil {
		return err
	}
	e.noteStages(st.Stages)
	done = e.tr.span("result_read")
	n, sum, err := scanFlat(w.c, w.t, db, "sums")
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("dropset")
	err = w.c.DropSet(db, "sums")
	done()
	if err != nil {
		return err
	}
	if n != w.wantN || sum != w.wantSum {
		return fmt.Errorf("group sums differ from the Go loop: %d groups checksum %x, want %d groups checksum %x", n, sum, w.wantN, w.wantSum)
	}
	w.lastCheck = sum
	return nil
}

func (w *aggWorkload) probeInput() ProbeInput {
	return ProbeInput{Client: w.c, Db: db, Set: "rows", TypeName: "Row", Keys: keyColumn(w.in), UserBytes: 16 * int64(w.n), Graph: w.graph}
}

// buildWorker compiles cmd/pcworker into the work directory. It is part of
// the proc workload's set-up, so a slower build shows in setup_s.
func buildWorker(e *env) (string, error) {
	defer e.tr.span("build_pcworker")()
	bin := filepath.Join(filepath.Dir(e.dir), "pcworker")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/pcworker").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/pcworker: %v\n%s", err, out)
	}
	return bin, nil
}

// joinWorkload is join_part: a streaming hash-partition inner join whose
// emit callback folds a count and a checksum.
type joinWorkload struct {
	nLeft, nRight int

	left, right []row
	wantN       uint64
	wantSum     uint64
	flatSession
}

func (w *joinWorkload) rows() int { return w.nLeft }

// generate makes nRight distinct keys, each once on the right and
// nLeft/nRight times on the left, both sides permuted.
func (w *joinWorkload) generate(rng *rand.Rand) {
	w.right = make([]row, w.nRight)
	for i, k := range rng.Perm(w.nRight) {
		w.right[i] = row{int64(k), rng.Int63n(1 << 40)}
	}
	w.left = make([]row, w.nLeft)
	for i, k := range rng.Perm(w.nLeft) {
		w.left[i] = row{int64(k % max(w.nRight, 1)), rng.Int63n(1 << 40)}
	}
}

func (w *joinWorkload) goloop() {
	build := make(map[int64]int64, len(w.right))
	for _, r := range w.right {
		build[r.a] = r.b
	}
	var n, sum [Workers]uint64
	shards(len(w.left), func(s, lo, hi int) {
		var cn, cs uint64
		for _, l := range w.left[lo:hi] {
			if rb, ok := build[l.a]; ok {
				cn++
				cs += mixRow(l.b, rb)
			}
		}
		n[s], sum[s] = cn, cs
	})
	w.wantN, w.wantSum = 0, 0
	for s := range n {
		w.wantN += n[s]
		w.wantSum += sum[s]
	}
}

func (w *joinWorkload) open(e *env) error {
	if err := w.connect(e, baseConfig(), "KV", "key", "payload", true); err != nil {
		return err
	}
	if err := loadFlat(e, w.c, w.t, db, "left", w.left); err != nil {
		return err
	}
	return loadFlat(e, w.c, w.t, db, "right", w.right)
}

func (w *joinWorkload) job(e *env) error {
	key := func(r pc.Ref) uint64 { return object.HashValue(object.Int64Value(object.GetI64(r, w.t.a))) }
	eq := func(l, r pc.Ref) bool { return object.GetI64(l, w.t.a) == object.GetI64(r, w.t.a) }
	// Each worker's emit calls are serialized, so one padded slot per
	// worker needs no atomics.
	var acc [Workers]struct {
		n, sum uint64
		_      [48]byte
	}
	done := e.tr.span("execute")
	err := w.c.HashPartitionJoinKind(pc.JoinInner, db, "left", db, "right", key, key, eq,
		func(worker int, l, r pc.Ref) error {
			acc[worker].n++
			acc[worker].sum += mixRow(object.GetI64(l, w.t.b), object.GetI64(r, w.t.b))
			return nil
		})
	done()
	if err != nil {
		return err
	}
	var n, sum uint64
	for i := range acc {
		n += acc[i].n
		sum += acc[i].sum
	}
	if n != w.wantN || sum != w.wantSum {
		return fmt.Errorf("join differs from the Go loop: %d pairs checksum %x, want %d pairs checksum %x", n, sum, w.wantN, w.wantSum)
	}
	w.lastCheck = sum
	return nil
}

func (w *joinWorkload) probeInput() ProbeInput {
	return ProbeInput{Client: w.c, Db: db, Set: "left", TypeName: "KV", Keys: keyColumn(w.left), UserBytes: 16 * int64(w.nLeft)}
}

// sortWorkload is sort_full: ORDER BY (grp, val) with no limit and no
// spill, then a scan that checks the order.
type sortWorkload struct {
	n, groups int

	in   []row
	want uint64 // order-dependent chain over the sorted rows
	flatSession
}

func (w *sortWorkload) rows() int { return w.n }

func (w *sortWorkload) generate(rng *rand.Rand) {
	w.in = make([]row, w.n)
	for i := range w.in {
		w.in[i] = row{rng.Int63n(int64(max(w.groups, 1))), rng.Int63n(1 << 40)}
	}
}

func cmpRow(x, y row) int {
	if x.a != y.a {
		if x.a < y.a {
			return -1
		}
		return 1
	}
	if x.b != y.b {
		if x.b < y.b {
			return -1
		}
		return 1
	}
	return 0
}

// chain folds a row into an order-dependent checksum.
func chain(h uint64, a, b int64) uint64 { return h*0x100000001b3 + mixRow(a, b) }

func (w *sortWorkload) goloop() {
	s := slices.Clone(w.in)
	mid := len(s) / Workers
	shards(len(s), func(_, lo, hi int) { slices.SortFunc(s[lo:hi], cmpRow) })
	// Merge the two sorted halves, folding the chain as rows come out.
	var h uint64
	i, j := 0, mid
	for i < mid || j < len(s) {
		var r row
		if j >= len(s) || (i < mid && cmpRow(s[i], s[j]) <= 0) {
			r, i = s[i], i+1
		} else {
			r, j = s[j], j+1
		}
		h = chain(h, r.a, r.b)
	}
	w.want = h
}

func (w *sortWorkload) open(e *env) error {
	if err := w.connect(e, baseConfig(), "Row", "grp", "val", true); err != nil {
		return err
	}
	return loadFlat(e, w.c, w.t, db, "rows", w.in)
}

func (w *sortWorkload) graph() ([]*pc.Write, error) {
	member := func(f string) pc.SortKey {
		return pc.SortKey{Term: func(a *pc.Arg) pc.Term { return pc.FromMember(a, f) }, Kind: pc.KInt64}
	}
	ob := &pc.OrderBy{In: pc.NewScan(db, "rows", "Row"), ArgType: "Row", Keys: []pc.SortKey{member("grp"), member("val")}}
	return []*pc.Write{pc.NewWrite(db, "sorted", ob)}, nil
}

func (w *sortWorkload) job(e *env) error {
	if err := w.c.CreateSet(db, "sorted", "Row"); err != nil {
		return err
	}
	writes, _ := w.graph()
	done := e.tr.span("execute")
	st, err := w.c.ExecuteComputations(writes...)
	done()
	if err != nil {
		return err
	}
	e.noteStages(st.Stages)
	done = e.tr.span("result_read")
	var h uint64
	n, sorted := 0, true
	prev := row{-1 << 63, -1 << 63}
	err = w.c.ScanSet(db, "sorted", func(r pc.Ref) bool {
		cur := row{object.GetI64(r, w.t.a), object.GetI64(r, w.t.b)}
		if cmpRow(prev, cur) > 0 {
			sorted = false
		}
		prev = cur
		h = chain(h, cur.a, cur.b)
		n++
		return true
	})
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("dropset")
	err = w.c.DropSet(db, "sorted")
	done()
	if err != nil {
		return err
	}
	if !sorted || n != w.n || h != w.want {
		return fmt.Errorf("sorted output differs from the Go loop: %d rows, in order %v, chain %x, want %d rows chain %x", n, sorted, h, w.n, w.want)
	}
	w.lastCheck = h
	return nil
}

func (w *sortWorkload) probeInput() ProbeInput {
	return ProbeInput{Client: w.c, Db: db, Set: "rows", TypeName: "Row", Keys: keyColumn(w.in), UserBytes: 16 * int64(w.n), Graph: w.graph}
}

// ingestWorkload is ingest_scan: the write path beside the read path, with
// no query. Every job builds pages, loads them into a disk-backed cluster,
// closes it, reopens the directory, counts and scans the set, and drops it.
type ingestWorkload struct {
	n int

	in, store []row
	wantSum   uint64
	cfg       pc.Config
	flatSession
}

func (w *ingestWorkload) rows() int { return w.n }

func (w *ingestWorkload) generate(rng *rand.Rand) {
	w.in = make([]row, w.n)
	for i := range w.in {
		w.in[i] = row{int64(i), rng.Int63n(1 << 40)}
	}
	w.store = make([]row, w.n)
}

// goloop is the same ingest in plain Go: copy the rows into the store (a
// slice that outlives the job, so the reference allocates nothing and its
// time is steady), then count and checksum what was stored.
func (w *ingestWorkload) goloop() {
	var sums [Workers]uint64
	shards(len(w.in), func(s, lo, hi int) {
		stored := w.store[lo:hi]
		copy(stored, w.in[lo:hi])
		var sum uint64
		for _, r := range stored {
			sum += mixRow(r.a, r.b)
		}
		sums[s] = sum
	})
	w.wantSum = 0
	for _, s := range sums {
		w.wantSum += s
	}
}

func (w *ingestWorkload) open(e *env) error {
	w.cfg = baseConfig()
	w.cfg.DataDir = filepath.Join(e.dir, "ingest")
	if err := os.RemoveAll(w.cfg.DataDir); err != nil {
		return err
	}
	return w.connect(e, w.cfg, "KV", "key", "payload", true)
}

func (w *ingestWorkload) job(e *env) error {
	if err := loadFlat(e, w.c, w.t, db, "ingested", w.in); err != nil {
		return err
	}
	e.counters.harvest(w.c)
	e.counters.forget(w.c)
	done := e.tr.span("reopen")
	err := w.c.Close()
	if err == nil {
		err = w.connect(e, w.cfg, "KV", "key", "payload", false)
	}
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("countset")
	count, err := w.c.CountSet(db, "ingested")
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("scanset")
	n, sum, err := scanFlat(w.c, w.t, db, "ingested")
	done()
	if err != nil {
		return err
	}
	done = e.tr.span("dropset")
	err = w.c.DropSet(db, "ingested")
	done()
	if err != nil {
		return err
	}
	if count != w.n || n != w.n || sum != w.wantSum {
		return fmt.Errorf("restored set differs from the Go loop: count %d, scanned %d rows checksum %x, want %d rows checksum %x", count, n, sum, w.n, w.wantSum)
	}
	w.lastCheck = sum
	return nil
}

func (w *ingestWorkload) probeInput() ProbeInput {
	return ProbeInput{Client: w.c, Db: db, TypeName: "KV", Keys: keyColumn(w.in), UserBytes: 16 * int64(w.n)}
}
