package cluster

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/race"
	"repro/internal/wire"
)

// onePage builds a single sealed page of one record for transport probes.
func onePage(t *testing.T, c *Cluster, rec *object.TypeInfo) *object.Page {
	t.Helper()
	pages, err := object.BuildPages(c.Catalog.Registry(), 1<<12, 1, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err != nil {
			return object.NilRef, err
		}
		object.SetI64(r, rec.Field("grp"), 0)
		object.SetI64(r, rec.Field("val"), int64(i))
		return r, nil
	})
	if err != nil || len(pages) == 0 {
		t.Fatalf("building probe page: %v", err)
	}
	return pages[0]
}

// socketNetworks are the real-socket transports the matrix sweeps. Unix
// gets the full matrix; TCP gets a smoke cell (same code path, slower
// handshakes).
var socketNetworks = []string{"unix", "tcp"}

// TestSocketTransportAggIdentity reruns the streaming-aggregation
// determinism check over real sockets: the same job on the same data must
// produce result rows bit-for-bit identical (order included) to the
// in-process transport, for every recovery-matrix cell — the exchange
// protocol must not notice that its pages now traverse a kernel socket.
func TestSocketTransportAggIdentity(t *testing.T) {
	const n, groups = 4000, 16
	for _, cell := range recoveryMatrix {
		cfg := Config{Workers: cell.workers, Threads: cell.threads,
			PageSize: 1 << 12}

		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refRec := intRecType(ref)
		loadIntRows(t, ref, refRec, "db", "rows", n, groups)
		wantRows, _ := runIntAgg(t, ref, refRec, nil)

		cfg.Transport = "unix"
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", n, groups)
		gotRows, _ := runIntAgg(t, c, rec, nil)
		if !equalRows(gotRows, wantRows) {
			t.Errorf("w=%d t=%d: unix-socket run differs from in-process run (%d vs %d rows)",
				cell.workers, cell.threads, len(gotRows), len(wantRows))
		}
		bytes, pages := c.Transport.Stats().Counters()
		if bytes == 0 || pages == 0 {
			t.Errorf("w=%d t=%d: socket transport shipped nothing (%d bytes, %d pages)",
				cell.workers, cell.threads, bytes, pages)
		}
		if err := c.Close(); err != nil {
			t.Errorf("w=%d t=%d: close: %v", cell.workers, cell.threads, err)
		}
	}
}

// TestTCPTransportSmoke runs one aggregation cell over TCP loopback and
// checks identity against the in-process reference.
func TestTCPTransportSmoke(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", 2000, 12)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	cfg.Transport = "tcp"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 2000, 12)
	gotRows, _ := runIntAgg(t, c, rec, nil)
	if !equalRows(gotRows, wantRows) {
		t.Error("tcp run differs from in-process run")
	}
}

// TestSocketTransportCrashRecovery reruns the mid-merge consumer crash
// over both socket networks: the exchange rewind and replay must work
// identically when every replayed page re-traverses the socket — and the
// result must match a crash-free in-process run.
func TestSocketTransportCrashRecovery(t *testing.T) {
	const n, groups = 3000, 12
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}

	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", n, groups)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	for _, network := range socketNetworks {
		cfg := base
		cfg.Transport = network
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", n, groups)
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: 3})
		gotRows, stats := runIntAgg(t, c, rec, nil)
		if c.Cfg.Fault.Fired() != 1 {
			t.Fatalf("%s: the consumer crash never fired", network)
		}
		if stats.ConsumerRecoveries != 1 {
			t.Errorf("%s: consumer recoveries = %d, want 1", network, stats.ConsumerRecoveries)
		}
		if !equalRows(gotRows, wantRows) {
			t.Errorf("%s: recovered socket run differs from crash-free in-process run", network)
		}
		if err := c.Close(); err != nil {
			t.Errorf("%s: close: %v", network, err)
		}
	}
}

// TestSocketTransportJoinIdentity runs the hash-partition join over the
// unix transport, with a build-side crash, and checks the emitted match
// sequence against the crash-free in-process join.
func TestSocketTransportJoinIdentity(t *testing.T) {
	const left, right, groups = 600, 90, 18
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}

	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "left", left, groups)
	loadIntRows(t, ref, refRec, "db", "right", right, groups)
	wantRows := joinPairsByWorker(t, ref, refRec)

	cfg := base
	cfg.Transport = "unix"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "left", left, groups)
	loadIntRows(t, c, rec, "db", "right", right, groups)
	c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.BuildPage, Worker: 0, K: 1})
	gotRows := joinPairsByWorker(t, c, rec)
	if c.Cfg.Fault.Fired() != 1 {
		t.Fatal("the build crash never fired")
	}
	if !equalRows(gotRows, wantRows) {
		t.Errorf("unix-socket join differs from in-process join (%d vs %d pairs)",
			len(gotRows), len(wantRows))
	}
}

// TestConnDropAbsorbedByRedial injects dropped connections into the unix
// transport mid-job: the redial path must absorb every drop (the job
// succeeds, results identical), and ShipStats.Reconnects must count them.
func TestConnDropAbsorbedByRedial(t *testing.T) {
	cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12}
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refRec := intRecType(ref)
	loadIntRows(t, ref, refRec, "db", "rows", 2000, 12)
	wantRows, _ := runIntAgg(t, ref, refRec, nil)

	cfg.Transport = "unix"
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rec := intRecType(c)
	loadIntRows(t, c, rec, "db", "rows", 2000, 12)
	c.Cfg.Fault = fault.NewPlan(
		fault.Injection{Site: fault.ConnDrop, Worker: 0, K: 0},
		fault.Injection{Site: fault.ConnDrop, Worker: 0, K: 1},
	)
	gotRows, _ := runIntAgg(t, c, rec, nil)
	if fired := c.Cfg.Fault.Fired(); fired != 2 {
		t.Fatalf("connection drops fired = %d, want 2", fired)
	}
	if got := c.Transport.Stats().Reconnects; got != 2 {
		t.Errorf("reconnects = %d, want 2", got)
	}
	if !equalRows(gotRows, wantRows) {
		t.Error("run with dropped connections differs from clean run")
	}
}

// TestClusterCloseTearsDownTransport checks the teardown contract: Close
// releases the socket listener and every idle connection, is idempotent,
// and a Ship after Close fails instead of hanging.
func TestClusterCloseTearsDownTransport(t *testing.T) {
	for _, network := range socketNetworks {
		cfg := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, Transport: network}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rec := intRecType(c)
		loadIntRows(t, c, rec, "db", "rows", 1000, 8)
		if _, stats := runIntAgg(t, c, rec, nil); len(stats.Ships) == 0 {
			t.Fatalf("%s: no ship stats", network)
		}
		st := c.Transport.(*SocketTransport)
		if st.IdleConns() == 0 {
			t.Errorf("%s: expected pooled idle connections before close", network)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("%s: close: %v", network, err)
		}
		if err := c.Close(); err != nil {
			t.Errorf("%s: second close: %v", network, err)
		}
		if st.IdleConns() != 0 {
			t.Errorf("%s: %d idle connections leaked past close", network, st.IdleConns())
		}
		if _, err := c.Transport.Ship(onePage(t, c, rec), c.Workers[0].Reg()); err == nil {
			t.Errorf("%s: Ship after Close should fail", network)
		}
	}
}

// TestShipWritesNoPageBytes: MemTransport.Ship, into a pool frame or an
// exact-prefix buffer, leaves its source as it was and returns a copy whose
// occupied bytes equal the source's.
func TestShipWritesNoPageBytes(t *testing.T) {
	const size = 16 << 10
	reg := object.NewRegistry()
	rec := object.NewStruct("ShipRec").AddField("val", object.KInt64).MustBuild(reg)
	pages, err := object.BuildPages(reg, size, 50, func(a *object.Allocator, i int) (object.Ref, error) {
		r, err := a.MakeObject(rec)
		if err == nil {
			object.SetI64(r, rec.Field("val"), int64(i))
		}
		return r, err
	})
	if err != nil {
		t.Fatal(err)
	}
	src := pages[0]
	want := bytes.Clone(src.Data)
	for _, tr := range []*MemTransport{NewMemTransport(), {pool: object.NewPagePool(size)}} {
		got, err := tr.Ship(src, reg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(src.Data, want) {
			t.Errorf("pooled %v: Ship wrote its source page", tr.pool != nil)
		}
		if !bytes.Equal(got.Bytes(), src.Bytes()) {
			t.Errorf("pooled %v: the shipped copy's bytes differ from its source's", tr.pool != nil)
		}
	}
}

// TestShipLandsInPoolFrame pins MemTransport.Ship's copy: a page of the
// pool's size lands in a frame taken from the page pool, even one that last
// held a longer page, and reads back byte for byte; a page of another size
// gets an exact-prefix copy; ShipStats counts occupied bytes, never frame
// sizes. Allocation guards: a warm-pool Ship makes no page-size buffer, and
// wire.Write of a 64 KiB page frame writes the payload from the page itself.
func TestShipLandsInPoolFrame(t *testing.T) {
	const size = 64 << 10
	reg := object.NewRegistry()
	rec := object.NewStruct("ShipRec").AddField("val", object.KInt64).MustBuild(reg)
	page := func(pageSize, rows int) *object.Page {
		pages, err := object.BuildPages(reg, pageSize, rows, func(a *object.Allocator, i int) (object.Ref, error) {
			r, err := a.MakeObject(rec)
			if err == nil {
				object.SetI64(r, rec.Field("val"), int64(i)+1)
			}
			return r, err
		})
		if err != nil {
			t.Fatal(err)
		}
		return pages[0]
	}
	long, short := page(size, 4000), page(size, 3)
	if short.Used() >= long.Used() {
		t.Fatalf("short page holds %d bytes, long page %d", short.Used(), long.Used())
	}

	pool := object.NewPagePool(size)
	tr := &MemTransport{pool: pool}
	first, err := tr.Ship(long, reg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Put(first) // the frame now holds the long page's bytes
	before, _ := tr.Stats().Counters()
	got, err := tr.Ship(short, reg)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Data[0] != &first.Data[0] || len(got.Data) != size {
		t.Errorf("a pool-size page did not land in the recycled %d-byte frame (got %d bytes)", size, len(got.Data))
	}
	if !bytes.Equal(got.Bytes(), short.Bytes()) {
		t.Errorf("shipped page reads %d bytes unlike its %d-byte source", len(got.Bytes()), len(short.Bytes()))
	}
	if after, _ := tr.Stats().Counters(); after-before != int64(len(short.Bytes())) {
		t.Errorf("BytesShipped grew by %d, want the %d occupied bytes", after-before, len(short.Bytes()))
	}
	odd := page(4096, 3)
	if q, err := tr.Ship(odd, reg); err != nil || len(q.Data) != len(odd.Bytes()) || !bytes.Equal(q.Bytes(), odd.Bytes()) {
		t.Errorf("a %d-byte page shipped into %d bytes (err %v), want an exact %d-byte prefix copy", len(odd.Data), len(q.Data), err, len(odd.Bytes()))
	}

	if race.Enabled {
		t.Skip("allocation guards are not meaningful under the race detector")
	}
	bytesPerOp := func(op func()) uint64 {
		const runs = 100
		op() // warm
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			op()
		}
		runtime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / runs
	}
	if b := bytesPerOp(func() {
		q, err := tr.Ship(long, reg)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(q)
	}); b >= 1<<10 {
		t.Errorf("a warm-pool Ship of a %d-byte page allocates %d B, want < 1 KiB", size, b)
	}
	frame := &wire.Frame{Kind: wire.KindPage, Types: []wire.TypeBinding{{Code: rec.Code, Name: rec.Name}}, Payload: long.Data}
	if b := bytesPerOp(func() {
		if err := wire.Write(io.Discard, frame); err != nil {
			t.Fatal(err)
		}
	}); b >= 1<<10 {
		t.Errorf("wire.Write of a %d-byte page frame allocates %d B, want < 1 KiB", len(frame.Payload), b)
	}
}
