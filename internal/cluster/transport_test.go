package cluster

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/object"
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
			PageSize: 1 << 12, CheckpointInterval: 2}

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
// over both socket networks: checkpoint restore, exchange rewind, and
// replay must work identically when every replayed page re-traverses the
// socket — and the result must match a crash-free in-process run.
func TestSocketTransportCrashRecovery(t *testing.T) {
	const n, groups, interval = 3000, 12, 2
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, CheckpointInterval: interval}

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
		c.Cfg.Fault = fault.NewPlan(fault.Injection{Site: fault.Delivery, Worker: 1, K: interval + 1})
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
	base := Config{Workers: 2, Threads: 2, PageSize: 1 << 12, CheckpointInterval: 1}

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
