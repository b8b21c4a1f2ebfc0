package cluster

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/fault"
	"repro/internal/object"
	"repro/internal/procwork"
	"repro/internal/wire"
)

// SocketTransport ships pages through a real socket: every Ship encodes the
// page as a wire frame (internal/wire), writes it to a dialed connection,
// and a server goroutine on the far end of the socket decodes it into the
// destination worker's registry — the bytes genuinely traverse the kernel's
// socket path (unix domain or TCP loopback), and the type-code table is
// verified against the destination registry on arrival. Because the whole
// cluster still lives in one process, the decoded page is handed back to
// the shipping goroutine directly (the socket carries the bytes; the page
// identity does not need to be smuggled through a second copy). Proc mode
// (internal/procwork) uses the same frames across genuinely separate
// processes.
//
// Connection loss is survivable: a failed frame write redials once and
// re-sends, counting ShipStats.Reconnects — fault.ConnDrop injects exactly
// that by severing the active connection before a write.
type SocketTransport struct {
	network string // "unix" or "tcp"
	ln      net.Listener
	tmpDir  string // unix socket directory; removed on Close
	stats   ShipStats
	plan    func() *fault.Plan // live view of the cluster's fault schedule

	mu      sync.Mutex
	closed  bool
	conns   []net.Conn // idle dialed connections (client side)
	regs    map[*object.Registry]uint32
	regList []*object.Registry
	nextReq uint32
	pending map[uint32]chan shipResult

	serveWG sync.WaitGroup
}

type shipResult struct {
	page *object.Page
	err  error
}

// newSocketTransport opens the page server on a fresh unix socket (under a
// private temp dir) or a TCP loopback port and starts its accept loop.
func newSocketTransport(network string, plan func() *fault.Plan) (*SocketTransport, error) {
	if plan == nil {
		plan = func() *fault.Plan { return nil }
	}
	t := &SocketTransport{
		network: network,
		plan:    plan,
		regs:    map[*object.Registry]uint32{},
		pending: map[uint32]chan shipResult{},
	}
	var err error
	switch network {
	case "unix":
		t.tmpDir, err = os.MkdirTemp("", "pcwire-")
		if err != nil {
			return nil, fmt.Errorf("cluster: socket transport: %w", err)
		}
		t.ln, err = net.Listen("unix", filepath.Join(t.tmpDir, "pages.sock"))
	case "tcp":
		t.ln, err = net.Listen("tcp", "127.0.0.1:0")
	default:
		return nil, fmt.Errorf("cluster: unknown socket network %q", network)
	}
	if err != nil {
		if t.tmpDir != "" {
			os.RemoveAll(t.tmpDir)
		}
		return nil, fmt.Errorf("cluster: socket transport listen: %w", err)
	}
	t.serveWG.Add(1)
	go t.acceptLoop()
	return t, nil
}

// regID interns a destination registry under a small id that rides the
// frame header, so the server side can decode into the right memory space.
func (t *SocketTransport) regID(reg *object.Registry) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.regs[reg]; ok {
		return id
	}
	id := uint32(len(t.regList))
	t.regs[reg] = id
	t.regList = append(t.regList, reg)
	return id
}

func (t *SocketTransport) registry(id uint32) *object.Registry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= len(t.regList) {
		return nil
	}
	return t.regList[id]
}

// acquireConn returns an idle dialed connection or dials a new one.
func (t *SocketTransport) acquireConn() (net.Conn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("cluster: socket transport is closed")
	}
	if n := len(t.conns); n > 0 {
		c := t.conns[n-1]
		t.conns = t.conns[:n-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	return net.Dial(t.ln.Addr().Network(), t.ln.Addr().String())
}

func (t *SocketTransport) releaseConn(c net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.conns = append(t.conns, c)
	t.mu.Unlock()
}

// Ship encodes the page as a wire frame, sends it through the socket, and
// returns the page the server decoded into dst. The frame's type table
// carries every user-type binding of the destination's catalog view, and
// the server verifies each against dst before decoding — a code drift
// fails the ship, it does not corrupt a page.
func (t *SocketTransport) Ship(p *object.Page, dst *object.Registry) (*object.Page, error) {
	regID := t.regID(dst)
	t.mu.Lock()
	reqID := t.nextReq
	t.nextReq++
	done := make(chan shipResult, 1)
	t.pending[reqID] = done
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.pending, reqID)
		t.mu.Unlock()
	}()

	var types []wire.TypeBinding
	for _, ti := range dst.UserTypes() {
		types = append(types, wire.TypeBinding{Code: ti.Code, Name: ti.Name})
	}
	frame := &wire.Frame{
		Kind: wire.KindPage,
		// Loopback routing header: which request this is and which memory
		// space to decode into. Proc mode uses the exchange tag here.
		Tag:     wire.Tag{Producer: reqID, Thread: regID},
		Types:   types,
		Payload: p.Bytes(),
	}

	conn, err := t.acquireConn()
	if err != nil {
		return nil, err
	}
	if t.plan().ErrAt(fault.ConnDrop, 0) != nil {
		// Injected connection drop: sever before any frame byte is
		// written, so the stream never carries a partial frame.
		conn.Close()
	}
	if err := wire.Write(conn, frame); err != nil {
		// The connection died (injected or real): redial once and re-send
		// the whole frame on a fresh connection.
		conn.Close()
		t.stats.NoteReconnect()
		conn, err = t.acquireConn()
		if err != nil {
			return nil, fmt.Errorf("cluster: socket redial: %w", err)
		}
		if err := wire.Write(conn, frame); err != nil {
			conn.Close()
			return nil, fmt.Errorf("cluster: socket ship after redial: %w", err)
		}
	}
	t.releaseConn(conn)

	res := <-done
	if res.err != nil {
		return nil, res.err
	}
	t.stats.NoteShip(int64(len(p.Bytes())))
	return res.page, nil
}

// ShipAll ships a batch of pages.
func (t *SocketTransport) ShipAll(pages []*object.Page, dst *object.Registry) ([]*object.Page, error) {
	return shipAll(t, pages, dst)
}

// Stats returns the shared accounting block.
func (t *SocketTransport) Stats() *ShipStats { return &t.stats }

// acceptLoop is the page server: one goroutine per accepted connection.
func (t *SocketTransport) acceptLoop() {
	defer t.serveWG.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.serveWG.Add(1)
		go t.serveConn(conn)
	}
}

// serveConn reads frames off one connection, decodes each page into its
// destination registry, and completes the waiting Ship.
func (t *SocketTransport) serveConn(conn net.Conn) {
	defer t.serveWG.Done()
	defer conn.Close()
	for {
		f, err := wire.Read(conn, 0)
		if err != nil {
			return // EOF (client closed / redialed) or transport teardown
		}
		reqID, regID := f.Tag.Producer, f.Tag.Thread
		page, err := t.decodePage(f, regID)
		t.mu.Lock()
		done := t.pending[reqID]
		t.mu.Unlock()
		if done != nil {
			done <- shipResult{page: page, err: err}
		}
	}
}

// decodePage verifies the frame's type table against the destination
// registry and materializes the payload as a page owned by it.
func (t *SocketTransport) decodePage(f *wire.Frame, regID uint32) (*object.Page, error) {
	dst := t.registry(regID)
	if dst == nil {
		return nil, fmt.Errorf("cluster: wire frame for unknown registry %d", regID)
	}
	// The same check-and-adopt proc mode's sessions use. The payload slice
	// is freshly allocated by wire.Read and aliased nowhere else — the page
	// takes ownership without another copy.
	return procwork.DecodePage(f, dst)
}

// Close tears the transport down: the listener, every idle dialed
// connection, the server goroutines, and the unix socket directory.
// Idempotent.
func (t *SocketTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = nil
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	err := t.ln.Close()
	t.serveWG.Wait()
	if t.tmpDir != "" {
		os.RemoveAll(t.tmpDir)
	}
	return err
}

// IdleConns reports the idle client-connection count (leak checks).
func (t *SocketTransport) IdleConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.conns)
}
