package cluster

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// procSet tracks the pcworker OS processes a proc-mode cluster spawned, so
// Cluster.Close can tear them down and leak checks can see them.
type procSet struct{ workers []*procWorker }

// procWorker is one pcworker OS process a proc-mode cluster spawned: the
// master starts the binary, reads the listen address it announces on
// stdout, and dials one control connection per role session. stop kills
// the process outright (SIGKILL — crash-equivalent by design, so teardown
// exercises the same recovery surface a real crash would) and reaps it.
type procWorker struct {
	id      int
	bin     string
	network string // "unix" or "tcp"
	dataDir string // the worker's own DataDir subtree (DataDir/worker-N)

	mu      sync.Mutex
	addr    string
	cmd     *exec.Cmd
	waitCh  chan error
	stopped bool
	gen     int // incarnation counter, bumped by every successful spawn

	// reviveMu serializes revive: a kill severs both of a worker's role
	// sessions, and both retries race to respawn the process — exactly one
	// spawn must win, the other must see the fresh process as alive.
	reviveMu sync.Mutex
}

// spawn starts the worker binary and waits for its "ADDR <addr>" banner.
// The worker owns its listen socket: unix sockets live under the worker's
// DataDir subtree so a master on the same machine can always find them and
// stop can always remove them.
func (pw *procWorker) spawn() error {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.cmd != nil {
		return fmt.Errorf("cluster: worker %d already running", pw.id)
	}
	args := []string{
		"-worker", fmt.Sprint(pw.id),
		"-network", pw.network,
		"-data", pw.dataDir,
	}
	cmd := exec.Command(pw.bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("cluster: worker %d stdout: %w", pw.id, err)
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("cluster: spawn worker %d (%s): %w", pw.id, pw.bin, err)
	}
	waitCh := make(chan error, 1)
	go func() { waitCh <- cmd.Wait() }()

	// The worker's first stdout line is "ADDR <listen address>". Anything
	// else (or the process dying first) is a failed spawn.
	banner := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			banner <- sc.Text()
		}
		close(banner)
		// Drain the rest so the worker never blocks on stdout.
		for sc.Scan() {
		}
	}()
	select {
	case line, ok := <-banner:
		if !ok || !strings.HasPrefix(line, "ADDR ") {
			cmd.Process.Kill()
			<-waitCh
			return fmt.Errorf("cluster: worker %d announced %q, want ADDR banner", pw.id, line)
		}
		pw.addr = strings.TrimPrefix(line, "ADDR ")
	case err := <-waitCh:
		return fmt.Errorf("cluster: worker %d exited before announcing address: %v", pw.id, err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-waitCh
		return fmt.Errorf("cluster: worker %d never announced its address", pw.id)
	}
	pw.cmd = cmd
	pw.waitCh = waitCh
	pw.stopped = false
	pw.gen++
	return nil
}

// generation identifies the current process incarnation. A role session
// that fails against generation g while the worker is now a different
// (or no) incarnation lost its process — even if a sibling role's retry
// already respawned it.
func (pw *procWorker) generation() int {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	return pw.gen
}

// dial opens a fresh control connection to the worker process. Each role
// session runs on its own connection, so a mid-stream kill severs exactly
// the sessions that were talking to the dead process.
func (pw *procWorker) dial() (net.Conn, error) {
	pw.mu.Lock()
	network, addr := pw.network, pw.addr
	running := pw.cmd != nil
	pw.mu.Unlock()
	if !running {
		return nil, fmt.Errorf("cluster: worker %d is not running", pw.id)
	}
	return net.Dial(network, addr)
}

// alive reports whether the worker process is still running.
func (pw *procWorker) alive() bool {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.cmd == nil {
		return false
	}
	select {
	case err := <-pw.waitCh:
		// Already exited; keep the verdict for stop.
		pw.waitCh = make(chan error, 1)
		pw.waitCh <- err
		return false
	default:
		return true
	}
}

// deadWithin polls for the process's death for up to d, reporting whether
// it died. A role-session error races the kernel reaping a killed worker,
// so classification as "crashed" vs "protocol error against a live
// worker" must give a death verdict a moment to land.
func (pw *procWorker) deadWithin(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		if !pw.alive() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop kills the worker process, reaps it, and removes its socket file.
// Idempotent; a worker that already died (crash, injected ProcKill) just
// gets reaped.
func (pw *procWorker) stop() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.cmd == nil || pw.stopped {
		pw.cmd = nil
		return
	}
	pw.stopped = true
	if pw.cmd.Process != nil {
		pw.cmd.Process.Kill()
	}
	<-pw.waitCh
	pw.cmd = nil
	if pw.network == "unix" && pw.addr != "" {
		os.Remove(pw.addr)
	}
}

// revive ensures the worker process is running: a live process is left
// alone, a dead (or never-started) one is reaped and respawned. Safe to
// call concurrently from both of a worker's role retries.
func (pw *procWorker) revive() error {
	pw.reviveMu.Lock()
	defer pw.reviveMu.Unlock()
	if pw.alive() {
		return nil
	}
	pw.stop()
	return pw.spawn()
}
