package cluster

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// procSet tracks the pcworker OS processes a proc-mode cluster spawned, so
// Cluster.Close can tear them down and leak checks can see them.
type procSet struct{ workers []*procWorker }

// procWorker is one worker's pcworker OS process slot: the master starts
// the binary, reads the listen address it announces on stdout, and dials
// one control connection per role session. Each spawn is a new
// incarnation; a role session runs against the incarnation revive handed
// it, so a lost session names the process it lost.
type procWorker struct {
	id      int
	bin     string
	network string // "unix" or "tcp"
	dataDir string // the worker's own DataDir subtree (DataDir/worker-N)

	// mu serializes revive and stop: a kill severs both of a worker's role
	// sessions, and both retries race to respawn the process — exactly one
	// spawn must win, the other must get the fresh incarnation.
	mu sync.Mutex
	in *incarnation // the last spawned process; nil before the first spawn and after stop
}

// incarnation is one spawned pcworker process. Its one reaper goroutine
// closes exited once cmd.Wait returns, so the process's death is an event
// the master can wait on.
type incarnation struct {
	cmd    *exec.Cmd
	addr   string // the listen address the process announced
	exited chan struct{}
}

// alive reports whether the process is still running.
func (in *incarnation) alive() bool {
	select {
	case <-in.exited:
		return false
	default:
		return true
	}
}

// kill ends the process (SIGKILL — crash-equivalent by design, so teardown
// exercises the same recovery surface a real crash would; a no-op if it
// already exited) and waits until it is reaped.
func (in *incarnation) kill() {
	in.cmd.Process.Kill()
	<-in.exited
}

// spawn starts the worker binary as pw's new incarnation and waits for its
// "ADDR <addr>" banner. The worker owns its listen socket: unix sockets
// live under the worker's DataDir subtree so a master on the same machine
// can always find them and stop can always remove them. pw.mu is held.
func (pw *procWorker) spawn() (*incarnation, error) {
	cmd := exec.Command(pw.bin, "-worker", fmt.Sprint(pw.id), "-network", pw.network, "-data", pw.dataDir)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %d stdout: %w", pw.id, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("cluster: spawn worker %d (%s): %w", pw.id, pw.bin, err)
	}
	in := &incarnation{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(in.exited)
	}()

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
			in.kill()
			return nil, fmt.Errorf("cluster: worker %d announced %q, want ADDR banner", pw.id, line)
		}
		in.addr = strings.TrimPrefix(line, "ADDR ")
	case <-in.exited:
		return nil, fmt.Errorf("cluster: worker %d exited before announcing its address", pw.id)
	case <-time.After(10 * time.Second):
		in.kill()
		return nil, fmt.Errorf("cluster: worker %d never announced its address", pw.id)
	}
	pw.in = in
	return in, nil
}

// revive returns the running incarnation, respawning the process if the
// last one exited (or none was started). Safe to call concurrently from
// both of a worker's role retries.
func (pw *procWorker) revive() (*incarnation, error) {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	if pw.in != nil && pw.in.alive() {
		return pw.in, nil
	}
	pw.reap()
	return pw.spawn()
}

// stop kills the running incarnation, reaps it, and removes its socket
// file. Idempotent; a worker that already died (crash, injected ProcKill)
// just gets reaped.
func (pw *procWorker) stop() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	pw.reap()
}

// reap is stop with pw.mu held.
func (pw *procWorker) reap() {
	if pw.in == nil {
		return
	}
	pw.in.kill()
	if pw.network == "unix" {
		os.Remove(pw.in.addr)
	}
	pw.in = nil
}
