// pcworker is the worker-process binary of a proc-mode cluster
// (cluster.Config.ProcBin): one OS process per worker node, hosting the
// worker's backend. The master spawns it, reads the "ADDR <addr>" banner
// it prints on stdout, and dials one control connection per role session
// (protocol: internal/procwork; serving loop: cluster.ServeWorker, which
// runs the role functions an in-process backend runs). Shipped jobs arrive
// as optimized TCAP text plus type schemas; the aggregation families they
// name must be linked into this binary (internal/agglib) — the names cross
// the wire, the code is shared by the build.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"

	_ "repro/internal/agglib" // named aggregation families, shared with the master
	"repro/internal/cluster"
)

func main() {
	worker := flag.Int("worker", 0, "worker id within the cluster")
	network := flag.String("network", "unix", "control socket network: unix or tcp")
	data := flag.String("data", "", "worker data directory (the cluster's DataDir/worker-N)")
	flag.Parse()
	if *data == "" {
		fatal("pcworker: -data is required")
	}
	if err := os.MkdirAll(*data, 0o755); err != nil {
		fatal(fmt.Sprintf("pcworker: %v", err))
	}
	var ln net.Listener
	var err error
	switch *network {
	case "unix":
		sock := filepath.Join(*data, fmt.Sprintf("ctl-%d.sock", *worker))
		os.Remove(sock) // a previous incarnation's socket, if any
		ln, err = net.Listen("unix", sock)
	case "tcp":
		ln, err = net.Listen("tcp", "127.0.0.1:0")
	default:
		fatal(fmt.Sprintf("pcworker: unknown network %q", *network))
	}
	if err != nil {
		fatal(fmt.Sprintf("pcworker: listen: %v", err))
	}
	// The banner is the spawn contract: the master reads exactly this line
	// to learn where to dial.
	fmt.Printf("ADDR %s\n", ln.Addr())
	if err := cluster.ServeWorker(ln, *worker, *data); err != nil {
		fatal(fmt.Sprintf("pcworker: %v", err))
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, msg)
	os.Exit(1)
}
