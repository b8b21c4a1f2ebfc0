//go:build layerprobes

package main

// The traced run rebuilds this command with -tags layerprobes; the import
// registers the layer probes and counters with the suite.
import _ "repro/benchmark/layers"
