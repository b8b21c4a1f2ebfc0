//go:build !race

// Package race reports whether the binary was built with the race detector,
// for tests whose assertion only holds without it: the detector's
// instrumentation allocates, so an allocation count under -race says nothing
// about the code.
package race

// Enabled is true under -race.
const Enabled = false
