#!/usr/bin/env bash
# Launcher for the benchmark contract (BENCHMARK.json "command"): builds
# pcsuite from source inside the checkout and runs it with the given
# arguments. Everything the build and the run write stays under
# .bench_build/ in the checkout: the Go build cache, and the go command's own
# configuration and telemetry counters (XDG_CONFIG_HOME), included.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d pc ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod and pc/ not found)" >&2
	exit 2
fi
mkdir -p .bench_build/gotmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/gotmp"
export GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local # no module is downloaded: the repo has no dependencies
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
go build -o .bench_build/pcsuite ./benchmark/cmd/pcsuite
exec .bench_build/pcsuite -workdir .bench_build "$@"
