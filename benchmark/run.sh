#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. The driver runs it from the root
# of a bare checkout (no .git, nothing .gitignore names) as
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# and reads the JSON object on the last line of standard output. The only
# thing this wrapper adds over `go run ./benchmark/cmd/bench` is that
# every byte the Go toolchain writes (build cache, temporary files, the
# binaries) lands inside the checkout, under the git-ignored .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/go-cache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export GOPATH="$PWD/.bench_build/gopath"
export GOPROXY=off GOTOOLCHAIN=local # the module has no dependencies: never reach for the network
mkdir -p "$GOTMPDIR" .bench_build/bin
go build -o .bench_build/bin/bench ./benchmark/cmd/bench
exec .bench_build/bin/bench "$@"
