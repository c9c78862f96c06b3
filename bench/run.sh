#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it from
# the checkout's root:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash bench/run.sh -compare A.jsonl B.jsonl
#
# bench/ is a module of its own (bench/go.mod, `replace repro => ../`), so
# the repository's `go build ./...` and `go test ./...` do not include it.
# The build cache, the go command's own state and the binary all live
# under .bench_build/ in the checkout, so a run reads and writes nothing
# outside it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off \
	go build -C bench -o "$build/riskybench" .
exec "$build/riskybench" "$@"
