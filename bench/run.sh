#!/usr/bin/env bash
# Builds the crawl benchmark from source and runs it. Run from the
# repository root; every build and run artifact stays under .bench_build/.
#
#   bash bench/run.sh --workload crawl-seq-http --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh compare parent.jsonl change.jsonl
#   bash bench/run.sh check runs.jsonl
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/work"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$build/hidb-bench" .)

case "${1:-}" in
compare | check) exec "$build/hidb-bench" "$@" ;;
*) exec "$build/hidb-bench" --workdir "$build/work" "$@" ;;
esac
