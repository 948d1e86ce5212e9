#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload flow-n100 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Every build and run artifact (Go build
# cache, temp files, the binary, trace files) stays under .bench_build/ in
# that root, so the benchmark reads and writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${root}/.bench_build"
mkdir -p "${build}/tmp"
export GOCACHE="${build}/gocache"
export GOTMPDIR="${build}/tmp"
export GOPATH="${build}/gopath"
export XDG_CONFIG_HOME="${build}/config"
export GOTOOLCHAIN=local

bin="${build}/perfbench"
(cd "${root}/perfbench" && go build -o "${bin}.tmp.$$" .)
mv -f "${bin}.tmp.$$" "${bin}"
cd "${root}"
exec "${bin}" "$@"
