#!/usr/bin/env bash
# Builds the DUA benchmark from the sources around it and runs it:
#
#   bash duabench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root, from which the benchmark runs.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/duabench"
mkdir -p "$out/home"
HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off \
	go -C duabench build -o "$out/duabench" .
exec "$out/duabench" "$@"
