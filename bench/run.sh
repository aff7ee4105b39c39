#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash bench/run.sh --workload ferry --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh compare -a DIR -b DIR
#
# Build outputs, the Go build cache, its temporary files and run reports
# stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
if [ -z "${NLBENCH_COMMIT:-}" ]; then
	NLBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export NLBENCH_COMMIT
fi
(cd "$src" && go build -o "$out/nlbench" .)
exec "$out/nlbench" "$@"
