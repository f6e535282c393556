#!/usr/bin/env bash
# Builds the bellamy server and the benchmark program from source, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload serve-read --seed 1 --seconds 15 --trace 0
#
# Every build product, the Go build cache and the run's scratch files stay
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/bellamy" ]]; then
	echo "benchmark: run from the repository root (no go.mod or cmd/bellamy here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

go build -o "$out/bellamy" ./cmd/bellamy >&2
(cd "$root/benchmark" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" -bellamy "$out/bellamy" -work "$out/work" "$@"
