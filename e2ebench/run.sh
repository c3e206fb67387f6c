#!/usr/bin/env bash
# Builds the SIES end-to-end benchmark from this checkout's source and runs it.
# Run from the repository root, for example:
#
#   bash e2ebench/run.sh --workload star-64 --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the durable replay's state directory live
# under .bench_build/e2ebench; traced runs write their layer tables to
# e2ebench/results.
set -euo pipefail

root=$PWD
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

rev=unknown
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" --rev "$rev" --state "$out/state" "$@"
