#!/usr/bin/env bash
# Builds the range benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash benchmark/run.sh --workload fleet_wipe --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ in the current directory, so a run writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local
go build -C benchmark -o "$out/rangebench" .
exec "$out/rangebench" "$@"
