#!/usr/bin/env bash
# Builds cmd/planbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/planbench/bench.sh -seed 2008 -json out.json
#
# The build works offline and keeps the Go build cache, temporary files
# and the binary under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$src" && go build -o "$out/planbench" .)
exec "$out/planbench" "$@"
