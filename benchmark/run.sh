#!/usr/bin/env bash
# Builds the benchmark and the program it measures from source, then runs
# it. Everything the build writes stays under benchmark/.build/.
#
#   bash benchmark/run.sh --workload direct_single --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -smoke | -repeat 2 [-traced] | -spec
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/server" ]; then
	echo "benchmark: the program's sources are not beside benchmark/ (no go.mod, no internal/server in $root)" >&2
	exit 2
fi

build="$here/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
export XDG_CONFIG_HOME="$build/config" # keeps the go command's telemetry files inside .build

(cd "$here" && go build -o "$build/ttservebench" .)
cd "$root"
exec "$build/ttservebench" "$@"
