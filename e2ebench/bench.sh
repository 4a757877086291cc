#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with the
# given arguments. Run it from the root of a checkout:
#
#   bash e2ebench/bench.sh --workload paper_cold --seed 1 --seconds 12 --trace 0
#   bash e2ebench/bench.sh                      # every workload, default seeds
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout, the Go build cache included; the first run compiles the
# standard library into it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/e2ebench/go.mod" ]; then
	echo "e2ebench: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry counters under the
# user's config directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

mkdir -p "$out/bin"
bin="$out/bin/e2ebench"
new=$(mktemp "$out/tmp/e2ebench.XXXXXX")
(cd "$root/e2ebench" && go build -o "$new" .)
mv -f "$new" "$bin"

E2EBENCH_SPAWN_NS=$(date +%s%N)
export E2EBENCH_SPAWN_NS
exec "$bin" "$@"
