#!/usr/bin/env bash
# Builds servenode, indexbuild and the load generator from the checkout it
# is started in, then runs one benchmark run. Run it from the root of the
# repository:
#
#   bash perfbench/run.sh --workload wayfind-campus --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in that root. All
# compiling finishes before the generator starts, so no timing overlaps a
# build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/bin/" viptree/cmd/servenode viptree/cmd/indexbuild .) >&2

exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
