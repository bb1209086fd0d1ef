#!/usr/bin/env bash
# Builds the gonoc benchmark from the source in this checkout and runs
# it, passing every argument through:
#
#   bash nocbench/run.sh --workload uniform-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary, temp
# files and span output all go under .bench_build/ at the root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "nocbench: $root holds no gonoc module to build" >&2
	exit 1
fi
command -v go >/dev/null || { echo "nocbench: go is not on PATH" >&2; exit 1; }

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin" "$out/nocbench"
# Keep the toolchain's caches and config inside the checkout, and never
# let it reach for a network or another toolchain.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/bin/nocbench" .)
cd "$root"
exec "$out/bin/nocbench" --out "$out/nocbench" "$@"
