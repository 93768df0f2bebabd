#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's source and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the current directory: the Go build cache, the binary, the run
# records and the span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

commit=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/e2ebench" && go build -trimpath -buildvcs=false -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -out "$out/e2ebench" -commit "$commit" "$@"
