#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload kv-5arch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, profiles and spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/simbench" && go build -o "$out/bin/simbench" .)
exec "$out/bin/simbench" --out "$out/simbench" --src "$root" "$@"
