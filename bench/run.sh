#!/usr/bin/env bash
# Builds the benchmark and kflushd from the checkout's sources, then runs
# one pass:  bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything it writes (build cache, binaries, traces, scratch data) stays
# inside the checkout: .bench_build/ and bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath"
export GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$here/out"
(cd "$here" && go build -o out/kflushload ./kflushload && go build -o out/kflushd kflushing/cmd/kflushd) >&2
exec "$here/out/kflushload" run -out "$here/out" -kflushd "$here/out/kflushd" "$@"
