#!/usr/bin/env bash
# Builds the benchmark and winrs-serve from source, then runs the benchmark.
# Run from the repository root; every flag is passed through:
#
#   bash bench/run.sh --workload vgg16-fp32 --seed 1 --seconds 20 --trace 0
#
# Builds, the Go caches and span files all stay under .bench_build/ in the
# current directory, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bin/winrs-benchmark" .)
(cd "$root/bench" && go build -o "$out/bin/winrs-serve" winrs/cmd/winrs-serve)

exec "$out/bin/winrs-benchmark" --serve-bin "$out/bin/winrs-serve" "$@"
