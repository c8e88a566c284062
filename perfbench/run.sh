#!/usr/bin/env bash
# Builds mecpid and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload predict_cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/, or under $CARGO_TARGET_DIR when that is set; the
# Go build cache lives there too.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/bin" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go build -o "$out/bin/mecpid" ./cmd/mecpid
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -mecpid "$out/bin/mecpid" -out "$out" "$@"
