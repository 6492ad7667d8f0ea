#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (git-ignored) and runs it with the arguments given:
#   bash benchmark/run.sh --workload p2p_frames --seed 1 --seconds 10 --trace 0
# The Go build cache and temporary files stay inside the checkout too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
cd "$here"
go build -o "$out/scsq-benchmark" .
exec "$out/scsq-benchmark" "$@"
