#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# temporary files stay in .bench_build/ there; traced runs write spans to
# .bench_out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
# Everything the go command writes stays under .bench_build: build cache,
# temporary files, module cache and its user config (telemetry counters).
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
