#!/usr/bin/env bash
# Builds blastd, blastcp and the benchmark program from source into
# .bench_build/ (everything the build touches stays inside the checkout),
# then runs the benchmark with the arguments given. Run it from the
# repository root: bash benchmark/run.sh --workload bulk_pull --seed 1
set -euo pipefail

[ -f go.mod ] && [ -d cmd/blastd ] && [ -d cmd/blastcp ] || {
	echo "benchmark/run.sh: run from the root of a blastlan checkout (no go.mod, cmd/blastd or cmd/blastcp here)" >&2
	exit 2
}
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
go build -o "$build/bin/" ./cmd/blastd ./cmd/blastcp
go build -C benchmark -o "$build/bin/blastbench" .
exec "$build/bin/blastbench" -bin "$build/bin" "$@"
