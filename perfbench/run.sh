#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload rounds --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build), so the checkout is all
# the benchmark reads and writes.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be here)" >&2
	exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"

# The module needs nothing from the network: it requires only the
# repository's own module, replaced by the checkout's directory.
export GOPATH="$build/gopath" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local
(cd perfbench && go build -o "$build/perfbench" .) >&2

exec "$build/perfbench" --out "$build" "$@"
