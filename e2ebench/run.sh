#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload audit-catalog --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --selftest
#
# Build products, the Go build cache and every run's scratch stores live
# under .bench_build/ in the current directory (override with
# CARGO_TARGET_DIR), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOWORK=off
# The benchmark is its own module; it builds against the parent module
# through a replace directive, so a directory without the repository's
# sources fails here, before any result is printed.
(cd "$root/e2ebench" && go build -o "$build/e2ebench" .) >&2

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
exec env E2EBENCH_COMMIT="$commit" E2EBENCH_WORKDIR="$build" "$build/e2ebench" "$@"
