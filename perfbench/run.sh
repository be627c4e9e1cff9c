#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the checkout root. Every build artifact and Go
# toolchain cache stays inside the checkout, under $CARGO_TARGET_DIR
# (default .bench_build).
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare A_DIR B_DIR
#   bash perfbench/run.sh ab --a CHECKOUT_A --b CHECKOUT_B --workload engine --rounds 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off \
	GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
