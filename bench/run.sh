#!/usr/bin/env bash
# Builds the xtalk benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh                      # all four workloads, text report
#   bash bench/run.sh --workload e5-warm --seed 3 --seconds 15 --trace 0
#
# The binary, the Go build cache and the go command's own state (GOPATH,
# its config and telemetry directory) live under .bench_build/, so a run
# writes nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd bench && go build -o "$out/xtalk-bench" .)
exec "$out/xtalk-bench" "$@"
