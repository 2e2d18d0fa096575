#!/usr/bin/env bash
# Builds the benchmark and runs it with the given arguments. Run it from the
# root of a checkout:
#
#   bash cmd/bench/run.sh --workload init-exact-4k --seed 1 --seconds 20 --trace 0
#
# cmd/bench is a Go module of its own that imports the repository through a
# replace directive, so the build fails (and this script exits non-zero)
# when the rest of the repository is absent. Everything the toolchain
# writes — build cache, temporary files, telemetry — stays in .bench_build
# at the root of the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
	GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd cmd/bench && go build -o "$out/bench" .)
exec "$out/bench" "$@"
