#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it from the checkout's
# root: bash bench/run.sh --workload serve-dist --seed 1 --seconds 12 --trace 0
#
# bench/ is a module of its own (bench/go.mod) that reaches the program's
# packages through "replace sparseapsp => ../", so the build fails, and
# this script with it, where the rest of the repository is missing.
# Everything the toolchain writes goes to bench/out/, which git ignores.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/bench/out/build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/bench" build -o "$build/apspbench" .
cd "$root"
exec "$build/apspbench" "$@"
