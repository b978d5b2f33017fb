#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script lives in and runs it from the checkout root, so every file the run
# reads or writes (Go build cache included) stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local XDG_CONFIG_HOME="$out/config"
go build -C bench -o "$out/bench" .
exec "$out/bench" "$@"
