#!/usr/bin/env bash
# Build ibvbench from the sources of this checkout, then become it. No
# `go run`, no `&`, no daemon: when this script returns, nothing it started
# is alive. Everything written (binary, Go build cache, traces) stays under
# bench/out/.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local GOWORK=off
go build -o out/ibvbench .
cd ..
exec bench/out/ibvbench "$@"
