#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from the checkout's
# sources and runs it (the harness builds loopschedd itself, before any
# timing). The go command's cache, work directory and configuration are
# pointed into bench/out so that a run reads and writes nothing outside the
# checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin out/tmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/tmp" XDG_CONFIG_HOME="$PWD/out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o out/bin/bench .
exec out/bin/bench "$@"
