#!/usr/bin/env bash
# Builds the bus benchmark from the checkout it sits in and runs it with the
# arguments given (see perfbench/README.md). Build outputs, the Go build
# cache and run artefacts stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
