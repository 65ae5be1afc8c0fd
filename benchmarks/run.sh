#!/usr/bin/env bash
# Builds the live benchmark from source into the checkout's .bench_build/
# (binary and Go build cache both stay inside the checkout) and runs it with
# the caller's arguments. Fails, printing no result, when the repository's
# sources are not beside this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/live" ./live)
exec "$out/live" "$@"
