#!/usr/bin/env bash
# Builds foldbench from the checkout it sits in and runs it with the
# given flags, e.g.
#
#   bash foldbench/run.sh --workload resubmit-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files, service state and trace artifacts
# all stay under .foldbench/ at the top of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
top="$(dirname "$here")"
out="$top/.foldbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off
(cd "$here" && go build -o "$out/bin/foldbench" .)
cd "$top"
exec "$out/bin/foldbench" --out "$out" "$@"
