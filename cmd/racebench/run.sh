#!/usr/bin/env bash
# Builds racebench from source and runs it with the given flags, e.g.
#
#   bash cmd/racebench/run.sh --workload suite-triage --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write lands under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binary, and
# the benchmark's own scratch data.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

bin="$out/bin/racebench.$$"
# The binary records the git revision when it can. A checkout nested in
# some other work tree makes that lookup fail, so build once more without.
go -C "$here" build -o "$bin" . 2>/dev/null || go -C "$here" build -buildvcs=false -o "$bin" .
mv -f "$bin" "$out/bin/racebench"

cd "$root"
exec "$out/bin/racebench" "$@"
