#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload gate --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# Everything the build and the runs write stays under .bench_build/,
# including the Go build cache and the go command's own config and
# telemetry (XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# Stamp the commit when the checkout is a git repository; a bare source
# tree builds without VCS information.
vcs=-buildvcs=false
if [ -e .git ]; then
	vcs=-buildvcs=auto
fi
(cd perfbench && go build "$vcs" -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
