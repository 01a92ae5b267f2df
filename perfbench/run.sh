#!/usr/bin/env bash
# Builds the scotty binary and the load generator from source, then runs the
# load generator with the given arguments. Run it from the repository root:
#
#	bash perfbench/run.sh --workload csv-sliding --seed 1 --seconds 30 --trace 0
#
# Everything the build leaves behind (binaries, the Go build cache, stderr
# logs, span dumps) goes under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/scotty" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/scotty in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/scotty" scotty/cmd/scotty) >&2

exec "$out/perfbench" --scotty "$out/scotty" --work "$out" "$@"
