#!/usr/bin/env bash
# Runs every workload once untraced and once traced with one seed and prints
# every metric by name and unit, from the repository root:
#
#	bash perfbench/all.sh [seed] [seconds]
#
# Result and provenance lines are kept in
# .bench_build/result-<workload>-trace<0|1>-seed<seed>.json.
set -euo pipefail

seed=${1:-1}
seconds=${2:-20}
mkdir -p .bench_build
for w in csv-sliding fleet-holistic-ooo keyed-egress; do
	for trace in 0 1; do
		echo "== $w, seed $seed, trace $trace" >&2
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
			>".bench_build/result-$w-trace$trace-seed$seed.json"
	done
done
