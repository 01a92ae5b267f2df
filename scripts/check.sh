#!/usr/bin/env sh
# check.sh — the tier-1 verification gate. Everything CI runs is here, so
# "./scripts/check.sh passes" locally means the push will be green.
set -eu

cd "$(dirname "$0")/.."

echo '== go build ./...'
go build ./...

echo '== go vet ./...'
go vet ./...

echo '== slicelint ./...'
go run ./cmd/slicelint ./...

echo '== go test ./...'
go test ./...

echo '== go test -shuffle=on (order-independence; skip with SKIP_SHUFFLE=1)'
# Shuffled test order shakes out hidden inter-test state (shared registries,
# leaked goroutines, working-directory residue) that fixed order can mask.
if [ "${SKIP_SHUFFLE:-0}" = "1" ]; then
  echo 'skipped (SKIP_SHUFFLE=1)'
else
  go test -shuffle=on -count=1 ./...
fi

echo '== go test -race -short (engine, ops, core, stream, obs, scotty)'
# The engine leg covers the batched pipeline too (BatchProcessor handoff,
# buffer-pool recycling, keyed ProcessBatch behind parallel partitions); the
# ops leg hammers the backpressure edges, breaker, and DLQ under concurrency;
# the scotty leg runs the CLI's stdin reader, backpressure edge and metrics
# server goroutines against its run loop.
go test -race -short ./internal/engine ./internal/ops ./internal/core ./internal/stream ./internal/obs ./cmd/scotty

echo '== chaos: crash/torn-snapshot/barrier-fault equivalence'
# The fault-injection harness kills every technique at seeded points and
# requires the recovered results to be identical to an uninterrupted run
# (fixed seeds, so a failure here reproduces verbatim). -count=2 re-runs the
# suite to shake out order dependence between recovered state and fresh state.
go test ./internal/chaos/... -race -count=2

echo '== fuzz smoke (30s total; skip with SKIP_FUZZ=1)'
# Each fuzz target gets a short randomized burst on top of its checked-in
# seed corpus: the envelope decoder must never panic on arbitrary bytes
# (recovery reads checkpoint files straight off disk), and the lint
# directive parser backs every suppression in the tree.
if [ "${SKIP_FUZZ:-0}" = "1" ]; then
  echo 'skipped (SKIP_FUZZ=1)'
else
  go test ./internal/checkpoint -run '^$' -fuzz '^FuzzDecodeEnvelope$' -fuzztime 15s
  go test ./internal/lint -run '^$' -fuzz '^FuzzParseIgnoreDirective$' -fuzztime 15s
fi

echo '== benchmark smoke (fig 8 quick, JSON artifact)'
# Stash the committed reference before regenerating in place.
cp BENCH_fig8.json BENCH_fig8.ref.json
go run ./cmd/benchmark -fig 8 -json BENCH_fig8.json > /dev/null
# The artifact must be parseable JSON carrying the expected series.
go run ./scripts/checkbench.go BENCH_fig8.json
# No recorded series may regress more than 30% against the committed run.
# The latency gate is very loose here: fig 8 samples every 64th event, so its
# quantiles carry more jitter than the dedicated tail-latency figure's.
go run ./scripts/benchdiff.go -tol 0.30 -latency-tol 4.0 BENCH_fig8.ref.json BENCH_fig8.json
rm BENCH_fig8.ref.json

echo '== benchmark smoke (taillat quick, p99 quantile gate)'
# The tail-latency figure is the SLO gate: per-tuple p99 of the slice stores
# (lazy fold, FlatFAT, DABA ring) under an eviction-heavy sliding workload.
# Throughput is incidental here (the runner times every event), so its
# tolerance is wide; the p99 geomean per series may not grow beyond 3x the
# committed run — generous, so scheduler noise doesn't flake, but a real
# tail cliff (a reintroduced O(window) fold or compaction stall) is 10x+.
# A series disappearing entirely is fatal either way.
cp BENCH_taillat.json BENCH_taillat.ref.json
go run ./cmd/benchmark -fig taillat -json BENCH_taillat.json > /dev/null
go run ./scripts/checkbench.go BENCH_taillat.json
go run ./scripts/benchdiff.go -tol 0.90 -latency-tol 2.0 BENCH_taillat.ref.json BENCH_taillat.json
rm BENCH_taillat.ref.json

echo '== benchmark smoke (fleet quick, sharing-ratio gate)'
# The fleet figure is the sharing gate: the factor-window rewrite must keep
# beating the unshared core by >= 5x at 1024 correlated queries, with shared
# per-tuple cost growing sublinearly to 4096 queries (both asserted by
# checkbench on the fresh artifact). The benchdiff tolerance is wider than
# fig 8's: the unshared series' points at high query counts run few enough
# tuples that scheduler noise moves them more.
cp BENCH_fleet.json BENCH_fleet.ref.json
go run ./cmd/benchmark -fig fleet -json BENCH_fleet.json > /dev/null
go run ./scripts/checkbench.go BENCH_fleet.json
go run ./scripts/benchdiff.go -tol 0.45 -latency-tol 4.0 BENCH_fleet.ref.json BENCH_fleet.json
rm BENCH_fleet.ref.json

echo '== benchmark smoke (membound quick, under-budget gate)'
# The membound figure is the memory-budget gate: the keyed operator under a
# budget of 10% of its unbounded residency must stay under that budget at
# every key cardinality while sustaining >= 50% of the unbounded throughput
# at the largest one (both asserted by checkbench). The committed
# BENCH_membound.json is full-scale (10^6 keys), so the quick smoke artifact
# is checked on its own and discarded instead of benchdiffed against it; the
# committed reference is re-gated as-is.
go run ./cmd/benchmark -fig membound -json BENCH_membound.quick.json > /dev/null
go run ./scripts/checkbench.go BENCH_membound.quick.json
rm BENCH_membound.quick.json
go run ./scripts/checkbench.go BENCH_membound.json

echo 'OK'
