#!/usr/bin/env sh
# Benchmark baseline runner: runs the parallel-pipeline benchmark suite with
# -benchmem and repeated counts, then converts the output into the tracked
# JSON baseline (BENCH_pipeline.json at the repo root).
#
# Usage: scripts/bench.sh [count] [benchtime]
#   count     -count passed to go test (default 3)
#   benchtime -benchtime passed to go test (default 1x for the figure bench,
#             see BENCH_PATTERN below; raise for stabler numbers)
#
# The pattern covers the per-pair stream cost (SimrandReseed = simrand's
# O(1) reseed plus 10 normal draws against the stdlib source it
# reproduces, in ./internal/simrand; ProbeMeasure = one one-shot
# Prober.Measure; GreedyLandmarkSelection = the SL landmark-selection
# probe matrix), the exhaustive-vs-pruned large-N K-means pair (KMeansFlatExhaustive/Pruned, whose distevals/op and
# wall-clock ratio pin the bounds-pruning win), the flat feature-build path
# (FeatureBuild, with its O(workers)-allocation guards on the feature build
# and on Prober.MeasureMatrix), the end-to-end Fig3 sweep, the simulator
# throughput path whose allocs/op the allocation-lean work targets, the
# simulate workload's request-log synthesis (GenerateRequests = 500
# caches' runs merged into one stream), the observability record paths (ObsHistogram = enabled
# per-sample cost, ObsDisabled = nil-handle overhead; both must stay at
# 0 allocs/op), and the full-module lint-engine run (EcglintModule = the
# per-invocation cost of the CI lint gate: load, type-check, call graph,
# summaries, analyzers). All counts run in one process, so EcglintModule's
# row averages one first op, which pays the standard library's
# `go list -export` lookups, with warm ops that reuse them.
set -eu

cd "$(dirname "$0")/.."

COUNT="${1:-3}"
BENCHTIME="${2:-1x}"
BENCH_PATTERN='BenchmarkSimrandReseed|BenchmarkProbeMeasure|BenchmarkGreedyLandmarkSelection|BenchmarkKMeansFlat|BenchmarkFeatureBuild|BenchmarkFig3GroupSizeSweep|BenchmarkSimulatorThroughput|BenchmarkGenerateRequests|BenchmarkObs|BenchmarkEcglint'
OUT="BENCH_pipeline.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "==> go test -bench (count=$COUNT benchtime=$BENCHTIME)"
go test -run '^$' -bench "$BENCH_PATTERN" -benchmem -count "$COUNT" -benchtime "$BENCHTIME" . ./internal/simrand | tee "$RAW"

echo "==> $OUT"
go run ./cmd/benchjson < "$RAW" > "$OUT"

echo "bench: wrote $OUT"
