#!/usr/bin/env bash
# Build the benchmark once and run the untraced set, then the traced one.
# Everything lands in benchmark/out/ (git-ignored): results.json (every
# metric of both sets with go version, nproc, commit, seed, reps and the
# per-rep raw walls) and one Chrome trace per workload.
#
#   benchmark/run.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
export GOMAXPROCS=2
mkdir -p benchmark/out
go build -o benchmark/out/nfperf ./benchmark
seed="${1:-1}"
benchmark/out/nfperf -seed "$seed"
benchmark/out/nfperf -seed "$seed" -trace 1
echo "wrote benchmark/out/results.json and benchmark/out/trace-*.json"
