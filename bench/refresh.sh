#!/usr/bin/env bash
# Refresh the committed benchmark baseline the CI regression gate
# compares against. Run after a deliberate perf change (or when the CI
# hardware class changes), commit the result, and mention the before and
# after medians in the PR.
#
# pipefail matters: the bench output is piped through grep/tee, and
# without it a panicking benchmark would exit 0 through tee and commit
# a silently truncated baseline.
set -eo pipefail
cd "$(dirname "$0")/.."
go test -bench 'BenchmarkDatapathMinFrames10G$|BenchmarkDatapathBurst10G$|BenchmarkSwitchIMIXWorkload$|BenchmarkSimEventThroughput$' \
  -benchtime=1000x -count=10 -run '^$' . | tee bench/baseline.txt
# The fleet tail-heavy batch and multicast flood are macro/steady-state
# benchmarks: far fewer, longer iterations keep total time sane while
# the medians stay stable.
go test -bench 'BenchmarkFleetTailHeavyBatch$' \
  -benchtime=2x -count=6 -run '^$' . | grep Benchmark | tee -a bench/baseline.txt
go test -bench 'BenchmarkMulticastFlood$' \
  -benchtime=2000x -count=10 -benchmem -run '^$' . | grep Benchmark | tee -a bench/baseline.txt
# The million-flow CAM lookup is a sub-100ns micro: lots of fixed
# iterations per run keep the median meaningful.
go test -bench 'BenchmarkSwitchMillionFlows$' \
  -benchtime=200000x -count=10 -benchmem -run '^$' . | grep Benchmark | tee -a bench/baseline.txt
# The hybrid-fidelity pair runs one background-heavy sweep cell per
# iteration (full ~100ms, hybrid ~5ms) and reports frames/sec; the
# benchgate -speedup ratio below is the tentpole's >= 5x headline gate.
go test -bench 'BenchmarkBackgroundHeavy(Full|Hybrid)$' \
  -benchtime=2x -count=6 -run '^$' . | grep Benchmark | tee -a bench/baseline.txt
# Frames/sec headline from the refreshed medians (self-compare: the
# interesting before/after is old-vs-new baseline in the commit diff).
go run ./cmd/benchgate -old bench/baseline.txt -new bench/baseline.txt \
  -gate BenchmarkSwitchIMIXWorkload \
  -headline BenchmarkSwitchIMIXWorkload,BenchmarkDatapathMinFrames10G,BenchmarkDatapathBurst10G,BenchmarkBackgroundHeavyHybrid \
  -speedup BenchmarkBackgroundHeavyHybrid/BenchmarkBackgroundHeavyFull:5
