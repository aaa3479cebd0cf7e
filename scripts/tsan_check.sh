#!/usr/bin/env bash
# Builds the concurrency-sensitive targets under ThreadSanitizer and runs
# the detector/framework/batch suites plus the serving-daemon suites
# (bounded MPMC queue, RCU snapshot swap under concurrent readers, the
# worker pool's shed/serve paths, and the swap-under-load smoke), plus
# concurrent exhaustive searches over one index (each thread's scan
# scratch is its own). A clean
# run here is the data-race gate for the multi-threaded paths.
#
# Usage: scripts/tsan_check.sh [extra ctest args]
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target \
  common_test detect_test framework_test batch_test offline_parallel_test \
  training_parallel_test serve_test serve_smoke_test index_test
ctest --test-dir build-tsan --output-on-failure "$@" \
  -R '(Batch|Parallel|Detector|AhoCorasick|Runtime|TidTable|QuantizedStore|PackedRelevance|RequestQueue|SnapshotRegistry|ServeDaemon|ServeSmoke|ConcurrentSearchesMatchSequentialPass)'
