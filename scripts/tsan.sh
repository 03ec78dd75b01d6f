#!/bin/sh
# ThreadSanitizer pass over the concurrency-sensitive tests.
#
# Configures a separate build tree with -DHYPERSIO_SANITIZE=thread,
# builds the parallel-runner and event-queue test binaries, and runs
# them under TSan. Any data race in the runner's worker pool, the
# sharded multi-system pool, or the shared logging/debug sinks fails
# the run (TSan exits non-zero on a report).
#
# Usage: scripts/tsan.sh [build-dir]   (default: build-tsan)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DHYPERSIO_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)" \
    --target test_parallel_runner test_event_queue

# halt_on_error makes the first race fail fast and loudly.
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$BUILD_DIR"/tests/test_parallel_runner
TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    "$BUILD_DIR"/tests/test_event_queue

echo "TSan pass clean: test_parallel_runner + test_event_queue"
