#!/bin/sh
# Repository gate: hygiene + tier-1 tests + differential checks +
# bench regression check.
#
#   1. No build tree may be tracked in git (they are generated; see
#      .gitignore's build*/ rule).
#   2. The tier-1 build + ctest suite must pass. The default build
#      has HYPERSIO_CHECKED=ON, so every tier-1 System run already
#      executes under the fail-fast shadow oracle.
#   3. A longer adversarial fuzz campaign than the ctest smoke:
#      every pattern x system variant at 400 packets x 3 seeds under
#      the collecting shadow oracle.
#   4. Shadow checking must be observation-only: fig10_scalability
#      --quick output is byte-identical between the checked build
#      and a -DHYPERSIO_CHECKED=OFF build.
#   5. fig10_scalability at quick scale must emit a valid JSON
#      report (BENCH_fig10.json) that self-compares with zero drift
#      and, when a committed baseline exists, matches it exactly —
#      the simulator is deterministic, so any drift is a behavior
#      change that needs the baseline regenerated on purpose. The
#      multi-device sharing experiment (ext_multidevice: 1/2/4
#      devices on one chipset) must match BENCH_ext_multidevice.json.
#      Both comparisons run with zero tolerance. Sweep points stream
#      their traces, so the gate-4 unchecked fig10_scalability --full
#      --tenants 128 --jobs 4 must finish under 256 MiB peak RSS
#      (ru_maxrss of the process, read by os.wait4); holding every
#      trace took ~1.8 GiB.
#   6. Probe vectorization must be observation-free and profitable:
#      the translation-path microbench runs from the gate-4
#      unchecked build (SIMD group probes) and from a
#      -DHYPERSIO_SIMD_PROBES=OFF build (the portable scalar
#      backend). scripts/bench_speedup.py requires every
#      deterministic probe-count scalar to match exactly between
#      them, and the SIMD build's walk-storm rate must hold >= 1.15x
#      over the scalar build's in a back-to-back same-machine A/B
#      (locally measured ~1.25x). The SIMD report's counts must also
#      equal the committed BENCH_translation_path.json exactly, and
#      those shared with the pinned pre-vectorization record
#      (BENCH_translation_path_flat_baseline.json) must equal it;
#      the committed report's shape (every scalar present, rates
#      within a loose wall-clock tolerance) is checked too.
#   7. The hyper-scale streaming bench (tenant churn over bounded
#      SID slots, sharded across systems) must complete its smoke
#      configuration inside a fixed peak-RSS budget — the O(active)
#      state invariant — and its deterministic scalars (packets,
#      translations, retirements, merge checksum) must match the
#      committed BENCH_hyperscale.json exactly.
#   8. The soak harness (long-haul churn + adversarial episodes with
#      interval telemetry) must run its smoke configuration under
#      the checked build, stream valid hypersio-soak-1 snapshots,
#      pass scripts/soak_report.py's drift/leak gate, stay inside a
#      peak-RSS budget, and match the committed BENCH_soak.json's
#      deterministic scalars exactly.
#   9. The mechanism tournament (partitioning vs sub-entry sharing
#      vs MMU-aware prefetch, and their combinations) must complete
#      its smoke sweep under the checked build's fail-fast shadow
#      oracle and match the committed BENCH_tournament.json exactly
#      — every scalar in that report (hit rates, throughputs, area
#      proxies) is deterministic, so any drift means a mechanism's
#      behavior changed and the bake-off needs re-reading before
#      the baseline is regenerated on purpose.
#  10. Hit-path event fusion must be observation-free and
#      profitable: event_fusion_microbench --check-speedup runs every
#      storm with SystemConfig::eventFusion on and off in one
#      unchecked binary, asserts byte-identical RunResults and stat
#      trees and a closed event ledger (per-hop dispatches == fused
#      dispatches + fused hops), and fails unless the fused side
#      holds >= 1.4x the per-hop aggregate packet rate (locally
#      measured ~1.45-1.50x). The shadow oracle stays off — its
#      mirrors dominate the 2 ns hops being fused and would mask the
#      ratio. The report shape is compared against the committed
#      BENCH_event_fusion.json with the same loose wall-clock
#      tolerance as gate 6.
#  11. AddressSanitizer over the suites most exposed to memory
#      errors: the event kernel (it holds raw Ticker pointers while
#      a link's arrival process is parked), fusion, the system and
#      soak runs, the oracle, and the binary-trace and text-log
#      parsers with their hostile-input death tests. They build in
#      their own -DHYPERSIO_SANITIZE=address tree and run through
#      ctest, selected by the per-executable test labels.
#  12. UndefinedBehaviorSanitizer over the same suites, in a
#      -DHYPERSIO_SANITIZE=undefined tree. UBSan reports and carries
#      on by default, so the run sets halt_on_error=1: any finding
#      fails its test.
#
# scripts/coverage.sh (gcov line coverage) is a separate, slower
# workflow and is not part of this gate.
#
# Usage: scripts/check_repo.sh [build-dir]   (default: build)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
UNCHECKED_DIR="${BUILD_DIR}-unchecked"

echo "== 1/12 repo hygiene: no tracked build artifacts"
if git ls-files | grep -q '^build'; then
    echo "FAIL: build trees are tracked in git:" >&2
    git ls-files | grep '^build' | head >&2
    echo "(fix: git rm -r --cached <dir>; .gitignore covers" \
         "build*/)" >&2
    exit 1
fi
echo "   ok"

echo "== 2/12 tier-1 build + ctest (shadow oracle compiled in)"
# Every configure pins the build type: `cmake -B` on an existing
# tree silently keeps whatever CMAKE_BUILD_TYPE is cached there, and
# the rate gates (6, 10) are calibrated against RelWithDebInfo
# codegen — a stale -O3 cache shifts inlining in the header-only hot
# loops enough to flip a speedup gate without any source change.
BUILD_TYPE="-DCMAKE_BUILD_TYPE=RelWithDebInfo"
cmake -B "$BUILD_DIR" -S . "$BUILD_TYPE"
cmake --build "$BUILD_DIR" -j "$(nproc)"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")

echo "== 3/12 extended adversarial fuzz campaign"
# The ctest invocation above already ran the bounded smoke; this is
# the long campaign: more packets, multiple seeds. Reproduce any
# failure with the HYPERSIO_FUZZ_SEED printed in its repro line.
FUZZ_LOG="$BUILD_DIR/fuzz_campaign.log"
if ! HYPERSIO_FUZZ_PACKETS=400 HYPERSIO_FUZZ_ROUNDS=3 \
    "$BUILD_DIR"/tests/fuzz_translation \
    --gtest_filter='FuzzTranslation.*UnderShadowOracle' \
    > "$FUZZ_LOG" 2>&1; then
    cat "$FUZZ_LOG" >&2
    exit 1
fi
grep 'translation requests checked' "$FUZZ_LOG"

echo "== 4/12 shadow checking is observation-only (checked vs not)"
cmake -B "$UNCHECKED_DIR" -S . "$BUILD_TYPE" \
    -DHYPERSIO_CHECKED=OFF > /dev/null
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target fig10_scalability
"$BUILD_DIR"/bench/fig10_scalability --quick --tenants 8 --jobs 1 \
    > "$BUILD_DIR/fig10_checked.out"
"$UNCHECKED_DIR"/bench/fig10_scalability --quick --tenants 8 \
    --jobs 1 > "$BUILD_DIR/fig10_unchecked.out"
if ! cmp -s "$BUILD_DIR/fig10_checked.out" \
        "$BUILD_DIR/fig10_unchecked.out"; then
    echo "FAIL: HYPERSIO_CHECKED=ON changed simulator output:" >&2
    diff "$BUILD_DIR/fig10_checked.out" \
         "$BUILD_DIR/fig10_unchecked.out" >&2 || true
    exit 1
fi
echo "   ok: fig10 --quick output byte-identical"

echo "== 5/12 bench JSON regression gate (fig10, quick scale)"
# Deterministic settings: quick scale, 8-tenant sweep, fixed seed.
# --jobs only changes scheduling, never results, but pin it anyway
# so the config block is stable too.
FRESH="$BUILD_DIR/BENCH_fig10.json"
"$BUILD_DIR"/bench/fig10_scalability --quick --tenants 8 --jobs 1 \
    --json "$FRESH" > /dev/null
python3 scripts/bench_compare.py "$FRESH" "$FRESH" \
    --tol-throughput 0 --tol-rate 0
if [ -f BENCH_fig10.json ]; then
    echo "   comparing against committed BENCH_fig10.json baseline" \
         "(exact)"
    python3 scripts/bench_compare.py BENCH_fig10.json "$FRESH" \
        --tol-throughput 0 --tol-rate 0
else
    echo "   no committed baseline; installing $FRESH as" \
         "BENCH_fig10.json"
    cp "$FRESH" BENCH_fig10.json
fi
echo "   comparing ext_multidevice against committed" \
     "BENCH_ext_multidevice.json (exact)"
MULTI_FRESH="$BUILD_DIR/BENCH_ext_multidevice.json"
"$BUILD_DIR"/bench/ext_multidevice --json "$MULTI_FRESH" > /dev/null
python3 scripts/bench_compare.py BENCH_ext_multidevice.json \
    "$MULTI_FRESH" --tol-throughput 0 --tol-rate 0
echo "   fig10 --full --tenants 128 --jobs 4 (unchecked) within a" \
     "256 MiB peak-RSS budget"
python3 - "$UNCHECKED_DIR"/bench/fig10_scalability --full \
    --tenants 128 --jobs 4 <<'EOF'
import os, sys
budget_mib = 256
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
_, status, usage = os.wait4(pid, 0)
code = os.waitstatus_to_exitcode(status)
peak_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
print("   peak RSS %.0f MiB (budget %d MiB), exit %d"
      % (peak_mib, budget_mib, code))
if code != 0:
    sys.exit("FAIL: fig10_scalability exited with %d" % code)
if peak_mib > budget_mib:
    sys.exit("FAIL: fig10 --full sweep peak RSS %.0f MiB exceeds the "
             "%d MiB budget" % (peak_mib, budget_mib))
EOF

echo "== 6/12 translation path: SIMD vs scalar counts + speedup"
# Both builds run without the shadow oracle (its mirrors would
# dominate the probes being measured); the SIMD side reuses the
# gate-4 unchecked build. The SIMD/scalar choice is compile-time
# (util/simd.hh) and the masks the backends produce are defined to
# be identical, so every deterministic count in the report must
# match exactly between the two builds. The SIMD binary runs on both
# sides of the scalar one and the better of its two runs is scored:
# rate noise is one-sided (background load only ever slows a run).
# The gated rate is the walk storm, a tenant-lifecycle replay whose
# every probe lands on the flat structures; the timed full-system
# phase also runs (its deterministic scalars anchor the differential
# check) but its rate is dominated by the event kernel, which both
# backends share. The 1.15x floor sits under a locally measured
# ~1.25x.
SCALAR_DIR="${BUILD_DIR}-scalar-probes"
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target translation_path_microbench
cmake -B "$SCALAR_DIR" -S . "$BUILD_TYPE" -DHYPERSIO_CHECKED=OFF \
    -DHYPERSIO_SIMD_PROBES=OFF > /dev/null
cmake --build "$SCALAR_DIR" -j "$(nproc)" \
    --target translation_path_microbench
SIMD_JSON="$BUILD_DIR/BENCH_translation_path.json"
SIMD2_JSON="$BUILD_DIR/BENCH_translation_path_simd2.json"
SCALAR_JSON="$BUILD_DIR/BENCH_translation_path_scalar.json"
"$UNCHECKED_DIR"/bench/translation_path_microbench \
    --json "$SIMD_JSON" > /dev/null
"$SCALAR_DIR"/bench/translation_path_microbench \
    --json "$SCALAR_JSON" > /dev/null
"$UNCHECKED_DIR"/bench/translation_path_microbench \
    --json "$SIMD2_JSON" > /dev/null
BEST_SIMD=$(python3 - "$SIMD_JSON" "$SIMD2_JSON" <<'EOF'
import json, sys
print(max(sys.argv[1:3], key=lambda p: json.load(open(p))
          ["scalars"]["total_walkstorm_packets_per_sec"]))
EOF
)
python3 scripts/bench_speedup.py "$BEST_SIMD" "$SCALAR_JSON" \
    --scalar total_walkstorm_packets_per_sec --min-ratio 1.15
# Committed records hold only what travels across machines: the
# counts are compared exactly, the rates only for the report's shape
# (every scalar present, no order-of-magnitude collapse). The pinned
# pre-vectorization record (BENCH_translation_path_flat_baseline.json
# — regenerate it only as part of a deliberate re-baselining of that
# record) predates some scalars, so only the counts both carry are
# compared.
echo "   comparing against committed BENCH_translation_path.json" \
     "(counts exact, rates loose: they are wall-clock)"
python3 scripts/bench_speedup.py "$SIMD_JSON" \
    BENCH_translation_path.json --counts-only
python3 scripts/bench_compare.py BENCH_translation_path.json \
    "$SIMD_JSON" --tol-throughput 3.0 --tol-rate 1.0
echo "   comparing counts against the pinned" \
     "BENCH_translation_path_flat_baseline.json"
python3 scripts/bench_speedup.py "$SIMD_JSON" \
    BENCH_translation_path_flat_baseline.json \
    --counts-only --ignore-missing

echo "== 7/12 hyper-scale streaming bench: bounded RSS + regression"
# Measured without the shadow oracle (its mirrors would scale with
# the mirrored state being bounded, muddying the RSS reading); the
# unchecked build from gate 4 serves. The in-process assertions
# already enforce attaches == retirements == population and empty
# page-table directories per shard; --rss-budget-mb makes the
# O(active) memory claim a hard failure. The JSON carries only
# deterministic scalars, so the baseline comparison is exact.
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target hyperscale_bench
HYPERSCALE_FRESH="$BUILD_DIR/BENCH_hyperscale.json"
"$UNCHECKED_DIR"/bench/hyperscale_bench --smoke \
    --rss-budget-mb 512 --json "$HYPERSCALE_FRESH" > /dev/null
python3 scripts/bench_compare.py "$HYPERSCALE_FRESH" \
    "$HYPERSCALE_FRESH"
if [ -f BENCH_hyperscale.json ]; then
    echo "   comparing against committed BENCH_hyperscale.json" \
         "baseline (exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_hyperscale.json \
        "$HYPERSCALE_FRESH"
else
    echo "   no committed baseline; installing $HYPERSCALE_FRESH" \
         "as BENCH_hyperscale.json"
    cp "$HYPERSCALE_FRESH" BENCH_hyperscale.json
fi

echo "== 8/12 soak harness: telemetry stream + drift/leak gate"
# Runs from the *checked* build on purpose: the soak regime's value
# is churn + adversarial episodes under the fail-fast shadow oracle,
# so the RSS budget is sized for the mirrors' overhead. --jobs 1
# pins the snapshot file's line order (any jobs count produces the
# same per-shard lines, but interleaving across shards is scheduler
# timing); the deterministic scalars in the JSON report are
# jobs-independent either way.
SOAK_STREAM="$BUILD_DIR/soak_check.jsonl"
SOAK_FRESH="$BUILD_DIR/BENCH_soak.json"
"$BUILD_DIR"/bench/soak_bench --smoke --jobs 1 \
    --snapshots "$SOAK_STREAM" --rss-budget-mb 1024 \
    --json "$SOAK_FRESH" > /dev/null
python3 scripts/soak_report.py "$SOAK_STREAM" --verbose
python3 scripts/bench_compare.py "$SOAK_FRESH" "$SOAK_FRESH"
if [ -f BENCH_soak.json ]; then
    echo "   comparing against committed BENCH_soak.json baseline" \
         "(exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_soak.json "$SOAK_FRESH"
else
    echo "   no committed baseline; installing $SOAK_FRESH as" \
         "BENCH_soak.json"
    cp "$SOAK_FRESH" BENCH_soak.json
fi

echo "== 9/12 mechanism tournament: bake-off regression gate"
# Runs from the *checked* build: every competitor (sub-entry
# sharing, MMU-aware prefetch, the paper's partitioning, and their
# combinations) then executes under the fail-fast shadow oracle, so
# a passing sweep doubles as an oracle-agreement check for each
# mechanism. Every value in the report — per-config hit rates,
# throughputs, and the geometry-derived area proxies — is
# deterministic and jobs-independent, so the baseline comparison is
# exact. To inspect one competitor's drift in isolation, diff with
#   python3 scripts/bench_compare.py BENCH_tournament.json <fresh> \
#       --only-label <label>
TOURN_FRESH="$BUILD_DIR/BENCH_tournament.json"
"$BUILD_DIR"/bench/mechanism_tournament --smoke --jobs 1 \
    --json "$TOURN_FRESH" > /dev/null
python3 scripts/bench_compare.py "$TOURN_FRESH" "$TOURN_FRESH"
if [ -f BENCH_tournament.json ]; then
    echo "   comparing against committed BENCH_tournament.json" \
         "baseline (exact: all scalars deterministic)"
    python3 scripts/bench_compare.py BENCH_tournament.json \
        "$TOURN_FRESH"
else
    echo "   no committed baseline; installing $TOURN_FRESH as" \
         "BENCH_tournament.json"
    cp "$TOURN_FRESH" BENCH_tournament.json
fi

echo "== 10/12 event fusion: identical results + speedup"
# The in-binary runtime-knob A/B on the gate-4 unchecked build. A
# failed speedup check gets exactly one retry: rate noise is
# one-sided (background load only ever slows a run), while a
# behaviour mismatch panics deterministically on both attempts.
cmake --build "$UNCHECKED_DIR" -j "$(nproc)" \
    --target event_fusion_microbench
FUSION_JSON="$BUILD_DIR/BENCH_event_fusion.json"
if ! "$UNCHECKED_DIR"/bench/event_fusion_microbench \
        --check-speedup 1.4 --json "$FUSION_JSON"; then
    echo "   retrying once"
    "$UNCHECKED_DIR"/bench/event_fusion_microbench \
        --check-speedup 1.4 --json "$FUSION_JSON"
fi
if [ -f BENCH_event_fusion.json ]; then
    echo "   comparing against committed BENCH_event_fusion.json" \
         "baseline (loose tolerance: rates are wall-clock)"
    python3 scripts/bench_compare.py BENCH_event_fusion.json \
        "$FUSION_JSON" --tol-throughput 3.0 --tol-rate 1.0
else
    echo "   no committed baseline; installing $FUSION_JSON as" \
         "BENCH_event_fusion.json"
    cp "$FUSION_JSON" BENCH_event_fusion.json
fi

echo "== 11/12 AddressSanitizer: kernel, system and parser suites"
ASAN_DIR="${BUILD_DIR}-asan"
SAN_SUITES="test_event_queue test_event_fusion test_system test_soak \
test_oracle test_trace test_log_text"
cmake -B "$ASAN_DIR" -S . "$BUILD_TYPE" \
    -DHYPERSIO_SANITIZE=address > /dev/null
# $SAN_SUITES is unquoted on purpose: one target per word.
cmake --build "$ASAN_DIR" -j "$(nproc)" --target $SAN_SUITES
SAN_LABELS="^($(echo $SAN_SUITES | tr ' ' '|'))\$"
(cd "$ASAN_DIR" && ctest --output-on-failure -j "$(nproc)" \
    -L "$SAN_LABELS")

echo "== 12/12 UndefinedBehaviorSanitizer: the same suites"
# UBSan prints a "runtime error" and carries on unless told to halt;
# halt_on_error=1 turns every finding into a failed test.
UBSAN_DIR="${BUILD_DIR}-ubsan"
cmake -B "$UBSAN_DIR" -S . "$BUILD_TYPE" \
    -DHYPERSIO_SANITIZE=undefined > /dev/null
cmake --build "$UBSAN_DIR" -j "$(nproc)" --target $SAN_SUITES
(cd "$UBSAN_DIR" && \
    UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --output-on-failure -j "$(nproc)" -L "$SAN_LABELS")

echo "check_repo: all gates passed"
