#!/usr/bin/env bash
# Continuous-integration driver for the PLUS simulator.
#
#   1. tier-1:     regular build + full test suite
#   2. sanitize:   ASan+UBSan build (PLUS_SANITIZE=ON) + full test suite,
#                  then the fiber, processor, machine and recovery tests
#                  again with detect_stack_use_after_return=1, so the
#                  fiber switch's ASan fake-stack annotations are exercised
#   3. tidy:       clang-tidy over src/ — FATAL when the tool is present
#                  (per-file exit codes aggregated; one failing TU fails
#                  the stage), skipped with a warning when it is absent
#   4. lint:       scripts/pluslint.py determinism-contract analysis over
#                  src/ (rules R1-R5, see docs/STATIC_ANALYSIS.md); fails
#                  on any unbaselined finding, then self-tests the linter
#                  against the known-bad corpus in tests/lint_corpus
#   5. format:     clang-format --dry-run --Werror over src/ and include/
#                  (skipped with a warning when the tool is absent)
#   6. trace:      telemetry smoke test — run a 4-node workload with
#                  --trace-out/--stats-out, validate both as JSON, and
#                  check that tracing leaves bench output bit-identical
#   7. determinism: both engine backends must produce byte-for-byte
#                  identical bench output — the matrix is {wheel, heap}
#                  x {update, invalidate}, each heap run diffed against
#                  the wheel run of the same protocol
#   8. protocols:  per-protocol suites — tests/test_protocol, then
#                  bench/protocol_shootout (both protocols, checker on,
#                  each must win at least one sharing pattern) with the
#                  JSON output schema validated
#   9. perf-smoke: engine_throughput --quick, fail if the wheel's
#                  throughput regressed >25% vs the committed
#                  BENCH_engine.json or the speedup target is missed
#  10. chaos:      chaos_sweep under fixed fault seeds (drop 1%, dup 1%,
#                  corrupt 0.5%, mixed + transient link kill) — every
#                  run must reproduce the fault-free memory image, and
#                  with the injector disabled bench output must stay
#                  byte-identical to the committed golden/ files under
#                  both engine backends
#  11. recovery:   node-crash chaos matrix — the recovery unit tests,
#                  then chaos_sweep --kill-node on wheel and heap;
#                  every run must leave the surviving replicas mutually
#                  consistent and the post-recovery image hash
#                  byte-identical across backends
#  12. tsan:       ThreadSanitizer build (PLUS_TSAN=ON) — the fiber,
#                  engine and profiler tests plus wheel bench runs must
#                  finish with zero TSan reports (skipped with a
#                  warning when the toolchain lacks -fsanitize=thread)
#  13. prof:       host-time profiler gate — the profiler-on overhead
#                  on the wheel micro benchmark must stay under 3%
#                  (best of 5)
#
# Usage: scripts/ci.sh [tier1|sanitize|tidy|lint|format|trace|determinism|
#                       protocols|perf-smoke|chaos|recovery|tsan|prof|all]
#                      (default: all)

set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
STAGE="${1:-all}"

# Sanitizer dispositions are exported process-wide so every child —
# ctest *and* the bench binaries the later stages run out of whatever
# build tree is current — aborts on the first report instead of printing
# and carrying on.
export ASAN_OPTIONS="abort_on_error=1:detect_leaks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1:second_deadlock_stack=1"

run_tier1() {
    echo "=== tier-1: build + ctest ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS"
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

run_sanitize() {
    echo "=== sanitize: ASan+UBSan build + ctest ==="
    cmake -B build-asan -S . -DPLUS_SANITIZE=ON >/dev/null
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
    echo "=== sanitize: fiber-switching tests with fake stacks ==="
    local t
    for t in test_fiber test_processor test_machine test_recovery; do
        ASAN_OPTIONS="$ASAN_OPTIONS:detect_stack_use_after_return=1" \
            "build-asan/tests/$t"
    done
}

run_tidy() {
    echo "=== tidy: clang-tidy over src/ (fatal) ==="
    if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "WARNING: clang-tidy not installed; stage skipped"
        return 0
    fi
    cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN
    # One clang-tidy invocation per TU so every exit code is observed;
    # failures are aggregated in a file (xargs batching with -n 8 hid
    # per-file status on xargs implementations that only report 123).
    find src -name '*.cpp' -print0 |
        xargs -0 -P "$JOBS" -I{} sh -c \
            'clang-tidy -p build --quiet "$1" || echo "$1" >> "$2"' \
            _ {} "$out/failed"
    if [ -s "$out/failed" ]; then
        echo "clang-tidy FAILED for:"
        sort "$out/failed" | sed 's/^/  - /'
        return 1
    fi
    echo "clang-tidy clean over $(find src -name '*.cpp' | wc -l) TUs"
}

run_lint() {
    echo "=== lint: pluslint determinism contract over src/ ==="
    # pluslint's token frontend reads the sources directly: no build or
    # compile_commands.json is needed.
    python3 scripts/pluslint.py
    echo "--- linter self-test against tests/lint_corpus"
    python3 tests/lint_corpus/driver.py
}

run_format() {
    echo "=== format: clang-format check over src/ + include/ ==="
    if ! command -v clang-format >/dev/null 2>&1; then
        echo "WARNING: clang-format not installed; stage skipped"
        return 0
    fi
    find src include -name '*.cpp' -o -name '*.hpp' | sort |
        xargs clang-format --dry-run --Werror
    echo "clang-format clean"
}

run_trace() {
    echo "=== trace: telemetry export smoke test ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target sim_harness table_3_1
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    build/bench/sim_harness --nodes=4 \
        --trace-out="$out/trace.json" --stats-out="$out/stats.json"
    python3 - "$out/trace.json" "$out/stats.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "empty trace"
assert any(e.get("ph") == "s" for e in events), "no flow events"
assert any(e.get("pid", 0) >= 1000 for e in events), "no link tracks"
stats = json.load(open(sys.argv[2]))
assert stats["metrics"]["counters"], "no counters"
assert stats["traffic"]["perLink"], "no link traffic"
print(f"trace OK: {len(events)} events")
EOF

    # Telemetry must never perturb the simulation.
    build/bench/table_3_1 > "$out/plain.txt"
    build/bench/table_3_1 --trace-out="$out/t.json" \
        --stats-out="$out/s.json" > "$out/traced.txt"
    diff "$out/plain.txt" "$out/traced.txt"
    echo "bench output bit-identical with telemetry enabled"
}

run_determinism() {
    echo "=== determinism: backend x protocol matrix, byte-for-byte ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target sim_harness table_3_1
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The heap oracle must reproduce the wheel output exactly, under
    # both coherence protocols (byte-identity is per protocol: update
    # and invalidate legitimately differ from each other, see
    # docs/PROTOCOLS.md).
    local proto
    for proto in update invalidate; do
        echo "--- $proto: heap vs wheel"
        build/bench/table_3_1 --engine=wheel --protocol="$proto" \
            > "$out/wheel_table.txt"
        build/bench/table_3_1 --engine=heap --protocol="$proto" \
            > "$out/table.txt"
        diff "$out/wheel_table.txt" "$out/table.txt"
        build/bench/sim_harness --nodes=16 --engine=wheel \
            --protocol="$proto" > "$out/wheel_harness.txt"
        build/bench/sim_harness --nodes=16 --engine=heap \
            --protocol="$proto" > "$out/harness.txt"
        diff "$out/wheel_harness.txt" "$out/harness.txt"
    done
    echo "all engine backends are cycle-for-cycle identical per protocol"
}

run_protocols() {
    echo "=== protocols: per-protocol suites + the shootout gate ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target test_protocol protocol_shootout
    build/tests/test_protocol
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN
    # The shootout runs every sharing pattern under both protocols with
    # the per-protocol invariant checker on, and exits non-zero unless
    # each protocol wins at least one pattern.
    build/bench/protocol_shootout --out="$out/protocols.json"
    python3 - "$out/protocols.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    d = json.load(f)
winners = {p["winner"] for p in d["patterns"].values()}
assert winners == {"write-update", "write-invalidate"}, winners
print(f"shootout JSON OK: {len(d['patterns'])} patterns, both protocols win")
EOF
}

run_perf_smoke() {
    echo "=== perf-smoke: engine throughput vs committed baseline ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target engine_throughput
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The wheel micro is load-sensitive on shared CI hosts (the
    # committed baseline was recorded on an idle machine), so the
    # gate takes the best of up to three attempts rather than
    # failing on one slow sample.
    local attempt wheel_ok=0
    for attempt in 1 2 3; do
        build/bench/engine_throughput --quick --out="$out/bench.json"
        if python3 - "$out/bench.json" BENCH_engine.json <<'EOF'
import json, sys
now = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
wheel, base = now["wheelEventsPerSec"], committed["wheelEventsPerSec"]
print(f"wheel: {wheel:.3g} ev/s now vs {base:.3g} ev/s committed")
assert wheel >= 0.75 * base, \
    f"wheel throughput regressed >25%: {wheel:.3g} < 0.75 * {base:.3g}"
assert now["speedup"] >= 2.0, \
    f"wheel no longer >=2x the priority-queue baseline: {now['speedup']:.2f}x"
print(f"perf OK: {now['speedup']:.2f}x vs baseline pq")
EOF
        then
            wheel_ok=1
            break
        fi
        echo "perf-smoke: wheel gate missed on attempt $attempt, retrying"
    done
    if [ "$wheel_ok" -ne 1 ]; then
        echo "perf-smoke: wheel gate failed on all attempts" >&2
        return 1
    fi
}

run_chaos() {
    echo "=== chaos: fault sweep + fault-free golden check ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target chaos_sweep sim_harness \
        table_3_1
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # 4 scenarios x 2 seeds = 8 faulty runs, each checked against the
    # fault-free oracle image, plus the watchdog partition demo.
    build/bench/chaos_sweep --nodes=8 --seeds=2

    # The fault machinery must be invisible when disabled: bench output
    # stays byte-identical to the committed goldens on every backend.
    local eng
    for eng in wheel heap; do
        build/bench/table_3_1 --engine="$eng" > "$out/table.txt"
        diff golden/table_3_1.txt "$out/table.txt"
        build/bench/sim_harness --nodes=16 --engine="$eng" \
            > "$out/harness.txt"
        diff golden/sim_harness_16.txt "$out/harness.txt"
    done
    echo "fault-free path byte-identical to golden/ on every backend"
}

run_recovery() {
    echo "=== recovery: node-crash chaos matrix ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target chaos_sweep test_recovery
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # The recovery unit tests carry the fine-grained assertions:
    # dead-node purge, surviving-replica consistency, degraded serving
    # of lost pages, and the wheel/heap image identity.
    build/tests/test_recovery

    # Crash the end node of a 1x8 line mid-run on each backend. Every
    # run self-checks (survivor image vs oracle, replica consistency),
    # and the combined post-recovery image hash — memory words, elapsed
    # cycles, and epoch outcomes — must be byte-identical across
    # backends.
    local eng
    for eng in wheel heap; do
        echo "--- fail-stop sweep: $eng"
        build/bench/chaos_sweep --nodes=8 --seeds=2 --kill-node=7@2000 \
            --engine="$eng" | tee "$out/sweep_$eng.txt"
        grep "fail-stop image hash" "$out/sweep_$eng.txt" \
            > "$out/hash_$eng.txt"
    done
    diff "$out/hash_wheel.txt" "$out/hash_heap.txt"
    echo "post-recovery image byte-identical across backends"
}

run_tsan() {
    echo "=== tsan: ThreadSanitizer over fibers, engine and profiler ==="
    # Probe the toolchain: containers without libtsan should skip, not
    # fail.
    local cxx="${CXX:-c++}"
    if ! echo 'int main(){return 0;}' | "$cxx" -fsanitize=thread -x c++ \
            - -o /dev/null >/dev/null 2>&1; then
        echo "WARNING: $cxx lacks -fsanitize=thread; stage skipped"
        return 0
    fi
    cmake -B build-tsan -S . -DPLUS_TSAN=ON >/dev/null
    cmake --build build-tsan -j "$JOBS" --target test_fiber test_engine \
        test_prof sim_harness table_3_1

    echo "--- fiber, engine and profiler tests under TSan"
    build-tsan/tests/test_fiber
    build-tsan/tests/test_engine
    build-tsan/tests/test_prof

    echo "--- wheel bench runs under TSan"
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN
    build-tsan/bench/table_3_1 --engine=wheel > "$out/wheel_table.txt"
    diff golden/table_3_1.txt "$out/wheel_table.txt"
    build-tsan/bench/sim_harness --nodes=16 --engine=wheel \
        > "$out/wheel_harness.txt"
    diff golden/sim_harness_16.txt "$out/wheel_harness.txt"
    echo "tsan: zero reports, output matches golden/"
}

run_prof() {
    echo "=== prof: host-time profiler overhead gate ==="
    cmake -B build -S . >/dev/null
    cmake --build build -j "$JOBS" --target engine_throughput
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' RETURN

    # Overhead gate: the wheel micro benchmark with profiling
    # enabled must stay within 3% of the disabled run. The bench
    # interleaves the two configurations in-process (best of 5 each) so
    # host noise — frequency scaling, a shared CI box — biases both
    # sides the same way instead of masquerading as overhead.
    echo "--- overhead gate (profiler off vs on, in-process best of 5)"
    build/bench/engine_throughput --prof-overhead \
        --out="$out/overhead.json"
    python3 - "$out/overhead.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
print(f"wheel micro: {d['offEventsPerSec']:.3g} ev/s off, "
      f"{d['onEventsPerSec']:.3g} ev/s on "
      f"({d['overheadPct']:.2f}% overhead)")
assert d["overheadPct"] <= 3.0, \
    f"profiler-on overhead exceeds 3%: {d['overheadPct']:.2f}%"
print("prof overhead gate OK")
EOF
}

case "$STAGE" in
    tier1)       run_tier1 ;;
    sanitize)    run_sanitize ;;
    tidy)        run_tidy ;;
    lint)        run_lint ;;
    format)      run_format ;;
    trace)       run_trace ;;
    determinism) run_determinism ;;
    protocols)   run_protocols ;;
    perf-smoke)  run_perf_smoke ;;
    chaos)       run_chaos ;;
    recovery)    run_recovery ;;
    tsan)        run_tsan ;;
    prof)        run_prof ;;
    all)         run_tier1; run_sanitize; run_tidy; run_lint; run_format
                 run_trace; run_determinism; run_protocols; run_perf_smoke
                 run_chaos; run_recovery; run_tsan; run_prof ;;
    *)
        echo "unknown stage '$STAGE'" \
             "(want tier1|sanitize|tidy|lint|format|trace|determinism|" \
             "protocols|perf-smoke|chaos|recovery|tsan|prof|all)" >&2
        exit 2
        ;;
esac

echo "ci: $STAGE OK"
