#!/usr/bin/env bash
# Pre-merge gate for softrec. Run from anywhere; operates on the repo
# that contains this script. Stages:
#
#   1. clang-format check     (skipped if clang-format is absent)
#   2. softrec_analyze        (multi-pass static analyzer: fixture
#      self-test, then the tree gate — zero unbaselined findings)
#   3. clang-tidy             (skipped if clang-tidy is absent), then
#      cppcheck               (skipped if cppcheck is absent)
#   4. release build + tests  (-DSOFTREC_WERROR=ON), run six times:
#      serial, SOFTREC_THREADS=4 to exercise the thread pool,
#      SOFTREC_SIMD=off to pin the scalar conversion fallback,
#      SOFTREC_ATTENTION=streaming to serve/decode through the
#      single-pass streaming attention backend,
#      SOFTREC_SERVE_KV_DTYPE=int8 to serve on the quantized KV
#      cache, then SOFTREC_SERVE_PREFILL_CHUNK=3 to serve through
#      the chunked-prefill path
#   5. checked build + tests  (-DSOFTREC_CHECKED_BUILD=ON, WERROR)
#   6. asan-ubsan build + tests (sanitizers + checked mode, WERROR),
#      plus a serve smoke: the serve_throughput bench runs end to end
#      under the sanitizers (reports go to the build dir, not the root)
#   7. tsan build + parallel-runtime tests under SOFTREC_THREADS=4
#      (profiling enabled: test_profiler exercises the counter merge;
#      test_serve exercises queue/pool shutdown ordering;
#      test_admission races concurrent reserves; test_serve_engine
#      drives the async engine's producer/consumer threads;
#      test_streaming_attention runs the tiled kernel's strips;
#      test_gemm and test_simd_kernels run the packed GEMM's strips;
#      test_decode and test_prefill_chunk run the parallel
#      per-(row, head) attention loop of decode and chunked prefill;
#      test_softmax_kernels and test_bsr_kernels run the row- and
#      block-parallel softmax kernels)
#   8. bench smoke: micro_kernels, micro_simd, micro_streaming,
#      serve_throughput, and the serve_load admission-regime trace at
#      a CI-sized sequence length; SOFTREC_BENCH_DIR routes every
#      report to build/release/bench (the committed BENCH_*.json files
#      at the repo root are canonical runs, never overwritten here),
#      each expected report must exist there, and all must pass
#      tools/check_bench_json.py (the
#      serve_throughput smoke includes the int8-vs-f16 KV capacity A/B
#      arm and asserts its >= 1.8x ratio; the serve_load smoke includes
#      the head-of-line arm — 4k-token prompts arriving mid-decode —
#      and asserts chunked prefill's >= 3x active-stream p95 win); plus
#      negative checks that malformed SOFTREC_BENCH_SEQLEN,
#      SOFTREC_ATTENTION, SOFTREC_SERVE_KV_DTYPE, and
#      SOFTREC_SERVE_PREFILL_CHUNK values hard-error instead of
#      falling back, and that micro_kernels --benchmark_list_tests
#      writes no file into its working directory
#   9. servebench: its unit self-test, then a 5 s long_prompt run that
#      must report "correct": true (servebench builds its own copy of
#      src/ against the kernel headers, under .bench_build/)
#
# Every stage must pass; the script stops at the first failure.
# A toolchain without clang still runs stages 2 and 4-6, which are the
# load-bearing ones: the static analyzer, the warning-clean release
# build, the invariant-checked build, and the sanitized suite.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${ROOT}"
JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n=== ci: %s ===\n' "$*"; }

step "clang-format (check only)"
if command -v clang-format >/dev/null 2>&1; then
    git ls-files '*.cpp' '*.hpp' | xargs clang-format --dry-run -Werror
    echo "clang-format: OK"
else
    echo "clang-format not found; SKIP"
fi

step "softrec_analyze self-test (fixtures, tokenizer, SARIF, baseline)"
python3 tools/softrec_analyze --self-test

step "softrec_analyze over src/ (zero unbaselined findings)"
python3 tools/softrec_analyze --root "${ROOT}"

step "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
    cmake --preset tidy >/dev/null
    python3 scripts/run_clang_tidy.py --build-dir build/tidy
else
    echo "clang-tidy not found; SKIP"
fi

step "cppcheck"
if command -v cppcheck >/dev/null 2>&1; then
    cppcheck --enable=warning,performance,portability --std=c++17 \
        --language=c++ -q --inline-suppr --error-exitcode=1 \
        --suppressions-list=tools/cppcheck_suppressions.txt \
        -I src src/
    echo "cppcheck: OK"
else
    echo "cppcheck not found; SKIP"
fi

step "release build (WERROR) + tests"
cmake --preset release -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/release -j "${JOBS}"
ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "release tests with SOFTREC_THREADS=4 (thread-pool path)"
SOFTREC_THREADS=4 \
    ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "release tests with SOFTREC_SIMD=off (scalar conversion fallback)"
SOFTREC_SIMD=off \
    ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "release tests with SOFTREC_ATTENTION=streaming (online-softmax backend)"
SOFTREC_ATTENTION=streaming \
    ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "release tests with SOFTREC_SERVE_KV_DTYPE=int8 (quantized KV cache)"
SOFTREC_SERVE_KV_DTYPE=int8 \
    ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "release tests with SOFTREC_SERVE_PREFILL_CHUNK=3 (chunked prefill)"
SOFTREC_SERVE_PREFILL_CHUNK=3 \
    ctest --test-dir build/release --output-on-failure -j "${JOBS}"

step "checked build (WERROR) + tests"
cmake --preset checked -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/checked -j "${JOBS}"
ctest --test-dir build/checked --output-on-failure -j "${JOBS}"

step "asan-ubsan build (WERROR) + tests"
cmake --preset asan-ubsan -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/asan-ubsan -j "${JOBS}"
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --test-dir build/asan-ubsan --output-on-failure -j "${JOBS}"

step "serve smoke under asan-ubsan"
cmake --build build/asan-ubsan -j "${JOBS}" --target serve_throughput
ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1" \
UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
SOFTREC_BENCH_DIR="${ROOT}/build/asan-ubsan/bench" \
SOFTREC_BENCH_SEQLEN=64 SOFTREC_THREADS=2 \
    ./build/asan-ubsan/bench/serve_throughput >/dev/null

step "tsan build + parallel runtime tests (SOFTREC_THREADS=4)"
cmake --preset tsan -DSOFTREC_WERROR=ON >/dev/null
cmake --build build/tsan -j "${JOBS}" --target \
    test_exec_context test_parallel_determinism \
    test_attention_exec test_functional_layer test_profiler \
    test_serve test_admission test_serve_engine \
    test_streaming_attention test_gemm test_simd_kernels \
    test_decode test_prefill_chunk test_softmax_kernels test_bsr_kernels
SOFTREC_THREADS=4 TSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build/tsan --output-on-failure -j "${JOBS}" \
    -R 'test_exec_context|test_parallel_determinism|test_attention_exec|test_functional_layer|test_profiler|test_serve|test_admission|test_serve_engine|test_streaming_attention|test_gemm|test_simd_kernels|test_decode|test_prefill_chunk|test_softmax_kernels|test_bsr_kernels'

# Smoke reports land in the build tree; clear stale ones so the
# existence check below sees only this run's output.
BENCH_OUT="${ROOT}/build/release/bench"
rm -f "${BENCH_OUT}"/BENCH_*.json

step "serve-load smoke: admission regimes under a live trace"
cmake --build build/release -j "${JOBS}" --target serve_load
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${BENCH_OUT}" SOFTREC_THREADS=4 ./serve_load \
      >/dev/null )

step "bench smoke: BENCH JSON schema gate (reports in build/release/bench)"
cmake --build build/release -j "${JOBS}" --target micro_kernels \
    micro_simd micro_streaming serve_throughput
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${BENCH_OUT}" \
  SOFTREC_BENCH_SEQLEN=512 SOFTREC_THREADS=4 ./micro_kernels \
      --benchmark_filter='BM_SafeSoftmax/512' >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${BENCH_OUT}" \
  SOFTREC_BENCH_SEQLEN=512 ./micro_simd >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${BENCH_OUT}" \
  SOFTREC_BENCH_SEQLEN=128 SOFTREC_THREADS=4 ./serve_throughput \
      >/dev/null )
( cd build/release/bench &&
  SOFTREC_BENCH_DIR="${BENCH_OUT}" \
  SOFTREC_BENCH_SEQLEN=256 SOFTREC_THREADS=4 ./micro_streaming \
      >/dev/null )
for report in BENCH_micro_kernels.json BENCH_micro_simd.json \
              BENCH_micro_streaming.json \
              BENCH_serve_throughput.json BENCH_serve_load.json; do
    if [ ! -f "${BENCH_OUT}/${report}" ]; then
        echo "ci: expected bench report ${report} missing in ${BENCH_OUT}" >&2
        exit 1
    fi
done
python3 tools/check_bench_json.py \
    "${BENCH_OUT}/BENCH_micro_kernels.json" \
    "${BENCH_OUT}/BENCH_micro_simd.json" \
    "${BENCH_OUT}/BENCH_micro_streaming.json" \
    "${BENCH_OUT}/BENCH_serve_throughput.json" \
    "${BENCH_OUT}/BENCH_serve_load.json"

step "negative: a benchmark list request times nothing and writes nothing"
LIST_DIR="$(mktemp -d)"
( cd "${LIST_DIR}" &&
  "${ROOT}/build/release/bench/micro_kernels" --benchmark_list_tests \
      >/dev/null )
if [ -n "$(ls -A "${LIST_DIR}")" ]; then
    echo "ci: micro_kernels --benchmark_list_tests wrote files:" >&2
    ls -A "${LIST_DIR}" >&2
    rm -rf "${LIST_DIR}"
    exit 1
fi
rm -rf "${LIST_DIR}"
echo "micro_kernels --benchmark_list_tests: wrote nothing (OK)"

step "negative: malformed env knobs must hard-error, not fall back"
if SOFTREC_BENCH_SEQLEN=lots ./build/release/bench/micro_simd \
    >/dev/null 2>&1; then
    echo "ci: SOFTREC_BENCH_SEQLEN=lots did not fail" >&2
    exit 1
fi
echo "SOFTREC_BENCH_SEQLEN=lots: rejected (OK)"
if SOFTREC_BENCH_SEQLEN=32 ./build/release/bench/micro_simd \
    >/dev/null 2>&1; then
    echo "ci: SOFTREC_BENCH_SEQLEN=32 (below floor) did not fail" >&2
    exit 1
fi
echo "SOFTREC_BENCH_SEQLEN=32: rejected (OK)"
if SOFTREC_ATTENTION=flash SOFTREC_BENCH_SEQLEN=64 \
    ./build/release/bench/serve_throughput >/dev/null 2>&1; then
    echo "ci: SOFTREC_ATTENTION=flash did not fail" >&2
    exit 1
fi
echo "SOFTREC_ATTENTION=flash: rejected (OK)"
if SOFTREC_SERVE_KV_DTYPE=fp4 SOFTREC_BENCH_SEQLEN=64 \
    ./build/release/bench/serve_throughput >/dev/null 2>&1; then
    echo "ci: SOFTREC_SERVE_KV_DTYPE=fp4 did not fail" >&2
    exit 1
fi
echo "SOFTREC_SERVE_KV_DTYPE=fp4: rejected (OK)"
if SOFTREC_SERVE_PREFILL_CHUNK=weasel SOFTREC_BENCH_SEQLEN=64 \
    ./build/release/bench/serve_throughput >/dev/null 2>&1; then
    echo "ci: SOFTREC_SERVE_PREFILL_CHUNK=weasel did not fail" >&2
    exit 1
fi
echo "SOFTREC_SERVE_PREFILL_CHUNK=weasel: rejected (OK)"

step "servebench: self-test, then a 5 s long_prompt run whose output check passes"
# servebench compiles its own copy of src/ against the kernel headers
# (under .bench_build/) and refuses to start while any SOFTREC_*
# variable is set, so it runs with every such variable removed.
SERVE_ENV=(env)
for var in $(compgen -e | grep '^SOFTREC_' || true); do
    SERVE_ENV+=(-u "${var}")
done
"${SERVE_ENV[@]}" python3 servebench/run.py --self-test
SERVE_RESULT="$("${SERVE_ENV[@]}" python3 servebench/run.py \
    --workload long_prompt --seed 1 --seconds 5 --trace 0 | tail -n 1)"
if ! python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1]).get("correct") is True else 1)' \
    "${SERVE_RESULT}"; then
    echo "ci: servebench long_prompt did not report \"correct\": true" >&2
    echo "${SERVE_RESULT}" >&2
    exit 1
fi
echo "servebench long_prompt: correct (OK)"

printf '\n=== ci: all gates passed ===\n'
