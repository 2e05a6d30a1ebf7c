#!/usr/bin/env bash
# Repo verification driver (see .claude/skills/verify/SKILL.md for the
# full build-and-drive recipe and runtime surfaces).
#
#   scripts/verify.sh            # tier-1: native Release build + ctest
#   scripts/verify.sh --portable # add the -DDPMD_NATIVE=OFF leg
#   scripts/verify.sh --avx2     # add the -march=x86-64-v3 (AVX2) leg
#   scripts/verify.sh --asan     # add the ASan+UBSan leg (threaded suites)
#   scripts/verify.sh --tsan     # add the TSan leg (threaded suites)
#   scripts/verify.sh --perfbench # add the repo-benchmark smoke leg
#   scripts/verify.sh --all      # everything
#
# The portability leg exists because the hot kernels (vtanh, gemm, the
# SIMD compression-table eval_row) are written against `#pragma omp simd`
# and must build AND pass on a plain baseline ISA — a kernel that silently
# requires -march=native is a bug this leg catches.  The TSan leg (ISSUE 8)
# guards the shared-ModelPack serving paths: N SimService workers reading
# one immutable weight pack while the queue mutates under its mutex.  The
# perfbench leg runs the repository benchmark (BENCHMARK.json) for a few
# steps per workload, so a change that breaks its build, a metric name or
# one of its correctness checks fails here rather than in a benchmark run.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="${JOBS:-4}"
run_portable=0
run_avx2=0
run_asan=0
run_tsan=0
run_perfbench=0
for arg in "$@"; do
  case "$arg" in
    --portable) run_portable=1 ;;
    --avx2) run_avx2=1 ;;
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --perfbench) run_perfbench=1 ;;
    --all) run_portable=1; run_avx2=1; run_asan=1; run_tsan=1
           run_perfbench=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== tier-1: native build + ctest =="
cmake -B "$repo_root/build" -S "$repo_root" >/dev/null
cmake --build "$repo_root/build" -j"$jobs"
(cd "$repo_root/build" && ctest --output-on-failure -j2)

# Trajectory-integrity suites (checkpoint/restart round-trips, comm fault
# injection, health-guard recovery) run as part of tier-1 above; re-run
# them by name so a regression there is called out on its own line.  Both
# carry the `threaded` label, so the sanitizer legs cover them too.
echo "== trajectory integrity: checkpoint + fault-injection suites =="
(cd "$repo_root/build" && ctest -R 'test_checkpoint|test_faults' \
     --output-on-failure)

# Load-balancing suites (ISSUE 7): the Rebalancer planner properties and
# the oracle-pinned balanced-trajectory tests (non-uniform grids through
# halo, migration, cadence, overlap, checkpoint/restart).  Also threaded,
# so the sanitizer legs cover them.
echo "== load balancing: rebalancer + balanced-trajectory suites =="
(cd "$repo_root/build" && ctest -R 'test_loadbalance|test_rebalance' \
     --output-on-failure)

# Serving suites (ISSUE 8): registry sharing bit-identity, gang merge
# numerics, queue semantics, arena equality.  Threaded label, so the
# sanitizer legs below re-run them under ASan/TSan.
echo "== serving: registry/queue/gang/arena suite =="
(cd "$repo_root/build" && ctest -R 'test_serve$' --output-on-failure)

# Serving robustness (ISSUE 10): admission control/shedding, priorities,
# deadlines, cooperative cancellation of running jobs, budget watchdog
# (including a wedged-in-simmpi job), transient retry, drain-vs-now
# shutdown, plus the stop-token plumbing in the runtime pool.  These suites
# carry the threaded label, so the TSan leg below re-runs the whole
# cancel/watchdog/shutdown surface under the race detector — the
# shutdown(Now)-never-deadlocks guarantee is only as good as that pass.
echo "== serving robustness: deadlines/cancel/retry/drain suite =="
(cd "$repo_root/build" && ctest -R 'test_serve_robust|test_runtime' \
     --output-on-failure)

# Fitting-net fast path (ISSUE 9): batched-GEMM/epilogue bitwise parity,
# sweep parity, the reduced-precision oracle bounds, then one short
# reduced-precision trajectory end to end through the quickstart CLI (the
# fp32-fitting rung with the fp64 energy head and force chain).
echo "== fitting fast path: gemm/nn/core suites + fp32-fitting trajectory =="
(cd "$repo_root/build" && ctest -R 'test_gemm|test_nn|test_core_dp' \
     --output-on-failure)
"$repo_root/build/quickstart" --steps=20 --cells=2 --precision=fp64 \
    --fitting-precision=fp32 >/dev/null
echo "fp32-fitting trajectory: OK"

if [[ "$run_portable" == 1 ]]; then
  echo "== portability: -DDPMD_NATIVE=OFF build + ctest =="
  cmake -B "$repo_root/build-portable" -S "$repo_root" \
        -DDPMD_NATIVE=OFF >/dev/null
  cmake --build "$repo_root/build-portable" -j"$jobs"
  (cd "$repo_root/build-portable" && ctest --output-on-failure -j2)
fi

# The AVX2 leg compiles the 32-byte branch of the GEMM register tile
# (TileShape in src/gemm/gemm.cpp): the native build on an AVX-512 host
# takes the 64-byte branch and the portable one the 16-byte branch, so
# without it the ymm tile (4 x 3 accumulators + 3 B vectors + 1 broadcast,
# all 16 ymm registers) would never be built or tested.  It runs on any
# x86-64 host with AVX2 and FMA.
if [[ "$run_avx2" == 1 ]]; then
  echo "== AVX2: -march=x86-64-v3 build + ctest =="
  cmake -B "$repo_root/build-avx2" -S "$repo_root" -DDPMD_NATIVE=OFF \
        -DCMAKE_CXX_FLAGS=-march=x86-64-v3 >/dev/null
  cmake --build "$repo_root/build-avx2" -j"$jobs"
  (cd "$repo_root/build-avx2" && ctest --output-on-failure -j2)
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== sanitizers: ASan+UBSan, threaded suites =="
  cmake -B "$repo_root/build-asan" -S "$repo_root" \
        -DDPMD_SANITIZE=address >/dev/null
  cmake --build "$repo_root/build-asan" -j"$jobs"
  (cd "$repo_root/build-asan" && ctest -L threaded --output-on-failure)
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== sanitizers: ThreadSanitizer, threaded suites =="
  cmake -B "$repo_root/build-tsan" -S "$repo_root" \
        -DDPMD_SANITIZE=thread >/dev/null
  cmake --build "$repo_root/build-tsan" -j"$jobs"
  (cd "$repo_root/build-tsan" && ctest -L threaded --output-on-failure)
fi

if [[ "$run_perfbench" == 1 ]]; then
  echo "== repo benchmark: perfbench smoke (both workloads, 2 trace modes) =="
  (cd "$repo_root" && python3 perfbench/smoke_test.py)
fi

echo "verify: OK"
