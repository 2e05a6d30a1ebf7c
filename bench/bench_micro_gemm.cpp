// Micro-benchmarks of the GEMM stack (google-benchmark): the §III-B2
// ablations — sve_gemm vs blocked at tall-skinny shapes, GEMM-NT vs
// GEMM-NN (the pre-transposition win), and the fp16-weight kernel — plus
// the host's measured FMA peak and the production fitting-net shapes
// reported as GFLOP/s and % of that peak:
//
//   ./build/bench_micro_gemm --benchmark_filter='FmaPeak|FittingGemm'
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "gemm/gemm.hpp"
#include "util/random.hpp"

using namespace dpmd;

namespace {

std::vector<double> rand_mat(int r, int c, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(static_cast<std::size_t>(r) * c);
  for (auto& v : m) v = rng.uniform(-1, 1);
  return m;
}

// ------------------------------------------------------------ FMA peak --
// The host's fp64/fp32 FMA peak for one core, measured rather than taken
// from a datasheet: kChains independent accumulator chains of native-width
// vectors (the width gemm's register tiles use), enough to cover the FMA
// latency on both FMA ports, each step one multiply-add per lane.  The
// multiplier keeps every chain bounded, so no denormal or overflow slows
// the loop.

constexpr int kChains = 12;
constexpr long kPeakSteps = 1 << 16;

template <class T>
struct NativeVec {
  typedef T type __attribute__((vector_size(gemm::kVecBytes)));
};

template <class T>
constexpr double fma_chain_flops(long steps) {
  return 2.0 * kChains * (gemm::kVecBytes / sizeof(T)) *
         static_cast<double>(steps);
}

/// Runs the kChains multiply-add chains for `steps` steps.
template <class T>
T fma_chains(long steps) {
  using V = typename NativeVec<T>::type;
  // Read through volatile so the compiler cannot fold the chains.
  volatile T vx = T(0.999), vy = T(0.001);
  const T x = vx, y = vy;
  V acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = V{} + T(c);
  for (long s = 0; s < steps; ++s) {
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * x + y;
  }
  V sum = V{};
  for (int c = 0; c < kChains; ++c) sum += acc[c];
  return sum[0];
}

template <class T>
void BM_FmaPeak(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(fma_chains<T>(kPeakSteps));
  state.counters["GFLOP/s"] = benchmark::Counter(
      fma_chain_flops<T>(kPeakSteps) * 1e-9 *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK_TEMPLATE(BM_FmaPeak, double);
BENCHMARK_TEMPLATE(BM_FmaPeak, float);

/// The peak rung's GFLOP/s, measured once per process (best of 20 short
/// runs) as the denominator of the shape rungs' % of peak.
template <class T>
double measured_peak_gflops() {
  static const double peak = [] {
    double best = 0.0;
    for (int r = 0; r < 20; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(fma_chains<T>(kPeakSteps));
      const std::chrono::duration<double> dt =
          std::chrono::steady_clock::now() - t0;
      best = std::max(best, fma_chain_flops<T>(kPeakSteps) * 1e-9 /
                                dt.count());
    }
    return best;
  }();
  return peak;
}

// ------------------------------------------------ fitting-net shapes ----
// The water-256 fitting GEMMs as the production sweep issues them
// (gemm_batched, packed weights, one item of M rows; the fused epilogue is
// left out so the rung times the register tile alone).  M = 86 and 170 are
// the per-type row counts; args are (M, N, K):
//   forward   first layer  M x 240 x 1600, hidden layers M x 240 x 240
//   backward  first layer  M x 1600 x 240 (dx = dy W^T; hidden = 240 x 240)
template <class T>
void BM_FittingGemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const int k = static_cast<int>(state.range(2));
  Rng rng(7);
  std::vector<T> a(static_cast<std::size_t>(m) * k);
  std::vector<T> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<T>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<T>(rng.uniform(-1, 1));
  std::vector<T> bp(b.size());
  gemm::pack_b(b.data(), bp.data(), k, n);
  std::vector<T> c(static_cast<std::size_t>(m) * n);
  gemm::GemmBatchItem<T> it;
  it.a = a.data();
  it.c = c.data();
  it.m = m;
  const double peak = measured_peak_gflops<T>();
  double seconds = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    gemm::gemm_batched(&it, 1, b.data(), bp.data(),
                       static_cast<const T*>(nullptr), n, k,
                       gemm::Epilogue::None);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
    seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  }
  const double flops = 2.0 * m * n * k * static_cast<double>(state.iterations());
  state.counters["GFLOP/s"] = benchmark::Counter(flops * 1e-9,
                                                 benchmark::Counter::kIsRate);
  state.counters["pct_peak"] = 100.0 * flops * 1e-9 / seconds / peak;
}
BENCHMARK_TEMPLATE(BM_FittingGemm, double)
    ->ArgNames({"M", "N", "K"})
    ->Args({86, 240, 1600})
    ->Args({170, 240, 1600})
    ->Args({86, 240, 240})
    ->Args({170, 240, 240})
    ->Args({86, 1600, 240})
    ->Args({170, 1600, 240});
BENCHMARK_TEMPLATE(BM_FittingGemm, float)
    ->ArgNames({"M", "N", "K"})
    ->Args({86, 240, 1600})
    ->Args({170, 240, 1600})
    ->Args({86, 240, 240})
    ->Args({170, 240, 240})
    ->Args({86, 1600, 240})
    ->Args({170, 1600, 240});

void BM_GemmBlocked(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 240, k = 240;
  const auto a = rand_mat(m, k, 1);
  const auto b = rand_mat(k, n, 2);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    gemm::gemm_blocked(a.data(), b.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_GemmBlocked)->Arg(1)->Arg(2)->Arg(3)->Arg(8)->Arg(96);

void BM_SveGemm(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 240, k = 240;
  const auto a = rand_mat(m, k, 1);
  const auto b = rand_mat(k, n, 2);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    gemm::sve_gemm(a.data(), b.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * m * n * k);
}
BENCHMARK(BM_SveGemm)->Arg(1)->Arg(2)->Arg(3)->Arg(8)->Arg(96);

// The NT vs NN comparison at the fitting-net backward shape: the paper
// measures NT at roughly half the NN throughput for small M, motivating
// the weight pre-transposition.
void BM_GemmNN(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 240, k = 240;
  const auto a = rand_mat(m, k, 3);
  const auto b = rand_mat(k, n, 4);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    gemm::gemm_ref(a.data(), b.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNN)->Arg(1)->Arg(3);

void BM_GemmNT(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 240, k = 240;
  const auto a = rand_mat(m, k, 3);
  const auto bt = rand_mat(n, k, 4);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    gemm::gemm_nt_ref(a.data(), bt.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmNT)->Arg(1)->Arg(3);

void BM_GemmHalfWeights(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 240, k = 240;
  Rng rng(5);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<Half> bh(b.size());
  convert_to_half(b.data(), bh.data(), b.size());
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  for (auto _ : state) {
    gemm::gemm_halfw(a.data(), bh.data(), c.data(), m, n, k);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmHalfWeights)->Arg(1)->Arg(3);

void BM_WeightTranspose240(benchmark::State& state) {
  const auto w = rand_mat(240, 240, 6);
  std::vector<double> wt(w.size());
  for (auto _ : state) {
    gemm::transpose(w.data(), wt.data(), 240, 240);
    benchmark::DoNotOptimize(wt.data());
  }
}
BENCHMARK(BM_WeightTranspose240);

}  // namespace

BENCHMARK_MAIN();
