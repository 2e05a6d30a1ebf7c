#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <vector>

#include "gemm/gemm.hpp"
#include "util/half.hpp"
#include "util/random.hpp"
#include "util/vtanh.hpp"

namespace dpmd::gemm {
namespace {

std::vector<double> random_matrix(int rows, int cols, Rng& rng,
                                  double scale = 1.0) {
  std::vector<double> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = rng.uniform(-scale, scale);
  return m;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::fabs(a[i] - b[i]));
  }
  return d;
}

// Shape sweep: (M, N, K) covering the fitting-net regimes the paper cares
// about — tall-skinny M<=3 (strong scaling, 1-2 atoms/core) through batch
// sizes of the 8 atoms/core configuration, plus ragged odd shapes.
class GemmShapes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(GemmShapes, BlockedMatchesRef) {
  const auto [m, n, k] = GetParam();
  Rng rng(100 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_blocked(a.data(), b.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

TEST_P(GemmShapes, SveGemmMatchesRef) {
  const auto [m, n, k] = GetParam();
  Rng rng(200 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  sve_gemm(a.data(), b.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

TEST_P(GemmShapes, AutoDispatchMatchesRef) {
  const auto [m, n, k] = GetParam();
  Rng rng(300 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_auto(a.data(), b.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

TEST_P(GemmShapes, NtMatchesTransposedNn) {
  const auto [m, n, k] = GetParam();
  Rng rng(400 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);  // NN operand
  std::vector<double> bt(static_cast<std::size_t>(n) * k);
  transpose(b.data(), bt.data(), k, n);  // bt is n x k
  std::vector<double> c_nn(static_cast<std::size_t>(m) * n);
  std::vector<double> c_nt(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_nn.data(), m, n, k);
  gemm_nt_ref(a.data(), bt.data(), c_nt.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c_nn, c_nt), 1e-11);
}

TEST_P(GemmShapes, VectorizedNtMatchesRef) {
  const auto [m, n, k] = GetParam();
  Rng rng(500 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto bt = random_matrix(n, k, rng);
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_nt_ref(a.data(), bt.data(), c_ref.data(), m, n, k);
  gemm_nt(a.data(), bt.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

TEST_P(GemmShapes, PackedMatchesRef) {
  // gemm_packed consumes B in the pack_b panel layout (full NR panels +
  // transposed remainder columns) — the weight-matrix fast path.
  const auto [m, n, k] = GetParam();
  Rng rng(700 + m * 7 + n * 3 + k);
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> bp(b.size());
  pack_b(b.data(), bp.data(), k, n);
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_packed(a.data(), bp.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

TEST_P(GemmShapes, TnMatchesTransposedRef) {
  // gemm_tn consumes A stored K x M (the packed-row layout of the
  // descriptor contraction and the training weight gradient).
  const auto [m, n, k] = GetParam();
  Rng rng(600 + m * 7 + n * 3 + k);
  const auto at = random_matrix(k, m, rng);  // K x M storage
  const auto b = random_matrix(k, n, rng);
  std::vector<double> a(static_cast<std::size_t>(m) * k);
  transpose(at.data(), a.data(), k, m);  // logical A, M x K
  std::vector<double> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<double> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_tn(at.data(), b.data(), c.data(), m, n, k);
  EXPECT_LT(max_abs_diff(c, c_ref), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 240, 240},
                      std::tuple{2, 240, 240}, std::tuple{3, 240, 240},
                      std::tuple{3, 240, 1600}, std::tuple{8, 64, 64},
                      std::tuple{17, 33, 5}, std::tuple{96, 240, 240},
                      std::tuple{100, 100, 100}, std::tuple{5, 1, 7},
                      std::tuple{1, 7, 1}, std::tuple{64, 128, 256},
                      // K-blocked regime (k > kKc) and the contraction
                      // shapes: A = R~^T G (m=4, n=m1, k=rows), dG = R~ dA
                      // (k=4), D = A^T A (n=m2=16, k=4), dR = G dA^T (n=4).
                      std::tuple{21, 240, 1600}, std::tuple{43, 240, 1600},
                      std::tuple{43, 1600, 240}, std::tuple{4, 100, 57},
                      std::tuple{57, 100, 4}, std::tuple{100, 16, 4},
                      std::tuple{57, 4, 100}, std::tuple{4, 100, 1}));

TEST(Gemm, TnAlphaBetaHandling) {
  Rng rng(6);
  const int m = 7, n = 26, k = 31;
  const auto at = random_matrix(k, m, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> a(static_cast<std::size_t>(m) * k);
  transpose(at.data(), a.data(), k, m);
  auto c = random_matrix(m, n, rng);
  auto expected = c;
  std::vector<double> ab(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), ab.data(), m, n, k);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = 1.5 * ab[i] + 2.0 * expected[i];
  }
  gemm_tn(at.data(), b.data(), c.data(), m, n, k, 1.5, 2.0);
  EXPECT_LT(max_abs_diff(c, expected), 1e-11);
}

TEST(Gemm, NtAlphaBetaHandling) {
  Rng rng(7);
  const int m = 9, n = 6, k = 40;
  const auto a = random_matrix(m, k, rng);
  const auto bt = random_matrix(n, k, rng);
  auto c = random_matrix(m, n, rng);
  auto expected = c;
  std::vector<double> ab(static_cast<std::size_t>(m) * n);
  gemm_nt_ref(a.data(), bt.data(), ab.data(), m, n, k);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = 0.25 * ab[i] + 3.0 * expected[i];
  }
  gemm_nt(a.data(), bt.data(), c.data(), m, n, k, 0.25, 3.0);
  EXPECT_LT(max_abs_diff(c, expected), 1e-11);
}

TEST(Gemm, AlphaBetaHandling) {
  Rng rng(1);
  const int m = 4, n = 5, k = 6;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  auto c0 = random_matrix(m, n, rng);

  // c = 2*A*B + 0.5*c  against explicit reference.
  auto expected = c0;
  std::vector<double> ab(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), ab.data(), m, n, k);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected[i] = 2.0 * ab[i] + 0.5 * expected[i];
  }

  for (int variant = 0; variant < 3; ++variant) {
    auto c = c0;
    switch (variant) {
      case 0: gemm_ref(a.data(), b.data(), c.data(), m, n, k, 2.0, 0.5); break;
      case 1:
        gemm_blocked(a.data(), b.data(), c.data(), m, n, k, 2.0, 0.5);
        break;
      case 2: sve_gemm(a.data(), b.data(), c.data(), m, n, k, 2.0, 0.5); break;
    }
    EXPECT_LT(max_abs_diff(c, expected), 1e-11) << "variant " << variant;
  }
}

TEST(Gemm, BetaZeroIgnoresGarbageInC) {
  Rng rng(2);
  const int m = 3, n = 4, k = 5;
  const auto a = random_matrix(m, k, rng);
  const auto b = random_matrix(k, n, rng);
  std::vector<double> c(static_cast<std::size_t>(m) * n,
                        std::numeric_limits<double>::quiet_NaN());
  gemm_blocked(a.data(), b.data(), c.data(), m, n, k, 1.0, 0.0);
  for (const double v : c) EXPECT_FALSE(std::isnan(v));
}

TEST(Gemm, FloatInstantiation) {
  Rng rng(3);
  const int m = 2, n = 16, k = 8;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  sve_gemm(a.data(), b.data(), c.data(), m, n, k);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-5f);
  }
}

TEST(Gemm, HalfWeightsErrorBounded) {
  Rng rng(4);
  const int m = 2, n = 240, k = 240;
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  std::vector<Half> bh(b.size());
  convert_to_half(b.data(), bh.data(), b.size());

  std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_halfw(a.data(), bh.data(), c.data(), m, n, k);

  // Error budget: each b entry carries <= 2^-11 relative error; with |a|,
  // |b| <= 1 the accumulated error over k=240 terms stays well under
  // 240 * 2^-11 ~ 0.12.
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 0.12f);
  }
}

TEST(Gemm, HalfWeightsExactForHalfRepresentable) {
  // If B is exactly representable in fp16, the fp16 path must agree with
  // fp32 to accumulation roundoff.
  const int m = 1, n = 8, k = 4;
  std::vector<float> a = {1.0f, 0.5f, -2.0f, 4.0f};
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>((static_cast<int>(i) % 5) - 2) * 0.25f;
  }
  std::vector<Half> bh(b.size());
  convert_to_half(b.data(), bh.data(), b.size());
  std::vector<float> c_ref(n), c(n);
  gemm_ref(a.data(), b.data(), c_ref.data(), m, n, k);
  gemm_halfw(a.data(), bh.data(), c.data(), m, n, k);
  for (int i = 0; i < n; ++i) EXPECT_EQ(c[i], c_ref[i]);
}

// ------------------------------------------------------- gemm_batched ----

/// random_matrix rounded to T (the float instances of the batched tests).
template <class T>
std::vector<T> random_matrix_as(int rows, int cols, Rng& rng,
                                double scale = 1.0) {
  const auto d = random_matrix(rows, cols, rng, scale);
  return std::vector<T>(d.begin(), d.end());
}

/// Unfused reference for one batched item: gemm_auto into c, then the
/// Epilogue table of gemm.hpp applied as separate whole-slab passes (the
/// row passes DenseLayer runs when fusion is off).  gemm_batched promises
/// bitwise identity against exactly this.
template <class T>
void batched_item_ref(const GemmBatchItem<T>& it, const T* b, const T* bp,
                      const T* bias, int n, int k, Epilogue ep) {
  gemm_auto(it.a, b, bp, it.c, it.m, n, k);
  const std::size_t mn = static_cast<std::size_t>(it.m) * n;
  switch (ep) {
    case Epilogue::None:
      break;
    case Epilogue::Bias:
    case Epilogue::BiasTanh:
    case Epilogue::BiasTanhSkip:
      for (int i = 0; i < it.m; ++i) {
        T* cr = it.c + static_cast<std::size_t>(i) * n;
        for (int j = 0; j < n; ++j) cr[j] += bias[j];
        if (ep != Epilogue::Bias) vtanh(cr, static_cast<std::size_t>(n));
      }
      if (ep == Epilogue::BiasTanhSkip) {
        for (std::size_t i = 0; i < mn; ++i) it.c2[i] = it.c[i] + it.skip[i];
      } else if (it.c2 != nullptr) {
        for (std::size_t i = 0; i < mn; ++i) it.c2[i] = it.c[i];
      }
      break;
    case Epilogue::GradSkip:
      for (std::size_t i = 0; i < mn; ++i) it.c[i] += it.skip[i];
      [[fallthrough]];
    case Epilogue::Grad:
      if (it.c2 != nullptr) {
        for (std::size_t i = 0; i < mn; ++i) {
          it.c2[i] = it.c[i] * (T(1) - it.c2[i] * it.c2[i]);
        }
      }
      break;
  }
}

/// Per-item operand storage for a batched sweep test.
template <class T>
struct BatchedFixture {
  std::vector<int> ms;
  int n = 0, k = 0;
  std::vector<std::vector<T>> a, c, c2, skip;
  std::vector<T> b, bp, bias;

  BatchedFixture(std::vector<int> ms_in, int n_in, int k_in, Rng& rng)
      : ms(std::move(ms_in)), n(n_in), k(k_in) {
    b = random_matrix_as<T>(k, n, rng);
    bp.resize(b.size());
    pack_b(b.data(), bp.data(), k, n);
    bias = random_matrix_as<T>(1, n, rng);
    for (const int m : ms) {
      a.push_back(random_matrix_as<T>(m, k, rng));
      // tanh-range c2/skip seeds so Grad's (1 - h^2) stays well-scaled
      c.push_back(random_matrix_as<T>(m, n, rng, 0.9));
      c2.push_back(random_matrix_as<T>(m, n, rng, 0.9));
      skip.push_back(random_matrix_as<T>(m, n, rng, 0.9));
    }
  }

  /// Builds the item list over fresh copies of the c/c2 seeds (both the
  /// fused run and the reference mutate them in place).
  std::vector<GemmBatchItem<T>> make_items(std::vector<std::vector<T>>& cw,
                                           std::vector<std::vector<T>>& c2w,
                                           bool with_c2) {
    cw = c;
    c2w = c2;
    std::vector<GemmBatchItem<T>> out;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      GemmBatchItem<T> it;
      it.a = a[i].data();
      it.c = cw[i].data();
      it.c2 = with_c2 ? c2w[i].data() : nullptr;
      it.skip = skip[i].data();
      it.m = ms[i];
      out.push_back(it);
    }
    return out;
  }

  /// One packed-B gemm_batched sweep against the looped reference; every
  /// item's c and c2 must match bitwise.
  void expect_sweep_bitwise(Epilogue ep) {
    std::vector<std::vector<T>> c_f, c2_f, c_r, c2_r;
    auto fused = make_items(c_f, c2_f, true);
    auto ref = make_items(c_r, c2_r, true);
    gemm_batched(fused.data(), static_cast<int>(fused.size()), b.data(),
                 bp.data(), bias.data(), n, k, ep);
    for (auto& it : ref) {
      batched_item_ref(it, b.data(), bp.data(), bias.data(), n, k, ep);
    }
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(c_f[i], c_r[i]) << "item " << i << " (" << n << " x " << k
                                << ")";
      EXPECT_EQ(c2_f[i], c2_r[i]) << "item " << i << " (" << n << " x " << k
                                  << ")";
    }
  }
};

class GemmBatchedEpilogues : public ::testing::TestWithParam<Epilogue> {};

TEST_P(GemmBatchedEpilogues, BitwiseMatchesLoopedAutoPlusUnfused) {
  const Epilogue ep = GetParam();
  // m values straddle the sve threshold (<= 3), the MR = 8 register tile,
  // its row remainders, and the real water-256 per-type counts; k = 300
  // crosses the kKc K-chunk boundary, n = 52 leaves remainder columns
  // beyond the packed panels.
  Rng rng(900 + static_cast<int>(ep));
  BatchedFixture<double> fx({1, 3, 5, 8, 21, 43, 7}, 52, 300, rng);
  for (const bool packed : {false, true}) {
    for (const bool with_c2 : {true, false}) {
      // c2 is mandatory only for BiasTanhSkip; every other epilogue must
      // tolerate a missing secondary slab.
      if (!with_c2 && ep == Epilogue::BiasTanhSkip) continue;
      std::vector<std::vector<double>> c_f, c2_f, c_r, c2_r;
      auto fused = fx.make_items(c_f, c2_f, with_c2);
      auto ref = fx.make_items(c_r, c2_r, with_c2);
      const double* bp = packed ? fx.bp.data() : nullptr;
      gemm_batched(fused.data(), static_cast<int>(fused.size()), fx.b.data(),
                   bp, fx.bias.data(), fx.n, fx.k, ep);
      for (auto& it : ref) {
        batched_item_ref(it, fx.b.data(), bp, fx.bias.data(), fx.n, fx.k,
                         ep);
      }
      for (std::size_t i = 0; i < fused.size(); ++i) {
        EXPECT_EQ(c_f[i], c_r[i])
            << "item " << i << " packed " << packed << " c2 " << with_c2;
        EXPECT_EQ(c2_f[i], c2_r[i])
            << "item " << i << " packed " << packed << " c2 " << with_c2;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEpilogues, GemmBatchedEpilogues,
                         ::testing::Values(Epilogue::None, Epilogue::Bias,
                                           Epilogue::BiasTanh,
                                           Epilogue::BiasTanhSkip,
                                           Epilogue::Grad,
                                           Epilogue::GradSkip));

/// The production fitting-net GEMMs of a water-256 step (240^3 net over
/// the 1600-wide descriptor), forward and backward.
template <class T>
void fitting_layer_shapes_bitwise() {
  Rng rng(77);
  // Forward first layer: per-type row counts of water-256 sweeps against
  // the 1600 x 240 weight, bias + tanh + identity resnet.
  BatchedFixture<T>({21, 43, 22, 42}, 240, 1600, rng)
      .expect_sweep_bitwise(Epilogue::BiasTanhSkip);
  // Backward, at the production per-type row counts 86 and 170 (m % 8 = 6
  // and 2, so every sweep also runs the residue-height tiles): the first
  // layer's dx = dy W^T (N = 1600, K = 240) with the act-grad of the layer
  // below, and a hidden layer's 240 x 240 with the identity-resnet skip.
  BatchedFixture<T>({86, 170}, 1600, 240, rng)
      .expect_sweep_bitwise(Epilogue::Grad);
  BatchedFixture<T>({86, 170}, 240, 240, rng)
      .expect_sweep_bitwise(Epilogue::GradSkip);
}

TEST(GemmBatched, FittingLayerShapesBitwise) {
  fitting_layer_shapes_bitwise<double>();
}

TEST(GemmBatched, FittingLayerShapesBitwiseFloat) {
  fitting_layer_shapes_bitwise<float>();
}

TEST(GemmBatched, HeadShapesAndEmptyItems) {
  // The energy head's forward is matrix-vector (n = 1), its backward a
  // rank-1 outer product (k = 1); both get dedicated rungs in batched_one.
  // m = 0 items must be skipped without touching their outputs.
  Rng rng(78);
  {
    BatchedFixture<double> fx({4, 0, 9, 1}, 1, 240, rng);
    std::vector<std::vector<double>> c_f, c2_f, c_r, c2_r;
    auto fused = fx.make_items(c_f, c2_f, true);
    auto ref = fx.make_items(c_r, c2_r, true);
    gemm_batched(fused.data(), static_cast<int>(fused.size()), fx.b.data(),
                 static_cast<const double*>(nullptr), fx.bias.data(), fx.n,
                 fx.k, Epilogue::Bias);
    for (auto& it : ref) {
      if (it.m > 0) {
        batched_item_ref<double>(it, fx.b.data(), nullptr, fx.bias.data(), fx.n,
                         fx.k, Epilogue::Bias);
      }
    }
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(c_f[i], c_r[i]) << "head fwd item " << i;
    }
  }
  {
    BatchedFixture<double> fx({6, 0, 3}, 240, 1, rng);
    std::vector<std::vector<double>> c_f, c2_f, c_r, c2_r;
    auto fused = fx.make_items(c_f, c2_f, true);
    auto ref = fx.make_items(c_r, c2_r, true);
    gemm_batched(fused.data(), static_cast<int>(fused.size()), fx.b.data(),
                 static_cast<const double*>(nullptr),
                 static_cast<const double*>(nullptr), fx.n, fx.k,
                 Epilogue::GradSkip);
    for (auto& it : ref) {
      if (it.m > 0) {
        batched_item_ref<double>(it, fx.b.data(), nullptr, nullptr, fx.n, fx.k,
                         Epilogue::GradSkip);
      }
    }
    for (std::size_t i = 0; i < fused.size(); ++i) {
      EXPECT_EQ(c_f[i], c_r[i]) << "head bwd item " << i;
      EXPECT_EQ(c2_f[i], c2_r[i]) << "head bwd item " << i;
    }
  }
}

// ------------------------------------------------ accumulation order ----
// The register tiles' arithmetic, element by element: per K chunk in
// ascending order, acc = the sum of a[i][p] * b[p][j] over the chunk in
// ascending p, then c += alpha * acc.  A scalar loop written in that order
// and compiled under the same flags (FMA contraction included) must match
// the tiled kernels bit for bit on every element a full-width register tile
// covers, so a rewrite of the tiles cannot silently change a trajectory.
// Where the target has FMA the compiler contracts each of the kernels'
// multiply-adds into one, so the reference spells that out with std::fma.

template <class T>
T mul_add(T x, T y, T acc) {
#if defined(__FMA__)
  return std::fma(x, y, acc);
#else
  return acc + x * y;
#endif
}

/// c = the chunked-order product over rows [0, m) x columns [0, n), with
/// a(i, p) = a[i * ars + p * aps] (row-major A or K x M stored A).
template <class T>
void chunked_order_ref(const T* a, int ars, int aps, const T* b, T* c,
                       int ldc, int m, int n, int k, int kc, T alpha) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T cij = 0;
      for (int pc = 0; pc < k; pc += kc) {
        T acc = 0;
        for (int p = pc; p < std::min(k, pc + kc); ++p) {
          acc = mul_add(a[static_cast<std::size_t>(i) * ars +
                          static_cast<std::size_t>(p) * aps],
                        b[static_cast<std::size_t>(p) * n + j], acc);
        }
        cij = mul_add(alpha, acc, cij);
      }
      c[static_cast<std::size_t>(i) * ldc + j] = cij;
    }
  }
}

template <class T>
void tiles_match_chunked_order() {
  constexpr int kKc = 256;  // the blocked kernels' K-chunk depth
  const int nr = gemm_panel_width<T>();
  const T alpha = T(0.75);
  Rng rng(91);
  // Fitting shapes (m % 8 residues 6 and 2), an odd-height block, K across
  // one and two chunk boundaries, N with remainder columns.
  const std::tuple<int, int, int> shapes[] = {
      {86, 240, 1600}, {170, 240, 240}, {13, 2 * nr + 5, 300},
      {7, nr, 513}, {4, nr, 5}};
  for (const auto& [m, n, k] : shapes) {
    SCOPED_TRACE(::testing::Message() << m << " x " << n << " x " << k);
    const auto a = random_matrix_as<T>(m, k, rng);
    const auto at = random_matrix_as<T>(k, m, rng);
    const auto b = random_matrix_as<T>(k, n, rng);
    std::vector<T> bp(b.size());
    pack_b(b.data(), bp.data(), k, n);
    const std::size_t mn = static_cast<std::size_t>(m) * n;
    std::vector<T> ref(mn), blocked(mn), packed(mn), batched(mn), tn(mn),
        tn_ref(mn);
    chunked_order_ref(a.data(), k, 1, b.data(), ref.data(), n, m, n, k, kKc,
                      alpha);
    gemm_blocked(a.data(), b.data(), blocked.data(), m, n, k, alpha);
    gemm_packed(a.data(), bp.data(), packed.data(), m, n, k, alpha);
    GemmBatchItem<T> it;
    it.a = a.data();
    it.c = batched.data();
    it.m = m;
    gemm_batched(&it, 1, b.data(), bp.data(), static_cast<const T*>(nullptr),
                 n, k, Epilogue::None);
    std::vector<T> ref1(mn);  // gemm_batched runs at alpha = 1
    chunked_order_ref(a.data(), k, 1, b.data(), ref1.data(), n, m, n, k, kKc,
                      T(1));
    // gemm_tn: 4-row tiles over the K x M operand, one chunk of all of K.
    chunked_order_ref(at.data(), 1, m, b.data(), tn_ref.data(), n, m, n, k, k,
                      alpha);
    gemm_tn(at.data(), b.data(), tn.data(), m, n, k, alpha);
    const int n_tile = n - n % nr;
    const int n_vec = n - n % (nr / 3);
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < n_tile; ++j) {
        const std::size_t e = static_cast<std::size_t>(i) * n + j;
        ASSERT_EQ(blocked[e], ref[e]) << "blocked (" << i << ", " << j << ")";
        ASSERT_EQ(packed[e], ref[e]) << "packed (" << i << ", " << j << ")";
        ASSERT_EQ(batched[e], ref1[e]) << "batched (" << i << ", " << j
                                       << ")";
      }
      if (i >= m - m % 4) continue;
      for (int j = 0; j < n_vec; ++j) {
        const std::size_t e = static_cast<std::size_t>(i) * n + j;
        ASSERT_EQ(tn[e], tn_ref[e]) << "tn (" << i << ", " << j << ")";
      }
    }
  }
}

TEST(GemmTiles, MatchChunkedScalarOrderBitwiseDouble) {
  tiles_match_chunked_order<double>();
}

TEST(GemmTiles, MatchChunkedScalarOrderBitwiseFloat) {
  tiles_match_chunked_order<float>();
}

TEST(Transpose, RoundTrip) {
  Rng rng(5);
  const int r = 7, c = 13;
  const auto m = random_matrix(r, c, rng);
  std::vector<double> t(m.size()), back(m.size());
  transpose(m.data(), t.data(), r, c);
  transpose(t.data(), back.data(), c, r);
  EXPECT_EQ(back, m);
  // Spot-check the transposed layout.
  EXPECT_DOUBLE_EQ(t[static_cast<std::size_t>(3) * r + 2],
                   m[static_cast<std::size_t>(2) * c + 3]);
}

// --------------------------------------------------- guard-page sweep ----
// Every operand of every GEMM entry point is placed flush against a
// PROT_NONE page — once ending right before it, once starting right after
// it — so a kernel that touches a single element outside an operand faults
// here, in the build that ships, instead of reading a neighbour's memory in
// production.  Shapes cover the tile edges: M % MR != 0, N < NR,
// N % NV != 0, K in {1, 2, 3} and K across the kKc chunk boundary.

/// n elements of T flush against an inaccessible page: with `at_end` the
/// last element is the last byte before the guard page, otherwise the first
/// element is the first byte after it.
template <class T>
class GuardedBuffer {
 public:
  GuardedBuffer(const std::vector<T>& init, bool at_end) : n_(init.size()) {
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t bytes = std::max<std::size_t>(n_ * sizeof(T), 1);
    const std::size_t data_pages = (bytes + page - 1) / page;
    len_ = (data_pages + 1) * page;
    void* m = mmap(nullptr, len_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::runtime_error("mmap failed");
    base_ = static_cast<std::byte*>(m);
    std::byte* guard = at_end ? base_ + data_pages * page : base_;
    if (mprotect(guard, page, PROT_NONE) != 0) {
      munmap(base_, len_);
      throw std::runtime_error("mprotect failed");
    }
    data_ = reinterpret_cast<T*>(at_end ? guard - n_ * sizeof(T)
                                        : base_ + page);
    std::copy(init.begin(), init.end(), data_);
  }
  ~GuardedBuffer() { munmap(base_, len_); }
  GuardedBuffer(const GuardedBuffer&) = delete;
  GuardedBuffer& operator=(const GuardedBuffer&) = delete;

  T* data() { return data_; }
  std::vector<T> values() const { return {data_, data_ + n_}; }

 private:
  std::size_t n_;
  std::size_t len_ = 0;
  std::byte* base_ = nullptr;
  T* data_ = nullptr;
};

template <class T>
std::vector<T> random_values(std::size_t n, Rng& rng) {
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.uniform(-1.0, 1.0));
  return v;
}

template <class T>
void expect_close(const std::vector<T>& got, const std::vector<T>& want,
                  double tol, const char* kernel) {
  ASSERT_EQ(got.size(), want.size()) << kernel;
  double d = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    d = std::max(d, std::fabs(static_cast<double>(got[i]) -
                              static_cast<double>(want[i])));
  }
  EXPECT_LT(d, tol) << kernel;
}

/// Runs every entry point on one (m, n, k) shape with all operands guarded
/// and checks each result against gemm_ref.
template <class T>
void guarded_sweep_one(int m, int n, int k, bool at_end, Rng& rng) {
  const auto mk = static_cast<std::size_t>(m) * k;
  const auto kn = static_cast<std::size_t>(k) * n;
  const auto mn = static_cast<std::size_t>(m) * n;
  const double tol = (sizeof(T) == 8 ? 1e-12 : 2e-5) * (k + 1);
  const std::vector<T> a = random_values<T>(mk, rng);
  const std::vector<T> b = random_values<T>(kn, rng);
  std::vector<T> at(mk), bt(kn), bp(kn);
  transpose(a.data(), at.data(), m, k);
  transpose(b.data(), bt.data(), k, n);
  pack_b(b.data(), bp.data(), k, n);
  std::vector<T> ref(mn);
  gemm_ref(a.data(), b.data(), ref.data(), m, n, k);

  GuardedBuffer<T> ga(a, at_end), gb(b, at_end), gat(at, at_end),
      gbt(bt, at_end), gbp(bp, at_end);
  const auto run = [&](const char* kernel, const auto& call) {
    GuardedBuffer<T> gc(std::vector<T>(mn, T(0)), at_end);
    call(gc.data());
    expect_close(gc.values(), ref, tol, kernel);
  };
  run("gemm_tn", [&](T* c) { gemm_tn(gat.data(), gb.data(), c, m, n, k); });
  run("gemm_nt", [&](T* c) { gemm_nt(ga.data(), gbt.data(), c, m, n, k); });
  run("gemm_blocked",
      [&](T* c) { gemm_blocked(ga.data(), gb.data(), c, m, n, k); });
  run("gemm_packed",
      [&](T* c) { gemm_packed(ga.data(), gbp.data(), c, m, n, k); });
  run("sve_gemm", [&](T* c) { sve_gemm(ga.data(), gb.data(), c, m, n, k); });
  run("gemm_auto", [&](T* c) { gemm_auto(ga.data(), gb.data(), c, m, n, k); });
  run("gemm_auto(packed)", [&](T* c) {
    gemm_auto(ga.data(), gb.data(), static_cast<const T*>(gbp.data()), c, m,
              n, k);
  });

  // gemm_batched: two items (m and m + 1 rows) with the bias + tanh + skip
  // epilogue, so a, c, c2, skip and bias are all read or written.
  const std::vector<T> bias = random_values<T>(static_cast<std::size_t>(n),
                                               rng);
  GuardedBuffer<T> gbias(bias, at_end);
  for (const bool packed : {false, true}) {
    std::vector<std::unique_ptr<GuardedBuffer<T>>> keep;
    std::vector<GemmBatchItem<T>> items;
    std::vector<std::vector<T>> want_c, want_c2;
    for (const int mi : {m, m + 1}) {
      const auto rows = static_cast<std::size_t>(mi);
      const std::vector<T> ai = random_values<T>(rows * k, rng);
      const std::vector<T> skip = random_values<T>(rows * n, rng);
      std::vector<T> c(rows * n);
      gemm_ref(ai.data(), b.data(), c.data(), mi, n, k);
      std::vector<T> c2(c.size());
      for (std::size_t e = 0; e < c.size(); ++e) {
        c[e] = std::tanh(c[e] + bias[e % static_cast<std::size_t>(n)]);
        c2[e] = c[e] + skip[e];
      }
      want_c.push_back(c);
      want_c2.push_back(c2);
      for (const auto* init : {&ai, &skip}) {
        keep.push_back(std::make_unique<GuardedBuffer<T>>(*init, at_end));
      }
      for (int out = 0; out < 2; ++out) {
        keep.push_back(std::make_unique<GuardedBuffer<T>>(
            std::vector<T>(rows * n, T(0)), at_end));
      }
      GemmBatchItem<T> it;
      const std::size_t base = keep.size() - 4;
      it.a = keep[base]->data();
      it.skip = keep[base + 1]->data();
      it.c = keep[base + 2]->data();
      it.c2 = keep[base + 3]->data();
      it.m = mi;
      items.push_back(it);
    }
    gemm_batched(items.data(), static_cast<int>(items.size()), gb.data(),
                 packed ? static_cast<const T*>(gbp.data()) : nullptr,
                 gbias.data(), n, k, Epilogue::BiasTanhSkip);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const char* kernel = packed ? "gemm_batched(packed)" : "gemm_batched";
      expect_close(keep[4 * i + 2]->values(), want_c[i], tol, kernel);
      expect_close(keep[4 * i + 3]->values(), want_c2[i], tol, kernel);
    }
  }

  if constexpr (std::is_same_v<T, float>) {
    // Reduced-precision weights: the oracle is gemm_ref over the rounded
    // weights, so only accumulation order separates the two.
    std::vector<Half> bh(kn);
    std::vector<Bf16> bb(kn);
    convert_to_half(b.data(), bh.data(), kn);
    convert_to_bf16(b.data(), bb.data(), kn);
    std::vector<float> b_round(kn);
    convert_to_float(bh.data(), b_round.data(), kn);
    gemm_ref(a.data(), b_round.data(), ref.data(), m, n, k);
    GuardedBuffer<Half> gbh(bh, at_end);
    run("gemm_halfw",
        [&](float* c) { gemm_halfw(ga.data(), gbh.data(), c, m, n, k); });
    convert_to_float(bb.data(), b_round.data(), kn);
    gemm_ref(a.data(), b_round.data(), ref.data(), m, n, k);
    GuardedBuffer<Bf16> gbb(bb, at_end);
    run("gemm_bf16w",
        [&](float* c) { gemm_bf16w(ga.data(), gbb.data(), c, m, n, k); });
  }
}

template <class T>
void guarded_sweep() {
  Rng rng(sizeof(T) == 8 ? 4242 : 2424);
  for (const bool at_end : {true, false}) {
    for (const int m : {1, 2, 3, 4, 5, 7, 8, 9, 17}) {
      for (const int n : {1, 2, 3, 5, 8, 9, 16, 17, 24, 25, 48, 50}) {
        for (const int k : {1, 2, 3, 5, 16, 257}) {
          std::ostringstream where;
          where << "m=" << m << " n=" << n << " k=" << k
                << (at_end ? " guard after" : " guard before");
          SCOPED_TRACE(where.str());
          guarded_sweep_one<T>(m, n, k, at_end, rng);
        }
      }
    }
  }
}

TEST(GemmGuardPages, EveryKernelStaysInBoundsDouble) {
  guarded_sweep<double>();
}

TEST(GemmGuardPages, EveryKernelStaysInBoundsFloat) { guarded_sweep<float>(); }

}  // namespace
}  // namespace dpmd::gemm
