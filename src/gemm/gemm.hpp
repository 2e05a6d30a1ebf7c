#pragma once

#include <cstddef>

#include "util/half.hpp"

namespace dpmd::gemm {

/// All matrices are dense row-major.  C (M x N) = alpha * A (M x K) *
/// op(B) + beta * C.  These kernels reproduce the paper's GEMM stack:
///
///  * gemm_ref       — textbook triple loop, the correctness oracle.
///  * gemm_blocked   — cache-tiled kernel standing in for the vendor BLAS
///                     ("Fugaku BLAS" / OpenBLAS in the paper).
///  * sve_gemm       — the paper's §III-B2 small-M kernel: for each row of A,
///                     broadcast a[m][k] and FMA row k of B into a vector
///                     accumulator.  Optimal for tall-skinny inputs (M <= 3)
///                     that dominate the strong-scaling regime of 1-2 atoms
///                     per core.  Implemented with portable vectorizable
///                     loops (SVE-512 intrinsics on Fugaku, compiler SIMD
///                     here; same algorithm, same data flow).
///  * gemm_nt_*      — B given transposed (N x K).  The paper measures NT as
///                     ~2x slower at small sizes, motivating the NT->NN
///                     pre-transposition of the fitting-net weights.
///  * gemm_halfw     — fp16-stored weights, fp32 accumulation ("fp16-sve-
///                     gemm"): the mixed-precision path for the first
///                     fitting-net layer (§III-B3).

template <class T>
void gemm_ref(const T* a, const T* b, T* c, int m, int n, int k,
              T alpha = T(1), T beta = T(0));

template <class T>
void gemm_nt_ref(const T* a, const T* bt, T* c, int m, int n, int k,
                 T alpha = T(1), T beta = T(0));

/// K-blocked since PR 2: the kKc-deep B panel of each column block stays
/// L1-resident across the row sweep, which is what the fitting net's
/// K = m1*m2 first layer needs (ROADMAP "K-blocking for very large K").
template <class T>
void gemm_blocked(const T* a, const T* b, T* c, int m, int n, int k,
                  T alpha = T(1), T beta = T(0));

/// C (M x N) = alpha * A^T B + beta * C with the A operand stored K x M
/// (leading dimension M).  The natural layout of the descriptor contraction
/// A = R~^T G (M = 4 environment components, K = packed neighbor rows) and
/// of the training weight gradient dW = x^T dy_lin (K = batch): both reduce
/// along the long packed dimension with no transposition or copy.
template <class T>
void gemm_tn(const T* at, const T* b, T* c, int m, int n, int k,
             T alpha = T(1), T beta = T(0));

/// Vectorized NT kernel (B stored N x K): K-unit-stride dot products, four
/// B rows per A-row pass.  Used by the dR = G dA^T descriptor backward
/// (N = 4, K = m1); gemm_nt_ref stays as the scalar oracle.
template <class T>
void gemm_nt(const T* a, const T* bt, T* c, int m, int n, int k,
             T alpha = T(1), T beta = T(0));

/// Width in bytes of the SIMD vectors the register tiles compute in: the
/// widest the build's target ISA offers (zmm on AVX-512, ymm on AVX/AVX2,
/// xmm otherwise).
#if defined(__AVX512F__)
inline constexpr int kVecBytes = 64;
#elif defined(__AVX__)
inline constexpr int kVecBytes = 32;
#else
inline constexpr int kVecBytes = 16;
#endif

/// Number of B columns one register tile spans (3 SIMD vectors of T); the
/// panel width of the packed-B layout below.
template <class T>
int gemm_panel_width();

/// Packs B (K x N row-major) for gemm_packed: full gemm_panel_width()
/// column panels stored panel-major (each panel K rows x NR contiguous),
/// then the n % NR remainder columns stored TRANSPOSED (each column a
/// contiguous K-vector).  dst must hold k*n elements.  Weight matrices are
/// packed once at DenseLayer::finalize and reused every step — the
/// ROADMAP's "packed-B variant" (unit-stride panel loads, no strided B
/// walk in the micro-kernel, remainder dots with no per-call transpose).
template <class T>
void pack_b(const T* b, T* dst, int k, int n);

/// C = alpha * A * B + beta * C with B in pack_b layout.  Same tiling as
/// gemm_blocked (K-blocked, register-tiled, row-remainder dispatch);
/// measurably faster on the embedding/fitting net shapes because every
/// B access in the hot loop is contiguous.
template <class T>
void gemm_packed(const T* a, const T* bp, T* c, int m, int n, int k,
                 T alpha = T(1), T beta = T(0));

template <class T>
void sve_gemm(const T* a, const T* b, T* c, int m, int n, int k,
              T alpha = T(1), T beta = T(0));

/// A is fp32, B is fp16-packed (row-major K x N), accumulate in fp32.
void gemm_halfw(const float* a, const Half* b_half, float* c, int m, int n,
                int k, float alpha = 1.0f, float beta = 0.0f);

/// A is fp32, B is bf16-stored (row-major K x N), accumulate in fp32: the
/// reduced-precision fitting path's weight GEMM (same widening-load scheme
/// as gemm_halfw, bf16's fp32-range exponent means trained weights never
/// saturate the way binary16 can).
void gemm_bf16w(const float* a, const Bf16* b_bf16, float* c, int m, int n,
                int k, float alpha = 1.0f, float beta = 0.0f);

/// GEMM-tail epilogue fused into gemm_batched's C writeback while the
/// output tile is register/L1 resident — the dense-layer bias/activation/
/// resnet passes (forward) and the act-grad/skip passes (backward) that
/// otherwise each re-stream the full M x N slab.  With acc the completed
/// GEMM sum of an element (alpha = 1, beta = 0 semantics):
///
///  | epilogue     | c                   | c2 (optional)            |
///  |--------------|---------------------|--------------------------|
///  | None         | acc                 | untouched                |
///  | Bias         | acc + bias[j]       | copy of c                |
///  | BiasTanh     | tanh(acc + bias[j]) | copy of c                |
///  | BiasTanhSkip | tanh(acc + bias[j]) | c + skip[j]              |
///  | Grad         | acc                 | c2 <- c * (1 - c2^2)     |
///  | GradSkip     | acc + skip[j]       | c2 <- c * (1 - c2^2)     |
///
/// Forward layers write the pre-skip activation to c (the h cache) and the
/// resnet output to c2 (the activation slab); backward layers write dx to c
/// (skip = the incoming dy for Identity resnets) and transform c2 — the
/// NEXT layer down's h cache — into its dy_lin in place, so the act-grad
/// sweep of the following backward step never runs.  The element order of
/// every epilogue matches DenseLayer's unfused row passes exactly, so fused
/// and unfused results are bitwise identical.
enum class Epilogue { None, Bias, BiasTanh, BiasTanhSkip, Grad, GradSkip };

/// One operand set of a gemm_batched sweep: strided slabs sharing B.
template <class T>
struct GemmBatchItem {
  const T* a = nullptr;    ///< m x k row-major (lda = k)
  T* c = nullptr;          ///< m x n primary output (ldc = n)
  T* c2 = nullptr;         ///< m x n secondary output (see Epilogue table)
  const T* skip = nullptr; ///< m x n skip operand (BiasTanhSkip / GradSkip)
  int m = 0;
};

/// Multi-block batched GEMM driver (the fitting-net fast path): C_i =
/// epilogue(A_i * B) for every item against ONE shared B, so a sweep's
/// blocks run a layer back-to-back — the weight panels stream from cache
/// once per call instead of once per block.  Per-item shape dispatch
/// mirrors gemm_auto exactly (m <= kSmallMThreshold -> sve_gemm when
/// small_m_sve, else the packed/blocked K-chunked register tiling), and
/// epilogues are applied to each output tile right after its last K chunk,
/// preserving gemm_auto's per-element accumulation order — a batched item
/// is bitwise identical to its standalone gemm_auto + unfused-epilogue run.
/// `b` is the raw row-major K x N operand (always required); `b_packed` its
/// pack_b form or nullptr; `bias` (length n) may be nullptr for the
/// bias-free epilogues.
template <class T>
void gemm_batched(const GemmBatchItem<T>* items, int nitems, const T* b,
                  const T* b_packed, const T* bias, int n, int k, Epilogue ep,
                  bool small_m_sve = true);

/// Dispatch used by the fitting net: sve_gemm for M <= threshold (paper: the
/// SVE kernel is activated when M <= 3), blocked otherwise.
inline constexpr int kSmallMThreshold = 3;

/// Packed-aware dispatch: small-M shapes go to sve_gemm, larger ones to
/// gemm_packed when a pack_b form of B is supplied (b_packed may be null)
/// and gemm_blocked otherwise.  The ONE place the threshold policy lives.
template <class T>
void gemm_auto(const T* a, const T* b, const T* b_packed, T* c, int m, int n,
               int k, T alpha = T(1), T beta = T(0)) {
  if (m <= kSmallMThreshold) {
    sve_gemm(a, b, c, m, n, k, alpha, beta);
  } else if (b_packed != nullptr) {
    gemm_packed(a, b_packed, c, m, n, k, alpha, beta);
  } else {
    gemm_blocked(a, b, c, m, n, k, alpha, beta);
  }
}

template <class T>
void gemm_auto(const T* a, const T* b, T* c, int m, int n, int k,
               T alpha = T(1), T beta = T(0)) {
  gemm_auto(a, b, static_cast<const T*>(nullptr), c, m, n, k, alpha, beta);
}

/// dst (cols x rows) = transpose of src (rows x cols); used once at model
/// load to convert every fitting-net NT product into NN form.
template <class T>
void transpose(const T* src, T* dst, int rows, int cols);

extern template void gemm_ref<float>(const float*, const float*, float*, int,
                                     int, int, float, float);
extern template void gemm_ref<double>(const double*, const double*, double*,
                                      int, int, int, double, double);
extern template void gemm_nt_ref<float>(const float*, const float*, float*,
                                        int, int, int, float, float);
extern template void gemm_nt_ref<double>(const double*, const double*, double*,
                                         int, int, int, double, double);
extern template void gemm_blocked<float>(const float*, const float*, float*,
                                         int, int, int, float, float);
extern template void gemm_blocked<double>(const double*, const double*,
                                          double*, int, int, int, double,
                                          double);
extern template void gemm_tn<float>(const float*, const float*, float*, int,
                                    int, int, float, float);
extern template void gemm_tn<double>(const double*, const double*, double*,
                                     int, int, int, double, double);
extern template void gemm_nt<float>(const float*, const float*, float*, int,
                                    int, int, float, float);
extern template void gemm_nt<double>(const double*, const double*, double*,
                                     int, int, int, double, double);
extern template int gemm_panel_width<float>();
extern template int gemm_panel_width<double>();
extern template void pack_b<float>(const float*, float*, int, int);
extern template void pack_b<double>(const double*, double*, int, int);
extern template void gemm_packed<float>(const float*, const float*, float*,
                                        int, int, int, float, float);
extern template void gemm_packed<double>(const double*, const double*,
                                         double*, int, int, int, double,
                                         double);
extern template void sve_gemm<float>(const float*, const float*, float*, int,
                                     int, int, float, float);
extern template void sve_gemm<double>(const double*, const double*, double*,
                                      int, int, int, double, double);
extern template void gemm_batched<float>(const GemmBatchItem<float>*, int,
                                         const float*, const float*,
                                         const float*, int, int, Epilogue,
                                         bool);
extern template void gemm_batched<double>(const GemmBatchItem<double>*, int,
                                          const double*, const double*,
                                          const double*, int, int, Epilogue,
                                          bool);
extern template void transpose<float>(const float*, float*, int, int);
extern template void transpose<double>(const double*, double*, int, int);

}  // namespace dpmd::gemm
