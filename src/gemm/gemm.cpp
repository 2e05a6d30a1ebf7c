#include "gemm/gemm.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/vtanh.hpp"

namespace dpmd::gemm {

template <class T>
void gemm_ref(const T* a, const T* b, T* c, int m, int n, int k, T alpha,
              T beta) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc = 0;
      for (int p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] = alpha * acc + beta * c[i * n + j];
    }
  }
}

template <class T>
void gemm_nt_ref(const T* a, const T* bt, T* c, int m, int n, int k, T alpha,
                 T beta) {
  // bt is N x K: c[i][j] = sum_p a[i][p] * bt[j][p].  The strided access to
  // bt is the reason the paper's measurements show NT at ~half the NN speed
  // for small matrices.
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      T acc = 0;
      for (int p = 0; p < k; ++p) acc += a[i * k + p] * bt[j * k + p];
      c[i * n + j] = alpha * acc + beta * c[i * n + j];
    }
  }
}

namespace {
/// Shared beta prologue: C = beta * C applied once before the accumulating
/// tile sweeps (fill on beta == 0, in-place scale otherwise).
template <class T>
inline void scale_c(T* c, std::size_t len, T beta) {
  if (beta == T(0)) {
    std::fill(c, c + len, T(0));
  } else if (beta != T(1)) {
    for (std::size_t i = 0; i < len; ++i) c[i] *= beta;
  }
}

// K-chunk depth of the blocked kernels: each column panel's kKc x NR slice
// of B stays cache-resident across the whole row sweep.  Chosen for the
// ~48 KiB L1 / 2 MiB L2 of the build hosts; the exact value is not
// load-bearing for the reproduction (the paper uses the vendor BLAS here),
// only the "generic blocked kernel" behaviour is.
constexpr int kKc = 256;

/// Register-tile geometry: NR spans 3 SIMD vectors of the target ISA and MR
/// rows share each B row, so the accumulator tile (MR x 3 vectors), the 3
/// B vectors and the broadcast A value fit the register file: 24 + 3 + 1 of
/// 32 zmm on AVX-512, 12 + 3 + 1 of 16 ymm on AVX/AVX2 and of 16 xmm
/// otherwise.  `vec` is the explicit vector type the tiles compute in, so
/// the width is fixed in the code rather than left to the auto-vectorizer
/// (GCC 12 at -O3 -march=native vectorized a scalar 8 x 24 fp64 tile with
/// ymm: 48 accumulators for 32 registers, the rest spilled to the stack
/// inside the K loop).
template <class T>
struct TileShape {
  static constexpr int mr = kVecBytes == 64 ? 8 : 4;
  typedef T vec __attribute__((vector_size(kVecBytes)));
  static constexpr int lanes = kVecBytes / static_cast<int>(sizeof(T));
  static constexpr int nr = 3 * lanes;
};

/// Unaligned vector load/store (memcpy compiles to one vmovu).
template <class T>
inline typename TileShape<T>::vec load_vec(const T* p) {
  typename TileShape<T>::vec v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <class T>
inline void store_vec(T* p, typename TileShape<T>::vec v) {
  std::memcpy(p, &v, sizeof v);
}

/// C tile += alpha * acc, one vector at a time: the same per-element
/// `c += alpha * acc` the scalar writeback computed.
template <class T, int MR, int NV>
inline void store_tile(const typename TileShape<T>::vec (&acc)[MR][NV],
                       T* __restrict c, int ldc, T alpha) {
  constexpr int W = TileShape<T>::lanes;
  for (int i = 0; i < MR; ++i) {
    T* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int v = 0; v < NV; ++v) {
      store_vec(crow + v * W, load_vec(crow + v * W) + alpha * acc[i][v]);
    }
  }
}

/// Register-tiled MR x NR micro-kernel: the accumulator tile lives in
/// registers for the whole K sweep, so each B row load feeds MR FMAs and C
/// traffic drops from one store per k-step to one per tile.  This is what
/// makes the M >= MR regime (the batched evaluation pipeline's fitting
/// GEMMs, §III-B) run at high arithmetic intensity; M < MR callers are
/// served by sve_gemm instead.  A is row-major with leading dimension lda
/// (gemm_blocked, gemm_packed, gemm_batched); the K x M stored operand of
/// gemm_tn has its own tile, tn_tile below.  Every element accumulates
/// acc += a[i][p] * b[p][j] in ascending p, one lane of one vector FMA.
template <class T, int MR, int NR>
inline void micro_tile(const T* __restrict a, const T* __restrict b,
                       T* __restrict c, int k, int lda, int ldb, int ldc,
                       T alpha) {
  using V = typename TileShape<T>::vec;
  constexpr int W = TileShape<T>::lanes;
  constexpr int NV = NR / W;
  static_assert(NR % W == 0, "tile width must be whole vectors");
  V acc[MR][NV] = {};
  for (int p = 0; p < k; ++p) {
    const T* __restrict brow = b + static_cast<std::size_t>(p) * ldb;
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load_vec(brow + v * W);
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
    for (int i = 0; i < MR; ++i) {
      const T av = a[static_cast<std::size_t>(i) * lda + p];
      for (int v = 0; v < NV; ++v) acc[i][v] += av * bv[v];
    }
  }
  store_tile<T, MR, NV>(acc, c, ldc, alpha);
}

/// gemm_tn's MR x NR register tile over the K x M stored operand: the MR
/// A values of step p are contiguous in row p (stride lda = M between
/// rows), so each step copies them as one MR-element block and broadcasts
/// from that copy.  Reading them element-wise (a strided a[i + p * lda]
/// walk, or a plain av[i] = arow[i] loop) let GCC 12's -O3 -march=native
/// SLP vectorizer widen the load with row p + 1, which reads one K row
/// past the operand on the last step: a fault at (m, n, k) = (4, 8, 1) in
/// the guard-page tests.  The block copy compiles to embedded broadcasts
/// of exactly the MR values.  Inlined into gemm_tn's column loops: as an
/// out-of-line call (k unknown, possibly 0) GCC kept the accumulator array
/// in a stack slot it zeroed, reloaded and stored around every K sweep.
template <class T, int MR, int NR>
[[gnu::always_inline]] inline void tn_tile(const T* __restrict at,
                                           const T* __restrict b,
                                           T* __restrict c, int k, int lda,
                                           int ldb, int ldc, T alpha) {
  using V = typename TileShape<T>::vec;
  constexpr int W = TileShape<T>::lanes;
  constexpr int NV = NR / W;
  static_assert(NR % W == 0, "tile width must be whole vectors");
  V acc[MR][NV] = {};
  for (int p = 0; p < k; ++p) {
    const T* __restrict brow = b + static_cast<std::size_t>(p) * ldb;
    V bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = load_vec(brow + v * W);
    T av[MR];
    std::memcpy(av, at + static_cast<std::size_t>(p) * lda, sizeof av);
#if defined(__GNUC__)
#pragma GCC unroll 8
#endif
    for (int i = 0; i < MR; ++i) {
      for (int v = 0; v < NV; ++v) acc[i][v] += av[i] * bv[v];
    }
  }
  store_tile<T, MR, NV>(acc, c, ldc, alpha);
}

/// Row-remainder dispatch: the m % MR edge rows still run register-tiled
/// (micro_tile at the exact residual height) instead of through a scalar
/// sweep — at fitting-block sizes like M = 21 the edge rows are a seventh
/// of the work.
template <class T, int NR>
inline void micro_rows(const T* a, const T* b, T* c, int mr, int k, int lda,
                       int ldb, int ldc, T alpha) {
  static_assert(TileShape<T>::mr <= 8,
                "micro_rows dispatch covers residues up to 7; extend the "
                "switch before widening the register tile");
  switch (mr) {
    case 1: micro_tile<T, 1, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 2: micro_tile<T, 2, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 3: micro_tile<T, 3, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 4: micro_tile<T, 4, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 5: micro_tile<T, 5, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 6: micro_tile<T, 6, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    case 7: micro_tile<T, 7, NR>(a, b, c, k, lda, ldb, ldc, alpha); break;
    default: break;
  }
}

/// Column-remainder panel: C[:, j0:j0+nc] += alpha * A * B[:, j0:j0+nc] with
/// nc < NR, computed as NT dot products against a transposed copy of the B
/// slice so every reduction streams unit-stride (the strided ikj sweep this
/// replaces serialized on the C column and cost the embedding GEMMs ~40% at
/// N = 50/100, whose remainders are 2 and 4 columns).
template <class T>
void skinny_panel(const T* a, const T* b, T* c, int m, int nc, int k, int ldb,
                  int ldc, T alpha) {
  thread_local std::vector<T> btbuf;
  btbuf.resize(static_cast<std::size_t>(nc) * k);
  for (int p = 0; p < k; ++p) {
    const T* brow = b + static_cast<std::size_t>(p) * ldb;
    for (int j = 0; j < nc; ++j) {
      btbuf[static_cast<std::size_t>(j) * k + p] = brow[j];
    }
  }
  for (int i = 0; i < m; ++i) {
    const T* __restrict arow = a + static_cast<std::size_t>(i) * k;
    T* crow = c + static_cast<std::size_t>(i) * ldc;
    for (int j = 0; j < nc; ++j) {
      const T* __restrict btrow = btbuf.data() + static_cast<std::size_t>(j) * k;
      T acc = 0;
#pragma omp simd reduction(+ : acc)
      for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
      crow[j] += alpha * acc;
    }
  }
}
}  // namespace

template <class T>
void gemm_blocked(const T* a, const T* b, T* c, int m, int n, int k, T alpha,
                  T beta) {
  if (k == 1 && n > 1) {
    // Rank-1 outer product (the embedding net's 1 -> width first layer):
    // beta folds into a single write pass per row instead of a separate
    // C-scale sweep plus tile accumulate.
    for (int i = 0; i < m; ++i) {
      const T av = alpha * a[i];
      T* __restrict crow = c + static_cast<std::size_t>(i) * n;
      const T* __restrict brow = b;
      if (beta == T(0)) {
#pragma omp simd
        for (int j = 0; j < n; ++j) crow[j] = av * brow[j];
      } else {
#pragma omp simd
        for (int j = 0; j < n; ++j) crow[j] = av * brow[j] + beta * crow[j];
      }
    }
    return;
  }
  // Scale C by beta once up front.
  scale_c(c, static_cast<std::size_t>(m) * n, beta);
  if (n == 1) {
    // Matrix-vector: one reduction per row (a strided column sweep would
    // serialize on the single C element).  B is contiguous since ldb == 1.
    for (int i = 0; i < m; ++i) {
      const T* __restrict arow = a + static_cast<std::size_t>(i) * k;
      T acc = 0;
#pragma omp simd reduction(+ : acc)
      for (int p = 0; p < k; ++p) acc += arow[p] * b[p];
      c[i] += alpha * acc;
    }
    return;
  }
  constexpr int MR = TileShape<T>::mr;
  constexpr int NR = TileShape<T>::nr;
  const int n_main = n - n % NR;
  const int m_main = m - m % MR;
  // K-blocked: the kKc-deep B panel of each jc column stays L1-resident
  // across the whole ic sweep (at K ~ the fitting net's m1*m2 = 1600 the
  // unblocked panel is ~20x the L1).  micro_tile accumulates into C, so the
  // pc chunks add up; beta was already applied above.
  for (int pc = 0; pc < k; pc += kKc) {
    const int kc = std::min(kKc, k - pc);
    const T* ap = a + pc;
    const T* bp = b + static_cast<std::size_t>(pc) * n;
    for (int jc = 0; jc < n_main; jc += NR) {
      for (int ic = 0; ic < m_main; ic += MR) {
        micro_tile<T, MR, NR>(ap + static_cast<std::size_t>(ic) * k, bp + jc,
                              c + static_cast<std::size_t>(ic) * n + jc, kc,
                              k, n, n, alpha);
      }
      if (m_main < m) {
        micro_rows<T, NR>(ap + static_cast<std::size_t>(m_main) * k, bp + jc,
                          c + static_cast<std::size_t>(m_main) * n + jc,
                          m - m_main, kc, k, n, n, alpha);
      }
    }
  }
  if (n_main < n) {
    // Remaining n % NR columns: unit-stride dot products over the full K
    // (see skinny_panel — this path carried the embedding layers' 2- and
    // 4-column remainders).
    skinny_panel(a, b + n_main, c + n_main, m, n - n_main, k, n, n, alpha);
  }
}

template <class T>
void gemm_tn(const T* at, const T* b, T* c, int m, int n, int k, T alpha,
             T beta) {
  // C (M x N) = alpha * A^T B + beta * C with A stored K x M: the shape of
  // the descriptor contraction A = R~^T G (M = 4, K = neighbor rows) and of
  // the training weight gradient dW = x^T dy (K = batch).  Each K step's
  // MR A values are a contiguous slice of stored row p (tn_tile) — no
  // transposition or packing.
  scale_c(c, static_cast<std::size_t>(m) * n, beta);
  constexpr int MR = 4;  // matches the 4-row environment-matrix operand
  constexpr int NR = TileShape<T>::nr;
  // One vector of columns; narrow-N shapes (D = A^T A at N = m2 = 16) stay
  // register-tiled instead of dropping to the scalar edge sweep.
  constexpr int NV = TileShape<T>::lanes;
  const int n_main = n - n % NR;
  const int n_vec = n - n % NV;
  const int m_main = m - m % MR;
  for (int ic = 0; ic < m_main; ic += MR) {
    const T* arow = at + ic;
    T* crow = c + static_cast<std::size_t>(ic) * n;
    for (int jc = 0; jc < n_main; jc += NR) {
      tn_tile<T, MR, NR>(arow, b + jc, crow + jc, k, m, n, n, alpha);
    }
    for (int jc = n_main; jc < n_vec; jc += NV) {
      tn_tile<T, MR, NV>(arow, b + jc, crow + jc, k, m, n, n, alpha);
    }
  }
  // Edges (m % 4 rows and n % NV columns): axpy sweep over the K rows.
  const auto edge = [&](int i0, int i1, int j0, int j1) {
    for (int p = 0; p < k; ++p) {
      const T* __restrict atrow = at + static_cast<std::size_t>(p) * m;
      const T* __restrict brow = b + static_cast<std::size_t>(p) * n;
      for (int i = i0; i < i1; ++i) {
        const T av = alpha * atrow[i];
        T* __restrict crow = c + static_cast<std::size_t>(i) * n;
#pragma omp simd
        for (int j = j0; j < j1; ++j) crow[j] += av * brow[j];
      }
    }
  };
  if (m_main < m) edge(m_main, m, 0, n_vec);
  if (n_vec < n) edge(0, m, n_vec, n);
}

template <class T>
void gemm_nt(const T* a, const T* bt, T* c, int m, int n, int k, T alpha,
             T beta) {
  // B given transposed (N x K): both operands stream unit-stride along K,
  // so each C element is a vectorizable dot product.  Four B rows are
  // reduced together per A row to share the A loads; this replaces the
  // scalar gemm_nt_ref for the dR = G dA^T contraction (N = 4, K = m1).
  for (int i = 0; i < m; ++i) {
    const T* __restrict arow = a + static_cast<std::size_t>(i) * k;
    T* crow = c + static_cast<std::size_t>(i) * n;
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const T* __restrict b0 = bt + static_cast<std::size_t>(j) * k;
      const T* __restrict b1 = b0 + k;
      const T* __restrict b2 = b1 + k;
      const T* __restrict b3 = b2 + k;
      T s0 = 0, s1 = 0, s2 = 0, s3 = 0;
#pragma omp simd reduction(+ : s0, s1, s2, s3)
      for (int p = 0; p < k; ++p) {
        const T av = arow[p];
        s0 += av * b0[p];
        s1 += av * b1[p];
        s2 += av * b2[p];
        s3 += av * b3[p];
      }
      const T base0 = beta == T(0) ? T(0) : beta * crow[j + 0];
      const T base1 = beta == T(0) ? T(0) : beta * crow[j + 1];
      const T base2 = beta == T(0) ? T(0) : beta * crow[j + 2];
      const T base3 = beta == T(0) ? T(0) : beta * crow[j + 3];
      crow[j + 0] = alpha * s0 + base0;
      crow[j + 1] = alpha * s1 + base1;
      crow[j + 2] = alpha * s2 + base2;
      crow[j + 3] = alpha * s3 + base3;
    }
    for (; j < n; ++j) {
      const T* __restrict brow = bt + static_cast<std::size_t>(j) * k;
      T acc = 0;
#pragma omp simd reduction(+ : acc)
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = alpha * acc + (beta == T(0) ? T(0) : beta * crow[j]);
    }
  }
}

template <class T>
int gemm_panel_width() {
  return TileShape<T>::nr;
}

template <class T>
void pack_b(const T* b, T* dst, int k, int n) {
  const int NR = TileShape<T>::nr;
  const int n_main = n - n % NR;
  for (int j0 = 0; j0 < n_main; j0 += NR) {
    T* panel = dst + static_cast<std::size_t>(j0) * k;
    for (int p = 0; p < k; ++p) {
      const T* brow = b + static_cast<std::size_t>(p) * n + j0;
      T* out = panel + static_cast<std::size_t>(p) * NR;
      for (int j = 0; j < NR; ++j) out[j] = brow[j];
    }
  }
  // Remainder columns, transposed: column j is a contiguous K-vector.
  T* tail = dst + static_cast<std::size_t>(n_main) * k;
  for (int j = n_main; j < n; ++j) {
    for (int p = 0; p < k; ++p) {
      tail[static_cast<std::size_t>(j - n_main) * k + p] =
          b[static_cast<std::size_t>(p) * n + j];
    }
  }
}

template <class T>
void gemm_packed(const T* a, const T* bp, T* c, int m, int n, int k, T alpha,
                 T beta) {
  if (k == 1 && n > 1) {
    // At K = 1 the packed layout degenerates to the plain B row; reuse the
    // rank-1 single-pass path.
    gemm_blocked(a, bp, c, m, n, k, alpha, beta);
    return;
  }
  scale_c(c, static_cast<std::size_t>(m) * n, beta);
  constexpr int MR = TileShape<T>::mr;
  constexpr int NR = TileShape<T>::nr;
  const int n_main = n - n % NR;
  const int m_main = m - m % MR;
  for (int pc = 0; pc < k; pc += kKc) {
    const int kc = std::min(kKc, k - pc);
    const T* ap = a + pc;
    for (int jc = 0; jc < n_main; jc += NR) {
      // Panel jc: rows contiguous at stride NR; pc selects the row range.
      const T* panel = bp + static_cast<std::size_t>(jc) * k +
                       static_cast<std::size_t>(pc) * NR;
      for (int ic = 0; ic < m_main; ic += MR) {
        micro_tile<T, MR, NR>(ap + static_cast<std::size_t>(ic) * k, panel,
                              c + static_cast<std::size_t>(ic) * n + jc, kc,
                              k, NR, n, alpha);
      }
      if (m_main < m) {
        micro_rows<T, NR>(ap + static_cast<std::size_t>(m_main) * k, panel,
                          c + static_cast<std::size_t>(m_main) * n + jc,
                          m - m_main, kc, k, NR, n, alpha);
      }
    }
  }
  if (n_main < n) {
    // Remainder columns are stored transposed: unit-stride dots over full K.
    const T* tail = bp + static_cast<std::size_t>(n_main) * k;
    for (int i = 0; i < m; ++i) {
      const T* __restrict arow = a + static_cast<std::size_t>(i) * k;
      T* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = n_main; j < n; ++j) {
        const T* __restrict btrow =
            tail + static_cast<std::size_t>(j - n_main) * k;
        T acc = 0;
#pragma omp simd reduction(+ : acc)
        for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
        crow[j] += alpha * acc;
      }
    }
  }
}

template <class T>
void sve_gemm(const T* a, const T* b, T* c, int m, int n, int k, T alpha,
              T beta) {
  // Paper §III-B2: "each element i in each row of matrix A multiplies with
  // all the elements in row i of matrix B, and sum the result with the
  // previous row result via MLA": an outer-product accumulation that keeps
  // the C row resident in vector registers for the whole K loop.  With
  // M <= 3 the working set is tiny and the inner loop is a pure stream of
  // FMAs over unit-stride B rows — which is what SVE-512 (and any SIMD ISA)
  // executes at near peak.
  for (int i = 0; i < m; ++i) {
    T* __restrict crow = c + static_cast<std::size_t>(i) * n;
    if (beta == T(0)) {
      std::fill(crow, crow + n, T(0));
    } else if (beta != T(1)) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
    const T* arow = a + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const T av = alpha * arow[p];
      const T* __restrict brow = b + static_cast<std::size_t>(p) * n;
#pragma omp simd
      for (int j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_halfw(const float* a, const Half* b_half, float* c, int m, int n,
                int k, float alpha, float beta) {
  // fp16-stored B, fp32 accumulation.  B rows are expanded to fp32 once per
  // row (the conversion cost is amortized over all M rows via the row-major
  // loop order below, matching the fp16-sve-gemm's widening loads).  The
  // row buffer is per-thread scratch (as in skinny_panel): DenseLayer runs
  // this every reduced-precision step, which must not allocate.
  thread_local std::vector<float> brow_f;
  brow_f.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    float* __restrict crow = c + static_cast<std::size_t>(i) * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  for (int p = 0; p < k; ++p) {
    convert_to_float(b_half + static_cast<std::size_t>(p) * n, brow_f.data(),
                     static_cast<std::size_t>(n));
    for (int i = 0; i < m; ++i) {
      const float av = alpha * a[static_cast<std::size_t>(i) * k + p];
      float* __restrict crow = c + static_cast<std::size_t>(i) * n;
      const float* __restrict br = brow_f.data();
#pragma omp simd
      for (int j = 0; j < n; ++j) crow[j] += av * br[j];
    }
  }
}

void gemm_bf16w(const float* a, const Bf16* b_bf16, float* c, int m, int n,
                int k, float alpha, float beta) {
  // bf16-stored B, fp32 accumulation: same row-expansion scheme as
  // gemm_halfw (one widening pass per B row, amortized over all M rows),
  // same per-thread row scratch.
  thread_local std::vector<float> brow_f;
  brow_f.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < m; ++i) {
    float* __restrict crow = c + static_cast<std::size_t>(i) * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  for (int p = 0; p < k; ++p) {
    convert_to_float(b_bf16 + static_cast<std::size_t>(p) * n, brow_f.data(),
                     static_cast<std::size_t>(n));
    for (int i = 0; i < m; ++i) {
      const float av = alpha * a[static_cast<std::size_t>(i) * k + p];
      float* __restrict crow = c + static_cast<std::size_t>(i) * n;
      const float* __restrict br = brow_f.data();
#pragma omp simd
      for (int j = 0; j < n; ++j) crow[j] += av * br[j];
    }
  }
}

namespace {

/// Applies a fused epilogue (table in gemm.hpp) to rows [i0, i1) x columns
/// [j0, j1) of one item, with the GEMM accumulation of that region already
/// complete in c.  Row segments are contiguous, so the bias/tanh/skip
/// passes vectorize exactly like DenseLayer's unfused row sweeps — and
/// since every op is elementwise, segment-at-a-time application after each
/// output tile is bitwise identical to the full-slab passes it replaces.
template <class T>
void apply_epilogue(Epilogue ep, const GemmBatchItem<T>& it, const T* bias,
                    int n, int i0, int i1, int j0, int j1) {
  if (ep == Epilogue::None) return;
  const int len = j1 - j0;
  for (int r = i0; r < i1; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * n + j0;
    T* __restrict cr = it.c + off;
    switch (ep) {
      case Epilogue::None:
        break;
      case Epilogue::Bias:
      case Epilogue::BiasTanh:
      case Epilogue::BiasTanhSkip: {
        const T* __restrict bi = bias + j0;
#pragma omp simd
        for (int j = 0; j < len; ++j) cr[j] += bi[j];
        if (ep != Epilogue::Bias) vtanh(cr, static_cast<std::size_t>(len));
        if (ep == Epilogue::BiasTanhSkip) {
          T* __restrict c2r = it.c2 + off;
          const T* __restrict sk = it.skip + off;
#pragma omp simd
          for (int j = 0; j < len; ++j) c2r[j] = cr[j] + sk[j];
        } else if (it.c2 != nullptr) {
          T* __restrict c2r = it.c2 + off;
          for (int j = 0; j < len; ++j) c2r[j] = cr[j];
        }
        break;
      }
      case Epilogue::GradSkip: {
        const T* __restrict sk = it.skip + off;
#pragma omp simd
        for (int j = 0; j < len; ++j) cr[j] += sk[j];
        [[fallthrough]];
      }
      case Epilogue::Grad:
        if (it.c2 != nullptr) {
          // c2 holds the next layer down's cached tanh output; transform it
          // in place into that layer's dy_lin (dy * (1 - h^2)).
          T* __restrict c2r = it.c2 + off;
#pragma omp simd
          for (int j = 0; j < len; ++j) {
            c2r[j] = cr[j] * (T(1) - c2r[j] * c2r[j]);
          }
        }
        break;
    }
  }
}

/// One item of a gemm_batched sweep.  The dispatch ladder and the loop
/// structure of each rung mirror gemm_auto's callees exactly; the only
/// addition is the epilogue applied to each output region right after its
/// accumulation completes (last K chunk for the tiled path), while the
/// region is still cache-hot.
template <class T>
void batched_one(const GemmBatchItem<T>& it, const T* b, const T* bp,
                 const T* bias, int n, int k, Epilogue ep, bool small_m_sve) {
  const int m = it.m;
  if (m <= 0) return;
  T* c = it.c;
  if (small_m_sve && m <= kSmallMThreshold) {
    sve_gemm(it.a, b, c, m, n, k, T(1), T(0));
    apply_epilogue(ep, it, bias, n, 0, m, 0, n);
    return;
  }
  if (k == 1 && n > 1) {
    // Rank-1 (the fitting head's backward: dy (m x 1) times wt (1 x n)):
    // one write pass per row, epilogue applied while the row is hot.
    for (int i = 0; i < m; ++i) {
      const T av = it.a[i];
      T* __restrict crow = c + static_cast<std::size_t>(i) * n;
      const T* __restrict brow = b;
#pragma omp simd
      for (int j = 0; j < n; ++j) crow[j] = av * brow[j];
      apply_epilogue(ep, it, bias, n, i, i + 1, 0, n);
    }
    return;
  }
  if (n == 1) {
    // Matrix-vector (the fitting head's forward): one dot per row.
    for (int i = 0; i < m; ++i) {
      const T* __restrict arow = it.a + static_cast<std::size_t>(i) * k;
      T acc = 0;
#pragma omp simd reduction(+ : acc)
      for (int p = 0; p < k; ++p) acc += arow[p] * b[p];
      c[i] = acc;
    }
    apply_epilogue(ep, it, bias, 1, 0, m, 0, 1);
    return;
  }
  scale_c(c, static_cast<std::size_t>(m) * n, T(0));
  constexpr int MR = TileShape<T>::mr;
  constexpr int NR = TileShape<T>::nr;
  const int n_main = n - n % NR;
  const int m_main = m - m % MR;
  for (int pc = 0; pc < k; pc += kKc) {
    const int kc = std::min(kKc, k - pc);
    const bool last = pc + kc == k;
    const T* ap = it.a + pc;
    for (int jc = 0; jc < n_main; jc += NR) {
      const T* panel;
      int ldb;
      if (bp != nullptr) {
        panel = bp + static_cast<std::size_t>(jc) * k +
                static_cast<std::size_t>(pc) * NR;
        ldb = NR;
      } else {
        panel = b + static_cast<std::size_t>(pc) * n + jc;
        ldb = n;
      }
      for (int ic = 0; ic < m_main; ic += MR) {
        micro_tile<T, MR, NR>(ap + static_cast<std::size_t>(ic) * k, panel,
                              c + static_cast<std::size_t>(ic) * n + jc, kc,
                              k, ldb, n, T(1));
        if (last) apply_epilogue(ep, it, bias, n, ic, ic + MR, jc, jc + NR);
      }
      if (m_main < m) {
        micro_rows<T, NR>(ap + static_cast<std::size_t>(m_main) * k, panel,
                          c + static_cast<std::size_t>(m_main) * n + jc,
                          m - m_main, kc, k, ldb, n, T(1));
        if (last) apply_epilogue(ep, it, bias, n, m_main, m, jc, jc + NR);
      }
    }
  }
  if (n_main < n) {
    // Remainder columns: full-K unit-stride dots (the packed tail is stored
    // transposed; the raw layout goes through the skinny transpose buffer),
    // then the epilogue over the completed tail region.
    if (bp != nullptr) {
      const T* tail = bp + static_cast<std::size_t>(n_main) * k;
      for (int i = 0; i < m; ++i) {
        const T* __restrict arow = it.a + static_cast<std::size_t>(i) * k;
        T* crow = c + static_cast<std::size_t>(i) * n;
        for (int j = n_main; j < n; ++j) {
          const T* __restrict btrow =
              tail + static_cast<std::size_t>(j - n_main) * k;
          T acc = 0;
#pragma omp simd reduction(+ : acc)
          for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
          crow[j] += acc;
        }
      }
    } else {
      skinny_panel(it.a, b + n_main, c + n_main, m, n - n_main, k, n, n,
                   T(1));
    }
    apply_epilogue(ep, it, bias, n, 0, m, n_main, n);
  }
}

}  // namespace

template <class T>
void gemm_batched(const GemmBatchItem<T>* items, int nitems, const T* b,
                  const T* b_packed, const T* bias, int n, int k, Epilogue ep,
                  bool small_m_sve) {
  // Special shapes (k == 1 rank-1 rows, n == 1 dots) have no B panels worth
  // sharing; run them per item through the mirrored dispatch ladder.
  if (k == 1 || n == 1) {
    for (int i = 0; i < nitems; ++i) {
      batched_one(items[i], b, b_packed, bias, n, k, ep, small_m_sve);
    }
    return;
  }
  thread_local std::vector<int> tiled;
  tiled.clear();
  for (int i = 0; i < nitems; ++i) {
    if (items[i].m <= 0) continue;
    if (small_m_sve && items[i].m <= kSmallMThreshold) {
      batched_one(items[i], b, b_packed, bias, n, k, ep, small_m_sve);
    } else {
      tiled.push_back(i);
    }
  }
  if (tiled.empty()) return;
  // Jointly tiled rung — the point of the multi-block sweep: the items'
  // row-tile loops run INSIDE the shared (pc, jc) panel loops, so each B
  // panel streams from memory once per sweep instead of once per item.  At
  // the fitting sweep's per-block M of ~20-50 a lone block reuses a panel
  // over only m/MR row tiles, which leaves the big-K layers bound on B
  // traffic; the sweep multiplies that reuse by the number of blocks.  Each
  // item's C element still accumulates its pc chunks in ascending order
  // through the same micro-kernels, so per-item results are bitwise
  // identical to a lone batched_one (and to gemm_blocked + unfused
  // epilogue passes).
  constexpr int MR = TileShape<T>::mr;
  constexpr int NR = TileShape<T>::nr;
  const int n_main = n - n % NR;
  for (const int idx : tiled) {
    scale_c(items[idx].c, static_cast<std::size_t>(items[idx].m) * n, T(0));
  }
  for (int pc = 0; pc < k; pc += kKc) {
    const int kc = std::min(kKc, k - pc);
    const bool last = pc + kc == k;
    for (int jc = 0; jc < n_main; jc += NR) {
      const T* panel;
      int ldb;
      if (b_packed != nullptr) {
        panel = b_packed + static_cast<std::size_t>(jc) * k +
                static_cast<std::size_t>(pc) * NR;
        ldb = NR;
      } else {
        panel = b + static_cast<std::size_t>(pc) * n + jc;
        ldb = n;
      }
      for (const int idx : tiled) {
        const GemmBatchItem<T>& it = items[idx];
        const int m = it.m;
        const int m_main = m - m % MR;
        const T* ap = it.a + pc;
        T* c = it.c;
        for (int ic = 0; ic < m_main; ic += MR) {
          micro_tile<T, MR, NR>(ap + static_cast<std::size_t>(ic) * k, panel,
                                c + static_cast<std::size_t>(ic) * n + jc, kc,
                                k, ldb, n, T(1));
          if (last) {
            apply_epilogue(ep, it, bias, n, ic, ic + MR, jc, jc + NR);
          }
        }
        if (m_main < m) {
          micro_rows<T, NR>(ap + static_cast<std::size_t>(m_main) * k, panel,
                            c + static_cast<std::size_t>(m_main) * n + jc,
                            m - m_main, kc, k, ldb, n, T(1));
          if (last) apply_epilogue(ep, it, bias, n, m_main, m, jc, jc + NR);
        }
      }
    }
  }
  if (n_main < n) {
    for (const int idx : tiled) {
      const GemmBatchItem<T>& it = items[idx];
      const int m = it.m;
      if (b_packed != nullptr) {
        const T* tail = b_packed + static_cast<std::size_t>(n_main) * k;
        for (int i = 0; i < m; ++i) {
          const T* __restrict arow = it.a + static_cast<std::size_t>(i) * k;
          T* crow = it.c + static_cast<std::size_t>(i) * n;
          for (int j = n_main; j < n; ++j) {
            const T* __restrict btrow =
                tail + static_cast<std::size_t>(j - n_main) * k;
            T acc = 0;
#pragma omp simd reduction(+ : acc)
            for (int p = 0; p < k; ++p) acc += arow[p] * btrow[p];
            crow[j] += acc;
          }
        }
      } else {
        skinny_panel(it.a, b + n_main, it.c + n_main, m, n - n_main, k, n, n,
                     T(1));
      }
      apply_epilogue(ep, it, bias, n, 0, m, n_main, n);
    }
  }
}

template <class T>
void transpose(const T* src, T* dst, int rows, int cols) {
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      dst[static_cast<std::size_t>(j) * rows + i] =
          src[static_cast<std::size_t>(i) * cols + j];
    }
  }
}

template void gemm_ref<float>(const float*, const float*, float*, int, int,
                              int, float, float);
template void gemm_ref<double>(const double*, const double*, double*, int, int,
                               int, double, double);
template void gemm_nt_ref<float>(const float*, const float*, float*, int, int,
                                 int, float, float);
template void gemm_nt_ref<double>(const double*, const double*, double*, int,
                                  int, int, double, double);
template void gemm_blocked<float>(const float*, const float*, float*, int, int,
                                  int, float, float);
template void gemm_blocked<double>(const double*, const double*, double*, int,
                                   int, int, double, double);
template void gemm_tn<float>(const float*, const float*, float*, int, int,
                             int, float, float);
template void gemm_tn<double>(const double*, const double*, double*, int, int,
                              int, double, double);
template void gemm_nt<float>(const float*, const float*, float*, int, int,
                             int, float, float);
template void gemm_nt<double>(const double*, const double*, double*, int, int,
                              int, double, double);
template int gemm_panel_width<float>();
template int gemm_panel_width<double>();
template void pack_b<float>(const float*, float*, int, int);
template void pack_b<double>(const double*, double*, int, int);
template void gemm_packed<float>(const float*, const float*, float*, int, int,
                                 int, float, float);
template void gemm_packed<double>(const double*, const double*, double*, int,
                                  int, int, double, double);
template void sve_gemm<float>(const float*, const float*, float*, int, int,
                              int, float, float);
template void sve_gemm<double>(const double*, const double*, double*, int, int,
                               int, double, double);
template void gemm_batched<float>(const GemmBatchItem<float>*, int,
                                  const float*, const float*, const float*,
                                  int, int, Epilogue, bool);
template void gemm_batched<double>(const GemmBatchItem<double>*, int,
                                   const double*, const double*, const double*,
                                   int, int, Epilogue, bool);
template void transpose<float>(const float*, float*, int, int);
template void transpose<double>(const double*, double*, int, int);

}  // namespace dpmd::gemm
