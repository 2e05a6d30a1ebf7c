#include "core/inference.hpp"

#include <cmath>

#include "runtime/threadpool.hpp"
#include "util/error.hpp"

namespace dpmd::dp {

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::Double: return "double";
    case Precision::MixFp32: return "MIX-fp32";
    case Precision::MixFp16: return "MIX-fp16";
  }
  return "?";
}

const char* fitting_precision_name(FittingPrecision p) {
  switch (p) {
    case FittingPrecision::Inherit: return "inherit";
    case FittingPrecision::Fp32: return "fp32";
    case FittingPrecision::Bf16: return "bf16";
  }
  return "?";
}

namespace {

/// Flat scratch shared by one evaluation; sized once for sel_total.
template <class T>
struct Workspace {
  std::vector<T> rmat;   // nnei x 4 (cast of the double env matrix)
  std::vector<T> g;      // nnei x m1
  std::vector<T> dg;     // nnei x m1: dE/dG
  std::vector<T> a;      // 4 x m1
  std::vector<T> da;     // 4 x m1
  std::vector<T> dmat;   // m1 x m2
  std::vector<T> ddmat;  // m1 x m2
  std::vector<T> s_in;   // nnei
  std::vector<T> ds_in;  // nnei: dE/ds through the embedding input
  std::vector<T> dr;     // nnei x 4: dE/dR
};

template <class T>
Workspace<T>& workspace() {
  thread_local Workspace<T> ws;
  return ws;
}

/// Flop estimate of one evaluation over `centers` center atoms whose
/// neighbor rows the kernels evaluate `rows` of (skin-band rows are
/// skipped, so they do not count).  Inference runs each dense layer's
/// forward and input-gradient GEMM only — never a weight gradient — so a
/// weight costs 4 flops per row it sees; the fitting net ends in the
/// last-width -> 1 energy head.
double dp_flops(const ModelConfig& cfg, bool compressed, double centers,
                double rows) {
  const auto& dparams = cfg.descriptor;
  const double m1 = dparams.m1();
  const double m2 = dparams.m2();
  double flops = 2.0 * rows * 4 * m1 * 2          // A and its backward
                 + 2.0 * centers * 4 * m1 * m2 * 2;  // D and dA
  int prev = dparams.fitting_input_dim();
  for (const int w : cfg.fit_widths) {
    flops += 4.0 * centers * prev * w;
    prev = w;
  }
  flops += 4.0 * centers * prev;  // energy head
  if (compressed) {
    flops += 12.0 * rows * m1;  // table eval
  } else {
    prev = 1;
    for (const int w : dparams.emb_widths) {
      flops += 4.0 * rows * prev * w;
      prev = w;
    }
  }
  return flops;
}

/// Flat scratch of one batched evaluation (a block of B atoms); sized for
/// the packed row count and reused across blocks.
template <class T>
struct BatchWorkspace {
  std::vector<T> rmat;       // rows x 4 (cast of the double batch matrix)
  std::vector<T> g;          // rows x m1 (compressed path only)
  std::vector<T> dg;         // rows x m1 (compressed path only)
  std::vector<T> a;          // B x 4 x m1: per-slot descriptor factor A
  std::vector<T> ds;         // rows (compressed path only)
  std::vector<T> dr;         // rows x 4: dE/dR
  std::vector<double> dgds;  // rows x m1 (compressed path)
  std::vector<double> grow;  // m1 (compressed table output staging)
  std::vector<int> gseg;     // ntypes x B: active-compacted G row offsets
  std::vector<int> gcount;   // ntypes: active rows per type slab
};

template <class T>
BatchWorkspace<T>& batch_workspace() {
  thread_local BatchWorkspace<T> ws;
  return ws;
}

}  // namespace

ModelPackKey pack_key(const EvalOptions& opts) {
  ModelPackKey key;
  key.fp32_nets = opts.precision != Precision::Double ||
                  opts.fitting_precision != FittingPrecision::Inherit;
  key.compressed = opts.compressed;
  key.compression_bins = opts.compression_bins;
  key.compression_s_max = opts.compression_s_max;
  return key;
}

DPEvaluator::DPEvaluator(std::shared_ptr<const DPModel> model,
                         EvalOptions opts)
    : DPEvaluator(ModelPack::build(std::move(model), pack_key(opts)), opts) {}

DPEvaluator::DPEvaluator(std::shared_ptr<const ModelPack> pack,
                         EvalOptions opts)
    : pack_(std::move(pack)), opts_(opts) {
  DPMD_REQUIRE(pack_ != nullptr, "null model pack");
  model_ = pack_->model_ptr();
  DPMD_REQUIRE(opts_.block_size >= 1,
               "EvalOptions::block_size must be >= 1 (1 = per-atom path)");
  DPMD_REQUIRE(opts_.fitting_precision == FittingPrecision::Inherit ||
                   opts_.precision == Precision::Double,
               "fitting_precision applies to the fp64 pipeline only (the Mix "
               "modes already run the fitting net in fp32)");
  DPMD_REQUIRE(pack_->key().covers(pack_key(opts_)),
               "ModelPack does not cover these EvalOptions (fp32 nets or "
               "compression table mismatch)");
  const auto& cfg = model_->config();
  emb_cache_d_.resize(static_cast<std::size_t>(cfg.ntypes));
  emb_cache_f_.resize(static_cast<std::size_t>(cfg.ntypes));
  fit_batch_cache_d_.resize(static_cast<std::size_t>(cfg.ntypes));
  fit_batch_cache_f_.resize(static_cast<std::size_t>(cfg.ntypes));
  fit_batch_cache_rp_.resize(static_cast<std::size_t>(cfg.ntypes));
}

double DPEvaluator::evaluate_atom(const AtomEnv& env,
                                  std::vector<Vec3>& dE_dd) {
  // Static polymorphism over the numeric type keeps one pipeline source.
  if (opts_.precision == Precision::Double) {
    // The double path reads the nets straight from the model; the vector
    // parameters are unused placeholders.
    static const std::vector<nn::Mlp<double>> kEmpty;
    return eval_impl<double>(env, dE_dd, kEmpty, kEmpty, emb_cache_d_,
                             fit_cache_d_);
  }
  return eval_impl<float>(env, dE_dd, pack_->embeddings_f(),
                          pack_->fittings_f(), emb_cache_f_, fit_cache_f_);
}

template <class T>
double DPEvaluator::eval_impl(const AtomEnv& env, std::vector<Vec3>& dE_dd,
                              const std::vector<nn::Mlp<T>>& embeddings,
                              const std::vector<nn::Mlp<T>>& fittings,
                              std::vector<nn::MlpCache<T>>& emb_caches,
                              nn::MlpCache<T>& fit_cache) {
  const auto& cfg = model_->config();
  const auto& dparams = cfg.descriptor;
  const int m1 = dparams.m1();
  const int m2 = dparams.m2();
  const int nnei = env.nnei();
  const int ntypes = cfg.ntypes;

  const auto emb_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->embedding(t);
    } else {
      return embeddings[static_cast<std::size_t>(t)];
    }
  };
  const auto fit_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->fitting(t);
    } else {
      return fittings[static_cast<std::size_t>(t)];
    }
  };

  auto& ws = workspace<T>();
  ws.rmat.resize(static_cast<std::size_t>(nnei) * 4);
  ws.g.assign(static_cast<std::size_t>(nnei) * m1, T(0));
  ws.dg.assign(static_cast<std::size_t>(nnei) * m1, T(0));
  ws.a.assign(static_cast<std::size_t>(4) * m1, T(0));
  ws.da.assign(static_cast<std::size_t>(4) * m1, T(0));
  ws.dmat.assign(static_cast<std::size_t>(m1) * m2, T(0));
  ws.ddmat.assign(static_cast<std::size_t>(m1) * m2, T(0));
  ws.s_in.resize(static_cast<std::size_t>(nnei));
  ws.ds_in.assign(static_cast<std::size_t>(nnei), T(0));
  ws.dr.assign(static_cast<std::size_t>(nnei) * 4, T(0));

  for (std::size_t i = 0; i < static_cast<std::size_t>(nnei) * 4; ++i) {
    ws.rmat[i] = static_cast<T>(env.rmat[i]);
  }
  for (int k = 0; k < nnei; ++k) {
    ws.s_in[static_cast<std::size_t>(k)] =
        static_cast<T>(env.rmat[static_cast<std::size_t>(k) * 4]);
  }

  // ---- embedding: G (nnei x m1) --------------------------------------
  thread_local std::vector<double> dgds;  // nnei x m1 (compressed path)
  thread_local std::vector<double> grow_d, dgrow_d;
  if (opts_.compressed) {
    const auto& tables = pack_->tables();
    dgds.resize(static_cast<std::size_t>(nnei) * m1);
    grow_d.resize(static_cast<std::size_t>(m1));
    for (int k = 0; k < nnei; ++k) {
      const int t = env.nbr_type[static_cast<std::size_t>(k)];
      tables[static_cast<std::size_t>(t)].eval_row(
          env.rmat[static_cast<std::size_t>(k) * 4], grow_d.data(),
          dgds.data() + static_cast<std::size_t>(k) * m1);
      T* grow = ws.g.data() + static_cast<std::size_t>(k) * m1;
      for (int p = 0; p < m1; ++p) grow[p] = static_cast<T>(grow_d[static_cast<std::size_t>(p)]);
    }
  } else {
    for (int t = 0; t < ntypes; ++t) {
      const int lo = env.type_offset[static_cast<std::size_t>(t)];
      const int hi = env.type_offset[static_cast<std::size_t>(t) + 1];
      const int count = hi - lo;
      if (count == 0) continue;
      emb_net(t).forward(ws.s_in.data() + lo,
                         ws.g.data() + static_cast<std::size_t>(lo) * m1,
                         count, emb_caches[static_cast<std::size_t>(t)],
                         nn::GemmKind::Auto, nn::GemmKind::Auto,
                         opts_.packed_gemm);
    }
  }

  // ---- descriptor: A = R~^T G / sel,  D = A^T A[:, :m2] ----------------
  // Normalized by the *fixed* sel count (as DeePMD-kit does), not by the
  // instantaneous neighbor count: a count-dependent factor would make the
  // energy discontinuous whenever a neighbor crosses the cutoff, breaking
  // NVE conservation.
  const T inv_n = T(1) / static_cast<T>(dparams.sel_total());
  for (int k = 0; k < nnei; ++k) {
    const T* grow = ws.g.data() + static_cast<std::size_t>(k) * m1;
    const T* rrow = ws.rmat.data() + static_cast<std::size_t>(k) * 4;
    for (int c = 0; c < 4; ++c) {
      const T w = rrow[c] * inv_n;
      T* arow = ws.a.data() + static_cast<std::size_t>(c) * m1;
      for (int p = 0; p < m1; ++p) arow[p] += w * grow[p];
    }
  }
  for (int c = 0; c < 4; ++c) {
    const T* arow = ws.a.data() + static_cast<std::size_t>(c) * m1;
    for (int p = 0; p < m1; ++p) {
      const T apc = arow[p];
      T* drow = ws.dmat.data() + static_cast<std::size_t>(p) * m2;
      for (int q = 0; q < m2; ++q) drow[q] += apc * arow[q];
    }
  }

  // ---- fitting net ----------------------------------------------------
  const nn::GemmKind fk = opts_.fitting_gemm;
  nn::GemmKind first = fk;
  if (opts_.precision == Precision::MixFp16) {
    first = nn::GemmKind::HalfWeights;
  }
  double energy = cfg.energy_bias[static_cast<std::size_t>(env.center_type)];
  bool fit_done = false;
  if constexpr (std::is_same_v<T, double>) {
    if (opts_.fitting_precision != FittingPrecision::Inherit) {
      // Reduced-precision fitting (M = 1): the fp32 cast runs the net, the
      // energy head re-accumulates in fp64 against the master final layer,
      // and dE/dD casts back into the fp64 force chain.
      const nn::Mlp<float>& fnet =
          pack_->fittings_f()[static_cast<std::size_t>(env.center_type)];
      const int fin = fnet.input_dim();
      float* fx = fnet.batch_input(1, fit_cache_f_);
      for (int q = 0; q < fin; ++q) fx[q] = static_cast<float>(ws.dmat[q]);
      const nn::GemmKind ffirst =
          opts_.fitting_precision == FittingPrecision::Bf16
              ? nn::GemmKind::Bf16Weights
              : fk;
      fnet.forward_batch(1, fit_cache_f_, fk, ffirst, opts_.packed_gemm);
      const auto& last = model_->fitting(env.center_type).layers().back();
      const float* h = fit_cache_f_.acts[fnet.layers().size() - 1].data();
      double acc = 0.0;
      for (int q = 0; q < last.in; ++q) {
        acc += static_cast<double>(h[q]) *
               last.w.d[static_cast<std::size_t>(q)];
      }
      energy += acc + last.b[0];
      float* dy = fnet.batch_output_grad(1, fit_cache_f_);
      dy[0] = 1.0f;
      const float* gf =
          fnet.backward_input_batch(1, fit_cache_f_, fk, opts_.packed_gemm);
      for (int q = 0; q < fin; ++q) ws.ddmat[q] = static_cast<T>(gf[q]);
      fit_done = true;
    }
  }
  if (!fit_done) {
    T energy_out;
    fit_net(env.center_type)
        .forward(ws.dmat.data(), &energy_out, 1, fit_cache, fk, first,
                 opts_.packed_gemm);
    energy += static_cast<double>(energy_out);
    // ---- backward: fitting -> dD --------------------------------------
    const T one = T(1);
    fit_net(env.center_type)
        .backward_input(&one, ws.ddmat.data(), 1, fit_cache, fk,
                        opts_.packed_gemm);
  }

  // ---- dA from D = sum_c a[c][p] a[c][q] -------------------------------
  for (int c = 0; c < 4; ++c) {
    const T* arow = ws.a.data() + static_cast<std::size_t>(c) * m1;
    T* darow = ws.da.data() + static_cast<std::size_t>(c) * m1;
    for (int p = 0; p < m1; ++p) {
      const T* ddrow = ws.ddmat.data() + static_cast<std::size_t>(p) * m2;
      T acc = 0;
      for (int q = 0; q < m2; ++q) acc += ddrow[q] * arow[q];
      darow[p] += acc;
    }
    for (int q = 0; q < m2; ++q) {
      T acc = 0;
      for (int p = 0; p < m1; ++p) {
        acc += ws.ddmat[static_cast<std::size_t>(p) * m2 + q] * arow[p];
      }
      darow[q] += acc;
    }
  }

  // ---- dG and dR --------------------------------------------------------
  for (int k = 0; k < nnei; ++k) {
    const T* rrow = ws.rmat.data() + static_cast<std::size_t>(k) * 4;
    const T* grow = ws.g.data() + static_cast<std::size_t>(k) * m1;
    T* dgrow = ws.dg.data() + static_cast<std::size_t>(k) * m1;
    T* drrow = ws.dr.data() + static_cast<std::size_t>(k) * 4;
    for (int c = 0; c < 4; ++c) {
      const T* darow = ws.da.data() + static_cast<std::size_t>(c) * m1;
      const T w = rrow[c] * inv_n;
      T dot = 0;
      for (int p = 0; p < m1; ++p) {
        dgrow[p] += w * darow[p];
        dot += grow[p] * darow[p];
      }
      drrow[c] = dot * inv_n;
    }
  }

  // ---- dE/ds through the embedding -------------------------------------
  if (opts_.compressed) {
    for (int k = 0; k < nnei; ++k) {
      const T* dgrow = ws.dg.data() + static_cast<std::size_t>(k) * m1;
      const double* dgdsrow = dgds.data() + static_cast<std::size_t>(k) * m1;
      double acc = 0;
      for (int p = 0; p < m1; ++p) {
        acc += static_cast<double>(dgrow[p]) * dgdsrow[p];
      }
      ws.ds_in[static_cast<std::size_t>(k)] = static_cast<T>(acc);
    }
  } else {
    for (int t = 0; t < ntypes; ++t) {
      const int lo = env.type_offset[static_cast<std::size_t>(t)];
      const int hi = env.type_offset[static_cast<std::size_t>(t) + 1];
      const int count = hi - lo;
      if (count == 0) continue;
      emb_net(t).backward_input(
          ws.dg.data() + static_cast<std::size_t>(lo) * m1,
          ws.ds_in.data() + lo, count,
          emb_caches[static_cast<std::size_t>(t)], nn::GemmKind::Auto,
          opts_.packed_gemm);
    }
  }

  // ---- chain rule to neighbor displacements (always fp64) --------------
  dE_dd.resize(static_cast<std::size_t>(nnei));
  for (int k = 0; k < nnei; ++k) {
    const double* der = env.drmat.data() + static_cast<std::size_t>(k) * 12;
    const T* drrow = ws.dr.data() + static_cast<std::size_t>(k) * 4;
    const double ds_emb =
        static_cast<double>(ws.ds_in[static_cast<std::size_t>(k)]);
    Vec3 grad{0, 0, 0};
    for (int a = 0; a < 3; ++a) {
      double acc = 0;
      for (int c = 0; c < 4; ++c) {
        acc += static_cast<double>(drrow[c]) * der[c * 3 + a];
      }
      acc += ds_emb * der[0 * 3 + a];  // embedding input is R component 0
      grad[a] = acc;
    }
    dE_dd[static_cast<std::size_t>(k)] = grad;
  }

  flops_ += dp_flops(cfg, opts_.compressed, 1, nnei);
  return energy;
}

template double DPEvaluator::eval_impl<double>(
    const AtomEnv&, std::vector<Vec3>&, const std::vector<nn::Mlp<double>>&,
    const std::vector<nn::Mlp<double>>&, std::vector<nn::MlpCache<double>>&,
    nn::MlpCache<double>&);
template double DPEvaluator::eval_impl<float>(
    const AtomEnv&, std::vector<Vec3>&, const std::vector<nn::Mlp<float>>&,
    const std::vector<nn::Mlp<float>>&, std::vector<nn::MlpCache<float>>&,
    nn::MlpCache<float>&);

void DPEvaluator::evaluate_batch(const AtomEnvBatch& batch,
                                 std::vector<double>& energies,
                                 std::vector<Vec3>& dE_dd) {
  // Single-item sweep: evaluate_batch and evaluate_sweep share one code
  // path, so a gang-merged serve batch and a PairDeepMD block sweep can
  // never diverge numerically.
  SweepJob job;
  job.batch = &batch;
  job.energies = &energies;
  job.dE_dd = &dE_dd;
  evaluate_sweep(&job, 1, nullptr);
}

void DPEvaluator::evaluate_sweep(const SweepJob* jobs, int njobs,
                                 rt::ThreadPool* pool) {
  if (njobs <= 0) return;
  for (int i = 0; i < njobs; ++i) {
    DPMD_REQUIRE(jobs[i].batch != nullptr && jobs[i].energies != nullptr &&
                     jobs[i].dE_dd != nullptr,
                 "null SweepJob field");
  }
  if (!(opts_.compressed && opts_.fused_table)) {
    // Slab pipeline: sequential per-item evaluation.  Each item's fitting
    // stage still runs through fit_stage, so the precision knob and the
    // fused epilogues apply here too — only the cross-item GEMM batching
    // needs the fused descriptor path's per-item state isolation.
    for (int i = 0; i < njobs; ++i) {
      const SweepJob& j = jobs[i];
      if (opts_.precision == Precision::Double) {
        static const std::vector<nn::Mlp<double>> kEmpty;
        batch_impl<double>(*j.batch, *j.energies, *j.dE_dd, kEmpty, kEmpty,
                           emb_cache_d_, fit_batch_cache_d_);
      } else {
        batch_impl<float>(*j.batch, *j.energies, *j.dE_dd,
                          pack_->embeddings_f(), pack_->fittings_f(),
                          emb_cache_f_, fit_batch_cache_f_);
      }
    }
    return;
  }
  if (opts_.precision == Precision::Double) {
    sweep_impl<double>(jobs, njobs, pool);
  } else {
    sweep_impl<float>(jobs, njobs, pool);
  }
}

/// One item's handles through fit_stage: where its staged D rows live
/// (caches, one per center type, inputs already in acts[0]), where its
/// energies and per-type dE/dD slab pointers go.
///
/// Concatenated mode (row_offset != nullptr): every task points at the SAME
/// per-type cache vector and its type-t rows occupy rows
/// [row_offset[t], row_offset[t] + count) of that shared cache — the whole
/// sweep then runs each fitting net as ONE large-M pass instead of one
/// small-M pass per block, which is worth ~1.3x on the GEMM throughput at
/// water-256 block sizes.
template <class T>
struct DPEvaluator::FitTask {
  const AtomEnvBatch* batch = nullptr;
  std::vector<nn::MlpCache<T>>* caches = nullptr;
  std::vector<nn::MlpCache<float>>* rp_caches = nullptr;
  std::vector<double>* energies = nullptr;
  const T** dd_base = nullptr;
  const int* row_offset = nullptr;  ///< per-type row offsets (concat mode)
};

template <class T>
void DPEvaluator::fit_stage(FitTask<T>* tasks, int ntasks,
                            rt::ThreadPool* pool) {
  const auto& cfg = model_->config();
  const int ntypes = cfg.ntypes;
  const nn::GemmKind fk = opts_.fitting_gemm;
  nn::GemmKind first = fk;
  if (opts_.precision == Precision::MixFp16) {
    first = nn::GemmKind::HalfWeights;
  }
  const auto fit_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->fitting(t);
    } else {
      return pack_->fittings_f()[static_cast<std::size_t>(t)];
    }
  };
  const auto count_of = [](const FitTask<T>& task, int t) {
    return task.batch->fit_type_offset[static_cast<std::size_t>(t) + 1] -
           task.batch->fit_type_offset[static_cast<std::size_t>(t)];
  };
  const auto slot_of = [](const FitTask<T>& task, int t, int i) {
    return task.batch->fit_order[static_cast<std::size_t>(
        task.batch->fit_type_offset[static_cast<std::size_t>(t)] + i)];
  };

  // Concatenated mode: all tasks share one per-type cache (see FitTask doc).
  const bool concat = ntasks > 0 && tasks[0].row_offset != nullptr;

  thread_local std::vector<int> live;  // tasks with type-t centers
  thread_local std::vector<nn::MlpSweepItem<T>> items;
  for (int t = 0; t < ntypes; ++t) {
    live.clear();
    int total = 0;
    for (int i = 0; i < ntasks; ++i) {
      const int c = count_of(tasks[i], t);
      if (c > 0) live.push_back(i);
      total += c;
    }
    if (live.empty()) continue;
    const int n = static_cast<int>(live.size());
    const double bias = cfg.energy_bias[static_cast<std::size_t>(t)];

    if constexpr (std::is_same_v<T, double>) {
      if (concat && opts_.fitting_precision != FittingPrecision::Inherit) {
        // Reduced-precision fitting over the concatenated slab: one
        // fp64 -> fp32 cast of the whole staged D slab, one large-M fp32
        // sweep, fp64 energy head against the master weights, one cast of
        // dE/dD back into the fp64 chain.
        const nn::Mlp<float>& fnet =
            pack_->fittings_f()[static_cast<std::size_t>(t)];
        const int fin = fnet.input_dim();
        const std::size_t L = fnet.layers().size();
        auto& rp = *tasks[0].rp_caches;
        if (rp.size() != static_cast<std::size_t>(ntypes)) {
          rp.resize(static_cast<std::size_t>(ntypes));
        }
        nn::MlpCache<float>& fcache = rp[static_cast<std::size_t>(t)];
        nn::MlpCache<T>& dcache =
            (*tasks[0].caches)[static_cast<std::size_t>(t)];
        float* fx = fnet.batch_input(total, fcache);
        const double* dx = dcache.acts[0].data();
        const std::size_t nq = static_cast<std::size_t>(total) * fin;
        for (std::size_t q = 0; q < nq; ++q) {
          fx[q] = static_cast<float>(dx[q]);
        }
        const nn::GemmKind ffirst =
            opts_.fitting_precision == FittingPrecision::Bf16
                ? nn::GemmKind::Bf16Weights
                : fk;
        nn::MlpSweepItem<float> fone{total, &fcache};
        fnet.forward_sweep(&fone, 1, fk, ffirst, opts_.packed_gemm, pool);
        const auto& last = model_->fitting(t).layers().back();
        const float* h = fcache.acts[L - 1].data();
        for (int j = 0; j < n; ++j) {
          FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
          const int count = count_of(task, t);
          const int off = task.row_offset[t];
          for (int i = 0; i < count; ++i) {
            const float* hrow =
                h + static_cast<std::size_t>(off + i) * last.in;
            double acc = 0.0;
            for (int q = 0; q < last.in; ++q) {
              acc += static_cast<double>(hrow[q]) *
                     last.w.d[static_cast<std::size_t>(q)];
            }
            (*task.energies)[static_cast<std::size_t>(slot_of(task, t, i))] =
                acc + last.b[0] + bias;
          }
        }
        float* dy = fnet.batch_output_grad(total, fcache);
        std::fill(dy, dy + total, 1.0f);
        fnet.backward_sweep(&fone, 1, fk, opts_.packed_gemm, pool);
        const float* gf = fcache.grads[0].data();
        double* gd = dcache.grads[0].data();
        for (std::size_t q = 0; q < nq; ++q) {
          gd[q] = static_cast<double>(gf[q]);
        }
        for (int j = 0; j < n; ++j) {
          FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
          task.dd_base[t] =
              gd + static_cast<std::size_t>(task.row_offset[t]) * fin;
        }
        continue;
      }
      if (opts_.fitting_precision != FittingPrecision::Inherit) {
        // Reduced-precision fitting (§III-B3 applied to the fitting net):
        // the staged fp64 D rows cast into the fp32 net's caches, the
        // sweep runs there (bf16-stored weights in the big first GEMM when
        // selected), the energy head — the final in -> 1 reduction plus
        // biases — re-accumulates in fp64 against the master weights, and
        // dE/dD casts back into the fp64 force chain.
        const nn::Mlp<float>& fnet =
            pack_->fittings_f()[static_cast<std::size_t>(t)];
        const int fin = fnet.input_dim();
        const std::size_t L = fnet.layers().size();
        thread_local std::vector<nn::MlpSweepItem<float>> fitems;
        fitems.resize(static_cast<std::size_t>(n));
        for (int j = 0; j < n; ++j) {
          FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
          const int count = count_of(task, t);
          auto& rp = *task.rp_caches;
          if (rp.size() != static_cast<std::size_t>(ntypes)) {
            rp.resize(static_cast<std::size_t>(ntypes));
          }
          float* fx = fnet.batch_input(count, rp[static_cast<std::size_t>(t)]);
          const double* dx =
              (*task.caches)[static_cast<std::size_t>(t)].acts[0].data();
          const std::size_t nq = static_cast<std::size_t>(count) * fin;
          for (std::size_t q = 0; q < nq; ++q) {
            fx[q] = static_cast<float>(dx[q]);
          }
          fitems[static_cast<std::size_t>(j)] = {
              count, &rp[static_cast<std::size_t>(t)]};
        }
        const nn::GemmKind ffirst =
            opts_.fitting_precision == FittingPrecision::Bf16
                ? nn::GemmKind::Bf16Weights
                : fk;
        fnet.forward_sweep(fitems.data(), n, fk, ffirst, opts_.packed_gemm,
                           pool);
        const auto& last = model_->fitting(t).layers().back();
        for (int j = 0; j < n; ++j) {
          FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
          const int count = count_of(task, t);
          auto& rp = (*task.rp_caches)[static_cast<std::size_t>(t)];
          const float* h = rp.acts[L - 1].data();
          for (int i = 0; i < count; ++i) {
            const float* hrow = h + static_cast<std::size_t>(i) * last.in;
            double acc = 0.0;
            for (int q = 0; q < last.in; ++q) {
              acc += static_cast<double>(hrow[q]) *
                     last.w.d[static_cast<std::size_t>(q)];
            }
            (*task.energies)[static_cast<std::size_t>(slot_of(task, t, i))] =
                acc + last.b[0] + bias;
          }
          float* dy = fnet.batch_output_grad(count, rp);
          std::fill(dy, dy + count, 1.0f);
        }
        fnet.backward_sweep(fitems.data(), n, fk, opts_.packed_gemm, pool);
        for (int j = 0; j < n; ++j) {
          FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
          const int count = count_of(task, t);
          const float* gf =
              (*task.rp_caches)[static_cast<std::size_t>(t)].grads[0].data();
          double* gd =
              (*task.caches)[static_cast<std::size_t>(t)].grads[0].data();
          const std::size_t nq = static_cast<std::size_t>(count) * fin;
          for (std::size_t q = 0; q < nq; ++q) {
            gd[q] = static_cast<double>(gf[q]);
          }
          task.dd_base[t] = gd;
        }
        continue;
      }
    }

    if (concat) {
      // Full-precision concatenated sweep: the staged slab already holds
      // every item's type-t rows back to back, so the whole multi-block
      // fitting stage is one large-M forward + backward per net.
      const nn::Mlp<T>& net = fit_net(t);
      nn::MlpCache<T>& cache = (*tasks[0].caches)[static_cast<std::size_t>(t)];
      nn::MlpSweepItem<T> one{total, &cache};
      net.forward_sweep(&one, 1, fk, first, opts_.packed_gemm, pool);
      const T* e_out = cache.acts.back().data();
      for (int j = 0; j < n; ++j) {
        FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
        const int count = count_of(task, t);
        const int off = task.row_offset[t];
        for (int i = 0; i < count; ++i) {
          (*task.energies)[static_cast<std::size_t>(slot_of(task, t, i))] =
              static_cast<double>(e_out[off + i]) + bias;
        }
      }
      T* dy = net.batch_output_grad(total, cache);
      std::fill(dy, dy + total, T(1));
      net.backward_sweep(&one, 1, fk, opts_.packed_gemm, pool);
      const T* gbase = cache.grads[0].data();
      for (int j = 0; j < n; ++j) {
        FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
        task.dd_base[t] =
            gbase +
            static_cast<std::size_t>(task.row_offset[t]) * net.input_dim();
      }
      continue;
    }

    // Full-precision path in T: forward sweep, energy + dE/dy staging,
    // backward sweep — all items of this net batched per layer.
    const nn::Mlp<T>& net = fit_net(t);
    items.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
      items[static_cast<std::size_t>(j)] = {
          count_of(task, t), &(*task.caches)[static_cast<std::size_t>(t)]};
    }
    net.forward_sweep(items.data(), n, fk, first, opts_.packed_gemm, pool);
    for (int j = 0; j < n; ++j) {
      FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
      const int count = count_of(task, t);
      auto& cache = (*task.caches)[static_cast<std::size_t>(t)];
      const T* e_out = cache.acts.back().data();
      for (int i = 0; i < count; ++i) {
        (*task.energies)[static_cast<std::size_t>(slot_of(task, t, i))] =
            static_cast<double>(e_out[i]) + bias;
      }
      T* dy = net.batch_output_grad(count, cache);
      std::fill(dy, dy + count, T(1));
    }
    net.backward_sweep(items.data(), n, fk, opts_.packed_gemm, pool);
    for (int j = 0; j < n; ++j) {
      FitTask<T>& task = tasks[live[static_cast<std::size_t>(j)]];
      task.dd_base[t] =
          (*task.caches)[static_cast<std::size_t>(t)].grads[0].data();
    }
  }
}

template <class T>
void DPEvaluator::sweep_impl(const SweepJob* jobs, int njobs,
                             rt::ThreadPool* pool) {
  const auto& cfg = model_->config();
  const auto& dparams = cfg.descriptor;
  const int m1 = dparams.m1();
  const int m2 = dparams.m2();
  const int ntypes = cfg.ntypes;
  const double inv_n_d = 1.0 / static_cast<double>(dparams.sel_total());

  auto& slots = [this]() -> std::vector<SweepSlot<T>>& {
    if constexpr (std::is_same_v<T, double>) {
      return sweep_slots_d_;
    } else {
      return sweep_slots_f_;
    }
  }();
  if (static_cast<int>(slots.size()) < njobs) {
    slots.resize(static_cast<std::size_t>(njobs));
  }
  const auto fit_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->fitting(t);
    } else {
      return pack_->fittings_f()[static_cast<std::size_t>(t)];
    }
  };

  // Concatenated fitting-slab layout: all items' type-t D rows go back to
  // back into ONE shared per-type cache, so the fitting stage runs each net
  // as a single large-M sweep (M = all fit rows of the whole block sweep)
  // instead of one small-M pass per item.  Offsets are computed serially up
  // front; the parallel prepare below then writes disjoint row ranges.
  auto& concat = [this]() -> std::vector<nn::MlpCache<T>>& {
    if constexpr (std::is_same_v<T, double>) {
      return fit_batch_cache_d_;
    } else {
      return fit_batch_cache_f_;
    }
  }();
  if (concat.size() != static_cast<std::size_t>(ntypes)) {
    concat.resize(static_cast<std::size_t>(ntypes));
  }
  thread_local std::vector<int> offsets;  // njobs x ntypes row offsets
  thread_local std::vector<int> totals;   // per-type row totals
  offsets.assign(static_cast<std::size_t>(njobs) * ntypes, 0);
  totals.assign(static_cast<std::size_t>(ntypes), 0);
  for (int i = 0; i < njobs; ++i) {
    const AtomEnvBatch& batch = *jobs[i].batch;
    DPMD_REQUIRE(batch.ntypes == ntypes, "batch built for a different ntypes");
    for (int t = 0; t < ntypes; ++t) {
      offsets[static_cast<std::size_t>(i) * ntypes + t] =
          totals[static_cast<std::size_t>(t)];
      totals[static_cast<std::size_t>(t)] +=
          batch.fit_type_offset[static_cast<std::size_t>(t) + 1] -
          batch.fit_type_offset[static_cast<std::size_t>(t)];
    }
  }
  thread_local std::vector<T*> bases;  // per-type slab base pointers
  bases.assign(static_cast<std::size_t>(ntypes), nullptr);
  for (int t = 0; t < ntypes; ++t) {
    if (totals[static_cast<std::size_t>(t)] > 0) {
      bases[static_cast<std::size_t>(t)] = fit_net(t).batch_input(
          totals[static_cast<std::size_t>(t)],
          concat[static_cast<std::size_t>(t)]);
    }
  }

  // Phase 1 — per-item fused tabulate-and-contract forward into the item's
  // A slab and its rows of the shared fitting slabs.  Items are
  // independent (disjoint slab rows); every scratch the fused drivers
  // touch is thread_local, so the split is safe.  The offset/base pointers
  // are captured as raw data pointers: the lambda runs on pool threads,
  // where the thread_local vectors above resolve to DIFFERENT (empty)
  // instances.
  const int* const offsets_p = offsets.data();
  T* const* const bases_p = bases.data();
  const auto prepare = [&, offsets_p, bases_p](int i, int) {
    const SweepJob& job = jobs[i];
    const AtomEnvBatch& batch = *job.batch;
    SweepSlot<T>& slot = slots[static_cast<std::size_t>(i)];
    const int B = batch.natoms;
    job.energies->assign(static_cast<std::size_t>(B), 0.0);
    job.dE_dd->resize(static_cast<std::size_t>(batch.rows()));
    if (B == 0) return;
    slot.a.assign(static_cast<std::size_t>(B) * 4 * m1, T(0));
    slot.fit_slab.assign(static_cast<std::size_t>(ntypes), nullptr);
    slot.dd_base.assign(static_cast<std::size_t>(ntypes), nullptr);
    for (int t = 0; t < ntypes; ++t) {
      const int count =
          batch.fit_type_offset[static_cast<std::size_t>(t) + 1] -
          batch.fit_type_offset[static_cast<std::size_t>(t)];
      if (count == 0) continue;
      slot.fit_slab[static_cast<std::size_t>(t)] =
          bases_p[static_cast<std::size_t>(t)] +
          static_cast<std::size_t>(
              offsets_p[static_cast<std::size_t>(i) * ntypes + t]) *
              fit_net(t).input_dim();
    }
    fused_contract_forward_batch(batch, pack_->tables(), m1, m2, inv_n_d,
                                 slot.a.data(), slot.fit_slab.data());
  };
  const bool threaded = pool != nullptr && pool->size() > 1 && njobs > 1;
  if (threaded) {
    pool->parallel_dynamic(njobs, prepare);
  } else {
    for (int i = 0; i < njobs; ++i) prepare(i, 0);
  }

  // Phase 2 — the fitting stage: each net once over the concatenated rows.
  thread_local std::vector<FitTask<T>> tasks;
  tasks.resize(static_cast<std::size_t>(njobs));
  for (int i = 0; i < njobs; ++i) {
    SweepSlot<T>& slot = slots[static_cast<std::size_t>(i)];
    FitTask<T>& task = tasks[static_cast<std::size_t>(i)];
    task.batch = jobs[i].batch;
    task.caches = &concat;
    task.rp_caches = &fit_batch_cache_rp_;
    task.energies = jobs[i].energies;
    task.dd_base = slot.dd_base.data();
    task.row_offset = offsets.data() + static_cast<std::size_t>(i) * ntypes;
  }
  fit_stage(tasks.data(), njobs, pool);

  // Phase 3 — per-item fused backward through the descriptor into dE/dd.
  const auto finish = [&](int i, int) {
    const AtomEnvBatch& batch = *jobs[i].batch;
    if (batch.natoms == 0) return;
    SweepSlot<T>& slot = slots[static_cast<std::size_t>(i)];
    fused_contract_backward_batch(batch, pack_->tables(),
                                  slot.dd_base.data(), m1, m2, inv_n_d,
                                  slot.a.data(), jobs[i].dE_dd->data());
  };
  if (threaded) {
    pool->parallel_dynamic(njobs, finish);
  } else {
    for (int i = 0; i < njobs; ++i) finish(i, 0);
  }

  // Flop estimate, accumulated outside the parallel phases.
  for (int i = 0; i < njobs; ++i) {
    const AtomEnvBatch& batch = *jobs[i].batch;
    flops_ += dp_flops(cfg, /*compressed=*/true, batch.natoms,
                       batch.total_active_rows());
  }
}

template void DPEvaluator::sweep_impl<double>(const SweepJob*, int,
                                              rt::ThreadPool*);
template void DPEvaluator::sweep_impl<float>(const SweepJob*, int,
                                             rt::ThreadPool*);

template <class T>
void DPEvaluator::batch_impl(const AtomEnvBatch& batch,
                             std::vector<double>& energies,
                             std::vector<Vec3>& dE_dd,
                             const std::vector<nn::Mlp<T>>& embeddings,
                             const std::vector<nn::Mlp<T>>& fittings,
                             std::vector<nn::MlpCache<T>>& emb_caches,
                             std::vector<nn::MlpCache<T>>& fit_caches) {
  const auto& cfg = model_->config();
  const auto& dparams = cfg.descriptor;
  const int m1 = dparams.m1();
  const int m2 = dparams.m2();
  const int ntypes = cfg.ntypes;
  const int B = batch.natoms;
  const int rows = batch.rows();
  DPMD_REQUIRE(batch.ntypes == ntypes, "batch built for a different ntypes");

  energies.assign(static_cast<std::size_t>(B), 0.0);
  dE_dd.resize(static_cast<std::size_t>(rows));
  if (B == 0) return;

  const auto emb_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->embedding(t);
    } else {
      return embeddings[static_cast<std::size_t>(t)];
    }
  };
  const auto fit_net = [&](int t) -> const nn::Mlp<T>& {
    if constexpr (std::is_same_v<T, double>) {
      return model_->fitting(t);
    } else {
      return fittings[static_cast<std::size_t>(t)];
    }
  };
  const auto type_lo = [&](int t) {
    return batch.type_offset[static_cast<std::size_t>(t)];
  };
  const auto type_count = [&](int t) {
    return batch.type_offset[static_cast<std::size_t>(t) + 1] -
           batch.type_offset[static_cast<std::size_t>(t)];
  };
  const auto fit_count = [&](int t) {
    return batch.fit_type_offset[static_cast<std::size_t>(t) + 1] -
           batch.fit_type_offset[static_cast<std::size_t>(t)];
  };

  // The slab pipeline: evaluate_sweep routes here only when the fused
  // tabulate-contraction (sweep_impl, the compressed default) is off — the
  // uncompressed full-embedding path and the fused_table = false ablation.
  auto& ws = batch_workspace<T>();
  // Full-embedding skin-tail pack (ISSUE 5 satellite): with env reuse the
  // packed segments carry zeroed skin-band tails; compact the embedding
  // MLP's input to the active prefixes so the net never runs over them.
  // g_row_off then maps each segment to its rows inside the type slab.
  const bool pack_active = !opts_.compressed && !batch.seg_active.empty();
  const int* g_row_off = nullptr;
  if (pack_active) {
    ws.gseg.resize(static_cast<std::size_t>(ntypes) * B);
    ws.gcount.assign(static_cast<std::size_t>(ntypes), 0);
    for (int t = 0; t < ntypes; ++t) {
      int off = 0;
      for (int a = 0; a < B; ++a) {
        ws.gseg[static_cast<std::size_t>(t) * B + a] = off;
        off += batch.active_rows(t, a);
      }
      ws.gcount[static_cast<std::size_t>(t)] = off;
    }
    g_row_off = ws.gseg.data();
  }
  // Embedding rows of type t in the net caches/slabs: every packed row of
  // the dense layout, or only the active prefixes when packed.
  const auto emb_rows = [&](int t) {
    return pack_active ? ws.gcount[static_cast<std::size_t>(t)]
                       : batch.type_offset[static_cast<std::size_t>(t) + 1] -
                             batch.type_offset[static_cast<std::size_t>(t)];
  };
  // The double pipeline reads the batch environment matrix in place; only
  // the fp32 modes pay a cast copy.
  const T* rmat = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    rmat = batch.rmat.data();
  } else {
    ws.rmat.resize(static_cast<std::size_t>(rows) * 4);
    for (std::size_t i = 0; i < static_cast<std::size_t>(rows) * 4; ++i) {
      ws.rmat[i] = static_cast<T>(batch.rmat[i]);
    }
    rmat = ws.rmat.data();
  }
  ws.a.assign(static_cast<std::size_t>(B) * 4 * m1, T(0));
  ws.dr.resize(static_cast<std::size_t>(rows) * 4);

  // ---- embedding forward: ONE net pass per neighbor type per block -------
  // g_base[t] + (r - type_lo(t)) * m1 is the embedding row of packed row r
  // (g_row_off-adjusted when the active pack is on); the slab lives either
  // in ws.g (compressed) or in the type's MLP cache (uncompressed,
  // zero-copy via forward_batch).
  std::vector<const T*> g_base(static_cast<std::size_t>(ntypes), nullptr);
  if (opts_.compressed) {
    const auto& tables = pack_->tables();
    ws.g.resize(static_cast<std::size_t>(rows) * m1);
    ws.dgds.resize(static_cast<std::size_t>(rows) * m1);
    if constexpr (!std::is_same_v<T, double>) {
      ws.grow.resize(static_cast<std::size_t>(m1));
    }
    for (int t = 0; t < ntypes; ++t) {
      const int lo = type_lo(t);
      const int hi = lo + type_count(t);
      for (int r = lo; r < hi; ++r) {
        T* grow = ws.g.data() + static_cast<std::size_t>(r) * m1;
        const double s_row = batch.rmat[static_cast<std::size_t>(r) * 4];
        if (s_row == 0.0) {
          // A compacted skin-band tail row (env reuse keeps full-list rows
          // between rebuilds): its R~ and dR/dd rows are all zeros and the
          // GEMM sweeps skip it via seg_active, so neither its G nor its
          // dG/ds is ever read — skip the table walk outright.  (dG rows
          // are zero-initialized per block, so the dE/ds chain still sees
          // an exact zero for it.)
          continue;
        }
        if constexpr (std::is_same_v<T, double>) {
          // Table rows land straight in the G slab; only fp32 stages.
          tables[static_cast<std::size_t>(t)].eval_row(
              s_row, grow,
              ws.dgds.data() + static_cast<std::size_t>(r) * m1);
        } else {
          tables[static_cast<std::size_t>(t)].eval_row(
              s_row, ws.grow.data(),
              ws.dgds.data() + static_cast<std::size_t>(r) * m1);
          for (int p = 0; p < m1; ++p) {
            grow[p] = static_cast<T>(ws.grow[static_cast<std::size_t>(p)]);
          }
        }
      }
      g_base[static_cast<std::size_t>(t)] =
          ws.g.data() + static_cast<std::size_t>(lo) * m1;
    }
  } else {
    for (int t = 0; t < ntypes; ++t) {
      const int count = emb_rows(t);
      if (count == 0) continue;
      auto& cache = emb_caches[static_cast<std::size_t>(t)];
      T* s_in = emb_net(t).batch_input(count, cache);
      const int lo = type_lo(t);
      if (pack_active) {
        // Compacted input: only each segment's in-range prefix, placed at
        // its g_row_off slot — the MLP never sees a zeroed skin row.
        for (int a = 0; a < B; ++a) {
          const int seg_lo =
              batch.seg_offset[static_cast<std::size_t>(t) * B + a];
          const int active = batch.active_rows(t, a);
          T* dst = s_in + ws.gseg[static_cast<std::size_t>(t) * B + a];
          for (int k = 0; k < active; ++k) {
            dst[k] = static_cast<T>(
                batch.rmat[static_cast<std::size_t>(seg_lo + k) * 4]);
          }
        }
      } else {
        for (int i = 0; i < count; ++i) {
          s_in[i] = static_cast<T>(
              batch.rmat[static_cast<std::size_t>(lo + i) * 4]);
        }
      }
      g_base[static_cast<std::size_t>(t)] = emb_net(t).forward_batch(
          count, cache, nn::GemmKind::Auto, nn::GemmKind::Auto,
          opts_.packed_gemm);
    }
  }

  // ---- descriptor: A = R~^T G / sel,  D = A^T A[:, :m2] per slot ---------
  // D rows are written straight into each fitting net's input slab in
  // center-type-sorted order, so the fitting GEMM below runs with
  // M = fit_count(t) and no staging copy.
  std::vector<T*> fit_slab(static_cast<std::size_t>(ntypes), nullptr);
  for (int t = 0; t < ntypes; ++t) {
    const int count = fit_count(t);
    if (count == 0) continue;
    fit_slab[static_cast<std::size_t>(t)] = fit_net(t).batch_input(
        count, fit_caches[static_cast<std::size_t>(t)]);
  }

  // One gemm_tn per (slot, type) segment over the G slab; the
  // segment sweep lives in contract_forward_batch, shared with the batched
  // trainer.
  const T inv_n = T(1) / static_cast<T>(dparams.sel_total());
  contract_forward_batch(batch, rmat, g_base.data(), g_row_off, m1, m2, inv_n,
                         ws.a.data(), fit_slab.data());

  // ---- fitting nets: forward AND backward at M = centers-per-type --------
  // One single-task fit_stage call — the same code the multi-block sweep
  // path batches over, with the fused epilogues and the fitting-precision
  // knob applied identically.
  std::vector<const T*> dd_base(static_cast<std::size_t>(ntypes), nullptr);
  {
    FitTask<T> task;
    task.batch = &batch;
    task.caches = &fit_caches;
    task.rp_caches = &fit_batch_cache_rp_;
    task.energies = &energies;
    task.dd_base = dd_base.data();
    fit_stage(&task, 1, nullptr);
  }

  // ---- backward through the descriptor ------------------------------------
  // dG rows accumulate into per-type slabs — the embedding grad slab
  // (uncompressed) or ws.dg (compressed), mirroring g_base.
  std::vector<T*> dg_base(static_cast<std::size_t>(ntypes), nullptr);
  if (opts_.compressed) {
    ws.dg.assign(static_cast<std::size_t>(rows) * m1, T(0));
    for (int t = 0; t < ntypes; ++t) {
      dg_base[static_cast<std::size_t>(t)] =
          ws.dg.data() + static_cast<std::size_t>(type_lo(t)) * m1;
    }
  } else {
    for (int t = 0; t < ntypes; ++t) {
      const int count = emb_rows(t);
      if (count == 0) continue;
      T* slab = emb_net(t).batch_output_grad(
          count, emb_caches[static_cast<std::size_t>(t)]);
      std::fill(slab, slab + static_cast<std::size_t>(count) * m1, T(0));
      dg_base[static_cast<std::size_t>(t)] = slab;
    }
  }

  // dA per slot, then dG and dR over its packed rows — the segment sweep
  // lives in contract_backward_batch, shared with the batched trainer.
  contract_backward_batch(batch, rmat, g_base.data(), g_row_off,
                          dd_base.data(), m1, m2, inv_n, ws.a.data(),
                          dg_base.data(), ws.dr.data());

  // ---- dE/ds through the embedding: ONE backward per type per block -----
  // Compressed path walks only each segment's in-range prefix — the
  // compacted skin tails have dG = 0 and their dE/dd is written as an
  // exact zero by the chain sweep below, so their ds is never read.
  std::vector<const T*> ds_base(static_cast<std::size_t>(ntypes), nullptr);
  if (opts_.compressed) {
    ws.ds.resize(static_cast<std::size_t>(rows));
    for (int t = 0; t < ntypes; ++t) {
      for (int a = 0; a < B; ++a) {
        const int seg_lo =
            batch.seg_offset[static_cast<std::size_t>(t) * B + a];
        const int seg_end = seg_lo + batch.active_rows(t, a);
        for (int r = seg_lo; r < seg_end; ++r) {
          const T* dgrow = ws.dg.data() + static_cast<std::size_t>(r) * m1;
          const double* dgdsrow =
              ws.dgds.data() + static_cast<std::size_t>(r) * m1;
          double acc = 0;
          for (int p = 0; p < m1; ++p) {
            acc += static_cast<double>(dgrow[p]) * dgdsrow[p];
          }
          ws.ds[static_cast<std::size_t>(r)] = static_cast<T>(acc);
        }
      }
    }
    for (int t = 0; t < ntypes; ++t) {
      ds_base[static_cast<std::size_t>(t)] =
          ws.ds.data() + type_lo(t);
    }
  } else {
    for (int t = 0; t < ntypes; ++t) {
      const int count = emb_rows(t);
      if (count == 0) continue;
      ds_base[static_cast<std::size_t>(t)] =
          emb_net(t).backward_input_batch(
              count, emb_caches[static_cast<std::size_t>(t)],
              nn::GemmKind::Auto, opts_.packed_gemm);
    }
  }

  // ---- chain rule to neighbor displacements (always fp64) ----------------
  // Per-segment sweep: real work on the in-range prefix, exact zeros for
  // the compacted skin tails (their dR/dd is zeroed, their forces are
  // zero by construction — don't even read the stale workspaces).
  for (int t = 0; t < ntypes; ++t) {
    const int lo = type_lo(t);
    const T* dsb = ds_base[static_cast<std::size_t>(t)];
    for (int a = 0; a < B; ++a) {
      const int seg_lo =
          batch.seg_offset[static_cast<std::size_t>(t) * B + a];
      const int seg_hi =
          batch.seg_offset[static_cast<std::size_t>(t) * B + a + 1];
      const int seg_end = seg_lo + batch.active_rows(t, a);
      // ds of packed row r inside the type-t slab: dense rows (r - lo), or
      // the active-compacted slot when the skin-tail pack is on.
      const int ds_off =
          pack_active ? ws.gseg[static_cast<std::size_t>(t) * B + a] - seg_lo
                      : -lo;
      for (int r = seg_lo; r < seg_end; ++r) {
        const double* der =
            batch.drmat.data() + static_cast<std::size_t>(r) * 12;
        const T* drrow = ws.dr.data() + static_cast<std::size_t>(r) * 4;
        const double ds_emb = static_cast<double>(dsb[r + ds_off]);
        Vec3 grad{0, 0, 0};
        for (int axis = 0; axis < 3; ++axis) {
          double acc = 0;
          for (int c = 0; c < 4; ++c) {
            acc += static_cast<double>(drrow[c]) * der[c * 3 + axis];
          }
          acc += ds_emb * der[0 * 3 + axis];  // embedding input is R comp 0
          grad[axis] = acc;
        }
        dE_dd[static_cast<std::size_t>(r)] = grad;
      }
      for (int r = seg_end; r < seg_hi; ++r) {
        dE_dd[static_cast<std::size_t>(r)] = Vec3{0, 0, 0};
      }
    }
  }

  flops_ += dp_flops(cfg, opts_.compressed, B, batch.total_active_rows());
}

template void DPEvaluator::batch_impl<double>(
    const AtomEnvBatch&, std::vector<double>&, std::vector<Vec3>&,
    const std::vector<nn::Mlp<double>>&, const std::vector<nn::Mlp<double>>&,
    std::vector<nn::MlpCache<double>>&, std::vector<nn::MlpCache<double>>&);
template void DPEvaluator::batch_impl<float>(
    const AtomEnvBatch&, std::vector<double>&, std::vector<Vec3>&,
    const std::vector<nn::Mlp<float>>&, const std::vector<nn::Mlp<float>>&,
    std::vector<nn::MlpCache<float>>&, std::vector<nn::MlpCache<float>>&);

}  // namespace dpmd::dp
