// Machine-readable compute benchmark: per-atom vs batched Deep Potential
// evaluation on the ISSUE-1 reference config (256-atom water-like system,
// emb 25-50-100, axis 16, fitting 240^3), written as BENCH_compute.json so
// the perf trajectory is tracked from PR to PR.  Driven by
// bench/run_bench.sh or the CMake `bench` target.
//
//   usage: bench_compute_json [--smoke] [--baseline=OLD.json] [output.json]
//
// --smoke shrinks every rung to a rep or two (and the distributed legs to
// 2 steps) so the whole binary runs in seconds — registered as the
// `bench_smoke` ctest so the bench pipeline cannot silently rot.  Smoke
// numbers are build-health numbers, not measurements.
//
// The output opens with a `host` block (CPU model, cores, ISA flags,
// compiler, the library's CXX flags, git sha) so numbers are only ever
// compared within one host.  --baseline names the BENCH_compute.json an
// earlier build wrote on the same host just before; its batched_b64 and
// batched_b64_fit_fp32 rungs (median and minimum) are copied into a
// `baseline` block next to this build's, as the same-host before/after of
// a change.  The pair-style variants run round-robin, one step each per
// round, and report the median (`us_per_step`) and the minimum
// (`us_per_step_min`) of their samples.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "water256.hpp"
#include "overlap_bench.hpp"
#include "scaling_bench.hpp"
#include "core/compression.hpp"
#include "core/descriptor.hpp"
#include "core/inference.hpp"
#include "core/pair_deepmd.hpp"
#include "md/ghosts.hpp"
#include "md/lattice.hpp"
#include "md/pair_water_ref.hpp"
#include "md/sim.hpp"
#include "tofu/mempool.hpp"
#include "util/checkpoint.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

using namespace dpmd;

namespace {

constexpr int kNatoms = bench::kWater256Natoms;
constexpr int kBlock = bench::kWater256Block;
constexpr double kTimestepNs = 0.5e-6;  // 0.5 fs MD step

struct Variant {
  std::string name;
  double us_per_step = 0.0;   // one full 256-atom force evaluation (median)
  double us_per_step_min = 0.0;
  double ns_day_proxy = 0.0;  // single-rank compute-only ns/day at 0.5 fs
};

double ns_day_proxy(double us_per_step) {
  const double steps_per_day = 86400.0 * 1e6 / us_per_step;
  return steps_per_day * kTimestepNs;
}

/// Compression-table microbench (ISSUE 4): scalar per-channel eval vs the
/// SIMD channel-major eval_row over the same coefficient-major table, on
/// realistic s samples.  Reported per row (one neighbor's m1 channels).
struct TableBench {
  double scalar_ns_per_row = 0.0;
  double row_ns_per_row = 0.0;
  double speedup = 0.0;
};

TableBench bench_table(const dp::DPModel& model,
                       const std::vector<double>& s_samples, int reps,
                       int repeats) {
  const auto& cfg = model.config();
  const double s_max = 4.0 / cfg.descriptor.rcut_smth;
  const auto table = dp::CompressedEmbedding::build(
      model.embedding(0), {0.0, s_max, 1024});
  const int m1 = table.m1();
  // Real s values from the packed water-256 env rows: the realistic bin
  // distribution (and its cache locality), not a uniform sweep of a table
  // mostly unvisited in MD.
  const std::vector<double>& s = s_samples;
  const int rows = static_cast<int>(s.size());
  std::vector<double> g(static_cast<std::size_t>(m1));
  std::vector<double> dg(static_cast<std::size_t>(m1));

  TableBench out;
  double sink = 0.0;
  // Min-of-repeats, interleaved like the fused_table rung: this VM's timer
  // noise used to land entirely on whichever leg ran second, so a single
  // shot could report half the real speedup.
  for (int i = 0; i < rows; ++i) table.eval(s[i], g.data(), dg.data());
  for (int i = 0; i < rows; ++i) table.eval_row(s[i], g.data(), dg.data());
  for (int rep = 0; rep < repeats; ++rep) {
    Stopwatch ss;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < rows; ++i) table.eval(s[i], g.data(), dg.data());
      sink += g[0];
    }
    const double scalar_ns = ss.elapsed_us() * 1e3 / (reps * rows);
    Stopwatch sr;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < rows; ++i) {
        table.eval_row(s[i], g.data(), dg.data());
      }
      sink += g[0];
    }
    const double row_ns = sr.elapsed_us() * 1e3 / (reps * rows);
    if (rep == 0 || scalar_ns < out.scalar_ns_per_row) {
      out.scalar_ns_per_row = scalar_ns;
    }
    if (rep == 0 || row_ns < out.row_ns_per_row) out.row_ns_per_row = row_ns;
  }
  if (sink == 0.12345) std::printf("-");  // keep the loops observable
  out.speedup = out.scalar_ns_per_row / out.row_ns_per_row;
  return out;
}

/// Per-block slab workspaces of the unfused table+contraction phase — what
/// batch_impl allocates around the G/dG slabs, reproduced here so the phase
/// can be timed in isolation (and against the fused drivers, which need
/// none of it beyond A and the fitting slabs).
struct SlabWork {
  std::vector<double> g;     // rows x m1
  std::vector<double> dgds;  // rows x m1
  std::vector<double> dg;    // rows x m1
  std::vector<double> dr;    // rows x 4
  std::vector<double> ds;    // rows
  std::vector<double> a;     // B x 4 x m1
  std::vector<Vec3> dedd;    // rows
  std::vector<std::vector<double>> fit;  // per type: fc x m1*m2
  std::vector<std::vector<double>> dd;   // per type: fc x m1*m2 (ones)
  std::vector<const double*> g_base, dd_base;
  std::vector<double*> fit_base, dg_base;
};

SlabWork make_slab_work(const dp::AtomEnvBatch& b, int m1, int m2) {
  SlabWork w;
  const std::size_t rows = static_cast<std::size_t>(b.rows());
  w.g.resize(rows * m1);
  w.dgds.resize(rows * m1);
  w.dg.resize(rows * m1);
  w.dr.resize(rows * 4);
  w.ds.resize(rows);
  w.a.resize(static_cast<std::size_t>(b.natoms) * 4 * m1);
  w.dedd.resize(rows);
  w.fit.resize(static_cast<std::size_t>(b.ntypes));
  w.dd.resize(static_cast<std::size_t>(b.ntypes));
  w.g_base.resize(static_cast<std::size_t>(b.ntypes));
  w.dd_base.resize(static_cast<std::size_t>(b.ntypes));
  w.fit_base.resize(static_cast<std::size_t>(b.ntypes));
  w.dg_base.resize(static_cast<std::size_t>(b.ntypes));
  for (int t = 0; t < b.ntypes; ++t) {
    const int fc = b.fit_type_offset[static_cast<std::size_t>(t) + 1] -
                   b.fit_type_offset[static_cast<std::size_t>(t)];
    w.fit[static_cast<std::size_t>(t)].resize(
        static_cast<std::size_t>(fc) * m1 * m2);
    // Synthetic dE/dD = 1: a fixed, full-rank stand-in for the fitting
    // net's input gradient, identical for both pipelines.
    w.dd[static_cast<std::size_t>(t)].assign(
        static_cast<std::size_t>(fc) * m1 * m2, 1.0);
    const int lo = b.type_offset[static_cast<std::size_t>(t)];
    w.g_base[static_cast<std::size_t>(t)] =
        w.g.data() + static_cast<std::size_t>(lo) * m1;
    w.dg_base[static_cast<std::size_t>(t)] =
        w.dg.data() + static_cast<std::size_t>(lo) * m1;
    w.dd_base[static_cast<std::size_t>(t)] =
        w.dd[static_cast<std::size_t>(t)].data();
    w.fit_base[static_cast<std::size_t>(t)] =
        w.fit[static_cast<std::size_t>(t)].data();
  }
  return w;
}

/// The unfused table sweep: eval_row over every packed row into the G/dG
/// slabs, exactly as batch_impl's slab path performs it.
void slab_table_sweep(const dp::AtomEnvBatch& b,
                      const std::vector<dp::CompressedEmbedding>& tables,
                      SlabWork& w, int m1) {
  for (int t = 0; t < b.ntypes; ++t) {
    const int lo = b.type_offset[static_cast<std::size_t>(t)];
    const int hi = b.type_offset[static_cast<std::size_t>(t) + 1];
    for (int r = lo; r < hi; ++r) {
      tables[static_cast<std::size_t>(t)].eval_row(
          b.rmat[static_cast<std::size_t>(r) * 4],
          w.g.data() + static_cast<std::size_t>(r) * m1,
          w.dgds.data() + static_cast<std::size_t>(r) * m1);
    }
  }
}

/// The unfused chain tail: dE/ds through the table derivative, then the
/// fp64 chain rule to dE/dd — the loops the fused backward folds away.
void slab_chain_tail(const dp::AtomEnvBatch& b, SlabWork& w, int m1) {
  const int B = b.natoms;
  for (int t = 0; t < b.ntypes; ++t) {
    for (int a = 0; a < B; ++a) {
      const int seg_lo = b.seg_offset[static_cast<std::size_t>(t) * B + a];
      const int seg_end = seg_lo + b.active_rows(t, a);
      for (int r = seg_lo; r < seg_end; ++r) {
        const double* dgrow = w.dg.data() + static_cast<std::size_t>(r) * m1;
        const double* dgdsrow =
            w.dgds.data() + static_cast<std::size_t>(r) * m1;
        double acc = 0;
        for (int p = 0; p < m1; ++p) acc += dgrow[p] * dgdsrow[p];
        w.ds[static_cast<std::size_t>(r)] = acc;
        const double* der =
            b.drmat.data() + static_cast<std::size_t>(r) * 12;
        const double* drrow = w.dr.data() + static_cast<std::size_t>(r) * 4;
        Vec3 grad{0, 0, 0};
        for (int axis = 0; axis < 3; ++axis) {
          double s = acc * der[axis];
          for (int c = 0; c < 4; ++c) s += drrow[c] * der[c * 3 + axis];
          grad[axis] = s;
        }
        w.dedd[static_cast<std::size_t>(r)] = grad;
      }
    }
  }
}

/// Per-phase breakdown of one batched water-256 force evaluation: packed
/// env build (the rebuild-step cost) vs position-only refresh (the
/// steady-state cost), table sweep, the slab contraction (the M = 4 GEMMs
/// fused away by ISSUE 5), and the remainder of evaluate_batch.
struct PhaseBench {
  double env_build_us = 0.0;    // build_env_batch over all blocks
  double env_refresh_us = 0.0;  // refresh_env_batch, skinned keep blocks
  double table_us = 0.0;        // eval_row over all packed rows
  double contract_us = 0.0;     // slab contraction fwd+bwd (gemm_tn et al.)
  double fitnet_us = 0.0;       // fitting nets fwd + dE/dD bwd, per block
  double embed_gemm_us = 0.0;   // eval - table - contract - fitnet remainder
  double eval_us = 0.0;         // evaluate_batch total (unfused pipeline)
};

/// Fused-table ablation (ISSUE 5 acceptance rung): the combined
/// table+contraction phase — forward table -> A -> D and backward dD -> dA
/// -> force chain with a synthetic dD — timed through the unfused slab
/// pipeline vs the fused drivers, interleaved, min of `repeats`.
struct FusedBench {
  double unfused_us = 0.0;
  double fused_us = 0.0;
  double speedup = 0.0;
};

/// Fitting-net fast-path ablation (ISSUE 9): the 240^3 fitting stage —
/// forward, dy = 1, dE/dD backward on real staged D slabs — run per block
/// (the pre-sweep path: one Mlp call chain per block) vs as one multi-block
/// forward_sweep/backward_sweep.  Interleaved, min of `repeats`.
struct FitnetBench {
  double perblock_us = 0.0;
  double sweep_us = 0.0;
  double speedup = 0.0;
};

PhaseBench bench_phases(const std::shared_ptr<dp::DPModel>& model,
                        const md::Atoms& atoms_in, const md::Box& box,
                        const md::NeighborList& list, double skin, int reps,
                        FusedBench& fused_out, FitnetBench& fitnet_out,
                        int fused_repeats) {
  const auto& cfg = model->config();
  md::Atoms atoms = atoms_in;
  const int B = kBlock;
  const int nblocks = (atoms.nlocal + B - 1) / B;
  std::vector<dp::AtomEnvBatch> blocks(static_cast<std::size_t>(nblocks));
  PhaseBench out;

  const auto build_all = [&](const md::Atoms& a, const md::NeighborList& l,
                             bool keep) {
    for (int b = 0; b < nblocks; ++b) {
      const int first = b * B;
      const int count = std::min(B, a.nlocal - first);
      dp::build_env_batch(a, l, first, count, cfg.descriptor, cfg.ntypes,
                          blocks[static_cast<std::size_t>(b)], keep);
    }
  };

  build_all(atoms, list, false);
  {
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) build_all(atoms, list, false);
    out.env_build_us = sw.elapsed_us() / reps;
  }
  {
    // Refresh leg on the production shape: keep_list_rows blocks over a
    // skinned list (wider ghosts), so the skin-band rows the steady-state
    // refresh re-tests and zeroes are part of the measurement.
    md::Atoms skinned = atoms_in;
    md::build_periodic_ghosts(skinned, box, cfg.descriptor.rcut + skin);
    md::NeighborList slist({cfg.descriptor.rcut, skin, true});
    slist.build(skinned, box);
    build_all(skinned, slist, true);
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (auto& blk : blocks) {
        dp::refresh_env_batch(skinned, cfg.descriptor, blk);
      }
    }
    out.env_refresh_us = sw.elapsed_us() / reps;
    // Rebuild the skinless filtered blocks for the table/GEMM legs below.
    build_all(atoms, list, false);
  }

  const double s_max = 4.0 / cfg.descriptor.rcut_smth;
  std::vector<dp::CompressedEmbedding> tables;
  for (int t = 0; t < cfg.ntypes; ++t) {
    tables.push_back(dp::CompressedEmbedding::build(
        model->embedding(t),
        {0.0, s_max * cfg.descriptor.scale_of(t, 0), 1024}));
  }
  const int m1 = cfg.descriptor.m1();
  const int m2 = cfg.descriptor.m2();
  const double inv_n = 1.0 / cfg.descriptor.sel_total();
  std::vector<SlabWork> work;
  for (const auto& blk : blocks) work.push_back(make_slab_work(blk, m1, m2));

  const auto unfused_pass = [&]() {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& blk = blocks[b];
      SlabWork& w = work[b];
      slab_table_sweep(blk, tables, w, m1);
      std::fill(w.a.begin(), w.a.end(), 0.0);
      dp::contract_forward_batch(blk, blk.rmat.data(), w.g_base.data(),
                                 nullptr, m1, m2, inv_n, w.a.data(),
                                 w.fit_base.data());
      std::fill(w.dg.begin(), w.dg.end(), 0.0);
      dp::contract_backward_batch(blk, blk.rmat.data(), w.g_base.data(),
                                  nullptr, w.dd_base.data(), m1, m2, inv_n,
                                  w.a.data(), w.dg_base.data(), w.dr.data());
      slab_chain_tail(blk, w, m1);
    }
  };
  const auto fused_pass = [&]() {
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      const auto& blk = blocks[b];
      SlabWork& w = work[b];
      std::fill(w.a.begin(), w.a.end(), 0.0);
      dp::fused_contract_forward_batch(blk, tables, m1, m2, inv_n,
                                       w.a.data(), w.fit_base.data());
      dp::fused_contract_backward_batch(blk, tables, w.dd_base.data(), m1,
                                        m2, inv_n, w.a.data(),
                                        w.dedd.data());
    }
  };

  {
    // Table sweep over every packed row, as the unfused path performs it.
    slab_table_sweep(blocks[0], tables, work[0], m1);  // warm
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        slab_table_sweep(blocks[b], tables, work[b], m1);
      }
    }
    out.table_us = sw.elapsed_us() / reps;
  }
  {
    // Slab contraction alone (the PR-2 GEMM cast the fusion replaces):
    // A/D forward + dA/dG/dR backward over prebuilt G slabs.
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        const auto& blk = blocks[b];
        SlabWork& w = work[b];
        std::fill(w.a.begin(), w.a.end(), 0.0);
        dp::contract_forward_batch(blk, blk.rmat.data(), w.g_base.data(),
                                   nullptr, m1, m2, inv_n, w.a.data(),
                                   w.fit_base.data());
        std::fill(w.dg.begin(), w.dg.end(), 0.0);
        dp::contract_backward_batch(blk, blk.rmat.data(), w.g_base.data(),
                                    nullptr, w.dd_base.data(), m1, m2,
                                    inv_n, w.a.data(), w.dg_base.data(),
                                    w.dr.data());
      }
    }
    out.contract_us = sw.elapsed_us() / reps;
  }
  {
    // Fitting stage on the real D slabs the contraction just staged:
    // forward, dy = 1, dE/dD backward — per block (one Mlp call chain per
    // block, the pre-ISSUE-9 path) vs ONE multi-block sweep per net.
    std::vector<std::vector<nn::MlpCache<double>>> fcache(
        static_cast<std::size_t>(cfg.ntypes));
    for (auto& c : fcache) c.resize(blocks.size());
    const auto fit_count = [&](std::size_t b, int t) {
      return blocks[b].fit_type_offset[static_cast<std::size_t>(t) + 1] -
             blocks[b].fit_type_offset[static_cast<std::size_t>(t)];
    };
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (int t = 0; t < cfg.ntypes; ++t) {
        const int fc = fit_count(b, t);
        if (fc == 0) continue;
        const auto& net = model->fitting(t);
        auto& cache = fcache[static_cast<std::size_t>(t)][b];
        double* in = net.batch_input(fc, cache);
        std::copy_n(work[b].fit[static_cast<std::size_t>(t)].data(),
                    static_cast<std::size_t>(fc) * m1 * m2, in);
      }
    }
    const auto perblock_pass = [&]() {
      for (std::size_t b = 0; b < blocks.size(); ++b) {
        for (int t = 0; t < cfg.ntypes; ++t) {
          const int fc = fit_count(b, t);
          if (fc == 0) continue;
          const auto& net = model->fitting(t);
          auto& cache = fcache[static_cast<std::size_t>(t)][b];
          net.forward_batch(fc, cache, nn::GemmKind::Auto,
                            nn::GemmKind::Auto);
          double* dy = net.batch_output_grad(fc, cache);
          std::fill_n(dy, fc, 1.0);
          net.backward_input_batch(fc, cache, nn::GemmKind::Auto);
        }
      }
    };
    std::vector<nn::MlpSweepItem<double>> items;
    const auto sweep_pass = [&]() {
      for (int t = 0; t < cfg.ntypes; ++t) {
        items.clear();
        for (std::size_t b = 0; b < blocks.size(); ++b) {
          const int fc = fit_count(b, t);
          if (fc == 0) continue;
          items.push_back({fc, &fcache[static_cast<std::size_t>(t)][b]});
        }
        if (items.empty()) continue;
        const auto& net = model->fitting(t);
        net.forward_sweep(items.data(), static_cast<int>(items.size()),
                          nn::GemmKind::Auto, nn::GemmKind::Auto);
        for (const auto& it : items) {
          double* dy = net.batch_output_grad(it.m, *it.cache);
          std::fill_n(dy, it.m, 1.0);
        }
        net.backward_sweep(items.data(), static_cast<int>(items.size()),
                           nn::GemmKind::Auto);
      }
    };
    perblock_pass();
    sweep_pass();  // warm both
    {
      Stopwatch sw;
      for (int r = 0; r < reps; ++r) perblock_pass();
      out.fitnet_us = sw.elapsed_us() / reps;
    }
    for (int rep = 0; rep < fused_repeats; ++rep) {
      Stopwatch sp;
      for (int r = 0; r < reps; ++r) perblock_pass();
      const double pu = sp.elapsed_us() / reps;
      Stopwatch ss;
      for (int r = 0; r < reps; ++r) sweep_pass();
      const double su = ss.elapsed_us() / reps;
      if (rep == 0 || pu < fitnet_out.perblock_us) fitnet_out.perblock_us = pu;
      if (rep == 0 || su < fitnet_out.sweep_us) fitnet_out.sweep_us = su;
    }
    fitnet_out.speedup = fitnet_out.perblock_us / fitnet_out.sweep_us;
  }
  {
    // Fused ablation: interleaved min-of-repeats of the combined phase.
    unfused_pass();
    fused_pass();  // warm both
    fused_out.unfused_us = 0.0;
    fused_out.fused_us = 0.0;
    for (int rep = 0; rep < fused_repeats; ++rep) {
      Stopwatch su;
      for (int r = 0; r < reps; ++r) unfused_pass();
      const double uu = su.elapsed_us() / reps;
      Stopwatch sf;
      for (int r = 0; r < reps; ++r) fused_pass();
      const double fu = sf.elapsed_us() / reps;
      if (rep == 0 || uu < fused_out.unfused_us) fused_out.unfused_us = uu;
      if (rep == 0 || fu < fused_out.fused_us) fused_out.fused_us = fu;
    }
    fused_out.speedup = fused_out.unfused_us / fused_out.fused_us;
  }
  {
    // The breakdown decomposes the *unfused* slab pipeline (table_us and
    // contract_us are its stages), so the whole-eval reference must run
    // unfused too — the fused default would skew gemm_us by the fusion
    // saving.  The fused-vs-unfused comparison lives in the fused_table
    // rung above, not here.
    dp::EvalOptions unfused_opts;
    unfused_opts.fused_table = false;
    dp::DPEvaluator ev(model, unfused_opts);
    std::vector<double> energies;
    std::vector<Vec3> dedd;
    for (const auto& blk : blocks) ev.evaluate_batch(blk, energies, dedd);
    Stopwatch sw;
    for (int r = 0; r < reps; ++r) {
      for (const auto& blk : blocks) ev.evaluate_batch(blk, energies, dedd);
    }
    out.eval_us = sw.elapsed_us() / reps;
  }
  out.embed_gemm_us = std::max(
      0.0, out.eval_us - out.table_us - out.contract_us - out.fitnet_us);
  return out;
}

/// Checkpoint-overhead rung (ISSUE 6): what the --checkpoint-every=50
/// safety net costs a production run.  Driven on the water-256 cell with
/// the cheap reference potential so the measured delta is the checkpoint
/// machinery (serialize + checksum + tmp-file rename), not force work.
struct CkptBench {
  int cadence = 50;
  std::size_t bytes = 0;          // one framed snapshot
  double write_us = 0.0;          // one save_checkpoint_file call
  double base_us_per_step = 0.0;  // no checkpointing
  double ckpt_us_per_step = 0.0;  // save_checkpoint_file every `cadence`
  double overhead_fraction = 0.0;
};

CkptBench bench_checkpoint(int steps, int cadence) {
  const auto mk_sim = [] {
    // The MD-stable water-like box (the water_rdf system, 4^3 molecules =
    // 192 atoms), not the bench packing: this rung runs real dynamics.
    Rng rng(17);
    md::Box box;
    md::Atoms atoms = md::make_water_like(4, 0.0334, 0.97, rng, box);
    md::thermalize(atoms, {md::kMassO, md::kMassH}, 300.0, rng);
    auto sim = std::make_unique<md::Sim>(
        box, std::move(atoms), std::vector<double>{md::kMassO, md::kMassH},
        std::make_shared<md::PairWaterRef>(),
        md::SimConfig{.dt_fs = 0.5, .skin = 0.6, .rebuild_every = 10});
    sim->setup();
    return sim;
  };
  const std::string path = "BENCH_ckpt_probe.ckpt";

  CkptBench out;
  out.cadence = cadence;
  {
    auto sim = mk_sim();
    ckpt::Writer w;
    sim->save_checkpoint(w);
    out.bytes = w.framed().size();
    Stopwatch sw;
    const int writes = 5;
    for (int i = 0; i < writes; ++i) sim->save_checkpoint_file(path);
    out.write_us = sw.elapsed_us() / writes;
  }
  {
    auto sim = mk_sim();
    Stopwatch sw;
    sim->run(steps);
    out.base_us_per_step = sw.elapsed_us() / steps;
  }
  {
    auto sim = mk_sim();
    Stopwatch sw;
    sim->run(steps, 1, [&](int step, const md::Sim& s) {
      if (step % cadence == 0) s.save_checkpoint_file(path);
    });
    out.ckpt_us_per_step = sw.elapsed_us() / steps;
  }
  std::remove(path.c_str());
  out.overhead_fraction =
      out.ckpt_us_per_step / out.base_us_per_step - 1.0;
  return out;
}

/// Serving-arena rung (ISSUE 8): the per-job scratch pattern of the serve
/// subsystem — a concatenated gang force buffer plus node-based tag->slot
/// bookkeeping — allocated per job on the fresh heap vs re-bumped through
/// a warm tofu::BumpArena.  The contiguous buffers are a wash (malloc's
/// tcache handles repeated same-size blocks well); the map nodes are where
/// the bump allocator's constant-time alloc + wholesale reclaim pays.
struct MempoolBench {
  double heap_ns_per_job = 0.0;
  double arena_ns_per_job = 0.0;
  double speedup = 0.0;
};

MempoolBench bench_mempool(int jobs) {
  constexpr int kGangAtoms = 1024;  // concatenated locals + ghosts
  constexpr int kTags = 64;         // per-gang tag->slot bookkeeping
  MempoolBench out;
  double sink = 0.0;
  {
    Stopwatch sw;
    for (int j = 0; j < jobs; ++j) {
      std::vector<Vec3> fbuf(kGangAtoms, Vec3{});
      std::map<int, double> slot_energy;
      for (int i = 0; i < kTags; ++i) {
        slot_energy[(i * 7 + j) % kTags] = i;
      }
      fbuf[kGangAtoms - 1].x += slot_energy.begin()->second + j;
      sink += fbuf[kGangAtoms - 1].x;
    }
    out.heap_ns_per_job = sw.elapsed_us() * 1e3 / jobs;
  }
  {
    tofu::BumpArena arena(std::size_t{1} << 20);
    using ArenaMap = std::map<int, double, std::less<int>,
                              tofu::ArenaAllocator<std::pair<const int, double>>>;
    Stopwatch sw;
    for (int j = 0; j < jobs; ++j) {
      std::vector<Vec3, tofu::ArenaAllocator<Vec3>> fbuf(
          kGangAtoms, Vec3{}, tofu::ArenaAllocator<Vec3>(arena));
      ArenaMap slot_energy{
          tofu::ArenaAllocator<std::pair<const int, double>>(arena)};
      for (int i = 0; i < kTags; ++i) {
        slot_energy[(i * 7 + j) % kTags] = i;
      }
      fbuf[kGangAtoms - 1].x += slot_energy.begin()->second + j;
      sink += fbuf[kGangAtoms - 1].x;
      arena.reset();
    }
    out.arena_ns_per_job = sw.elapsed_us() * 1e3 / jobs;
  }
  if (sink == 12345.6789) std::printf("\n");  // defeat dead-code elimination
  out.speedup = out.heap_ns_per_job / out.arena_ns_per_job;
  return out;
}

/// First line of `cmd`'s stdout ("" when it fails or prints nothing).
std::string command_line_output(const std::string& cmd) {
  std::FILE* p = popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  char buf[512] = {};
  const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
  const int status = pclose(p);
  if (!got || status != 0) return "";
  std::string line(buf);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.pop_back();
  }
  return line;
}

/// JSON string literal (the host strings carry no control characters;
/// quotes and backslashes are escaped).
std::string json_str(const std::string& v) {
  std::string out = "\"";
  for (const char ch : v) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

/// The host and build fingerprint: the same fields perfbench/run.py
/// records.  The build directory is the executable's own (CMake puts the
/// benches next to CMakeFiles/), which locates the library's flags.make
/// and the checkout for git.
std::string host_block() {
  std::string cpu_model = "unknown";
  std::set<std::string> flags;
  {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      const auto colon = line.find(':');
      if (colon == std::string::npos) continue;
      const std::string val =
          colon + 2 <= line.size() ? line.substr(colon + 2) : "";
      const auto starts = [&](const char* key) {
        return line.rfind(key, 0) == 0;
      };
      if (starts("model name") && cpu_model == "unknown") {
        cpu_model = val;
      } else if ((starts("flags") || starts("Features")) && flags.empty()) {
        std::istringstream words(val);
        flags.insert(std::istream_iterator<std::string>(words),
                     std::istream_iterator<std::string>());
      }
    }
  }
  std::string isa;
  for (const char* f : {"sse4_2", "avx", "avx2", "fma", "f16c", "avx512f",
                        "avx512bw", "avx512vl", "avx512_vnni", "avx512_bf16",
                        "amx_tile", "asimd", "sve", "sve2"}) {
    if (flags.count(f) != 0) isa += (isa.empty() ? "" : ", ") + json_str(f);
  }
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "GCC " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::string build_dir = ".";
  {
    char exe[4096] = {};
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len > 0) {
      build_dir.assign(exe, static_cast<std::size_t>(len));
      build_dir.erase(build_dir.rfind('/'));
    }
  }
  std::string cxx_flags = "unknown";
  {
    std::ifstream in(build_dir + "/CMakeFiles/dpmd.dir/flags.make");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("CXX_FLAGS", 0) == 0) {
        const auto eq = line.find('=');
        cxx_flags = line.substr(line.find_first_not_of(' ', eq + 1));
      }
    }
  }
  const std::string git = "git -C '" + build_dir + "' ";
  const std::string sha =
      command_line_output(git + "rev-parse HEAD 2>/dev/null");
  // Uncommitted changes to tracked files mean the numbers are not those of
  // `sha` alone.
  const bool dirty =
      !sha.empty() &&
      command_line_output(git + "diff --quiet HEAD 2>/dev/null || echo d") ==
          "d";
  std::ostringstream out;
  out << "  \"host\": {\n"
      << "    \"cpu_model\": " << json_str(cpu_model) << ",\n"
      << "    \"cores\": " << std::thread::hardware_concurrency() << ",\n"
      << "    \"isa\": [" << isa << "],\n"
      << "    \"compiler\": " << json_str(compiler) << ",\n"
      << "    \"cxx_flags\": " << json_str(cxx_flags) << ",\n"
      << "    \"git_sha\": " << (sha.empty() ? "null" : json_str(sha))
      << ",\n"
      << "    \"git_dirty\": " << (dirty ? "true" : "false") << "\n"
      << "  },\n";
  return out.str();
}

/// Field `key` (us_per_step or us_per_step_min) of variant `name` in a
/// BENCH_compute.json text (its variants lines are written by this
/// program; 0 when absent — files from before the round-robin timing carry
/// no us_per_step_min).
double variant_field(const std::string& json, const std::string& name,
                     const std::string& key) {
  const auto at = json.find("\"name\": \"" + name + "\",");
  if (at == std::string::npos) return 0.0;
  const auto eol = json.find('\n', at);
  const std::string k = "\"" + key + "\": ";
  const auto v = json.find(k, at);
  return v == std::string::npos || v > eol
             ? 0.0
             : std::strtod(json.c_str() + v + k.size(), nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_compute.json";
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      out_path = argv[i];
    }
  }
  std::string baseline;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", baseline_path.c_str());
      return 1;
    }
    baseline.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const int reps = smoke ? 2 : 20;
  const int table_reps = smoke ? 2 : 40;
  const int fused_repeats = smoke ? 1 : 5;

  auto model = bench::water256_model();
  const auto& cfg = model->config();
  md::Box box;
  md::Atoms atoms = bench::water256_atoms(box);
  md::build_periodic_ghosts(atoms, box, cfg.descriptor.rcut);
  md::NeighborList list({cfg.descriptor.rcut, 0.0, true});
  list.build(atoms, box);

  // Full pair-style timing (env build + evaluation + force scatter), the
  // honest per-step number a simulation would pay.  The variants run
  // round-robin, one step each per round, so host speed drift spreads
  // over all of them instead of landing between them; each reports the
  // median and the minimum of its `reps` samples.
  struct TimedVariant {
    std::string name;
    std::unique_ptr<dp::PairDeepMD> pair;
    md::Atoms work;
    std::vector<double> us;
  };
  std::vector<TimedVariant> timed;
  const auto add_variant = [&](std::string name, int block_size,
                               bool compressed, bool fused_table = true,
                               dp::FittingPrecision fitprec =
                                   dp::FittingPrecision::Inherit) {
    dp::EvalOptions opts;  // double, GemmKind::Auto
    opts.block_size = block_size;
    opts.compressed = compressed;
    opts.fused_table = fused_table;
    opts.fitting_precision = fitprec;
    TimedVariant v{std::move(name),
                   std::make_unique<dp::PairDeepMD>(model, opts), atoms, {}};
    v.work.zero_forces();
    v.pair->compute(v.work, list);  // warm-up: builds tables and caches
    timed.push_back(std::move(v));
  };
  add_variant("per_atom", 1, true);
  add_variant("batched_b64", kBlock, true);
  // End-to-end fused ablation (ISSUE 5): identical pipeline with the
  // unfused slab path selected — the per-step cost of the G/dG slabs plus
  // the M = 4 contraction GEMMs the fusion removes.
  add_variant("batched_b64_unfused_table", kBlock, true,
              /*fused_table=*/false);
  // Reduced-precision fitting rungs (ISSUE 9, §III-B3): fp64 pipeline with
  // the 240^3 fitting nets in fp32 / bf16-stored weights, energy head and
  // force chain re-accumulated in fp64.
  add_variant("batched_b64_fit_fp32", kBlock, true, true,
              dp::FittingPrecision::Fp32);
  add_variant("batched_b64_fit_bf16", kBlock, true, true,
              dp::FittingPrecision::Bf16);
  // Full-embedding rungs (PR 2): the mode the GEMM-cast descriptor
  // contraction gains the most, tracked since ISSUE 2.
  add_variant("per_atom_fullemb", 1, false);
  add_variant("batched_b64_fullemb", kBlock, false);
  for (int r = 0; r < reps; ++r) {
    for (auto& v : timed) {
      v.work.zero_forces();
      Stopwatch sw;
      v.pair->compute(v.work, list);
      v.us.push_back(sw.elapsed_us());
    }
  }
  std::vector<Variant> variants;
  for (auto& v : timed) {
    std::sort(v.us.begin(), v.us.end());
    const std::size_t n = v.us.size();
    const double median =
        n % 2 == 1 ? v.us[n / 2] : 0.5 * (v.us[n / 2 - 1] + v.us[n / 2]);
    variants.push_back({v.name, median, v.us.front(), 0.0});
  }
  timed.clear();
  for (auto& v : variants) v.ns_day_proxy = ns_day_proxy(v.us_per_step);
  const double speedup =
      variants[0].us_per_step / variants[1].us_per_step;
  const double fused_e2e_speedup =
      variants[2].us_per_step / variants[1].us_per_step;
  const double fullemb_speedup =
      variants[5].us_per_step / variants[6].us_per_step;

  // Overlap rung (ISSUE 3): 2-rank DomainEngine on the water-256 cell
  // tiled to 512 atoms, staged DP evaluation with the halo exchange
  // overlapped vs sequential, and the hidden-exchange fraction.
  const bench::OverlapMeasurement ovl =
      smoke ? bench::measure_overlap(2, 0, 1) : bench::measure_overlap();

  // ISSUE 4 rungs: table microbench, per-phase breakdown, cadence sweep.
  std::vector<double> s_samples;
  {
    dp::AtomEnvBatch probe;
    dp::build_env_batch(atoms, list, 0, atoms.nlocal, cfg.descriptor,
                        cfg.ntypes, probe);
    for (int r = 0; r < probe.rows(); ++r) {
      s_samples.push_back(probe.rmat[static_cast<std::size_t>(r) * 4]);
    }
  }
  const TableBench tbl =
      bench_table(*model, s_samples, table_reps, fused_repeats);
  FusedBench fused;
  FitnetBench fitnet;
  const PhaseBench ph = bench_phases(model, atoms, box, list, 0.6, reps,
                                     fused, fitnet, fused_repeats);
  // Cadence 1 runs skinless (the honest rebuild-every-step baseline: no
  // skin is needed if you rebuild anyway); the amortized rungs use the
  // widest skin the water-512 two-rank decomposition admits.
  const std::vector<bench::CadenceMeasurement> cadence =
      smoke ? bench::measure_cadence_sweep({{1, 0.0}, {2, 0.6}}, 2, 1)
            : bench::measure_cadence_sweep({{1, 0.0}, {10, 0.6}, {50, 0.6}});

  // ISSUE 6 rung: the cost of the checkpoint safety net at the paper's
  // 50-step cadence (smoke: a handful of steps at cadence 10).
  const CkptBench ckpt = smoke ? bench_checkpoint(20, 10)
                               : bench_checkpoint(200, 50);

  // ISSUE 7 rung: 2-rank live rebalance A/B on the corner LJ droplet —
  // the cheap structural check that the boundary-shift planner still
  // flattens a measured pair-time skew (the full 4-rank A/B lives in
  // bench_fig10_table3_loadbalance).
  const bench::RebalanceAB reb =
      smoke ? bench::measure_rebalance_ab(2, 1, 1, 7, 7, 4, 10, 10, 1)
            : bench::measure_rebalance_ab(2, 1, 1, 7, 7, 4, 30, 40, 2);

  // ISSUE 8 rung: per-job arena scratch vs fresh heap (the serving
  // subsystem's allocation pattern).
  const MempoolBench mem = bench_mempool(smoke ? 2000 : 20000);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"dp_compute_water256\",\n");
  std::fprintf(f, "%s", host_block().c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"natoms\": %d,\n", kNatoms);
  std::fprintf(f, "  \"block_size\": %d,\n", kBlock);
  std::fprintf(f, "  \"model\": \"emb 25-50-100, axis 16, fit 240^3, "
                  "sel 46/92, fp64 compressed\",\n");
  std::fprintf(f, "  \"timestep_fs\": 0.5,\n");
  std::fprintf(f, "  \"variant_timing\": \"round-robin, %d samples each: "
                  "us_per_step is the median, us_per_step_min the "
                  "minimum\",\n",
               reps);
  std::fprintf(f, "  \"variants\": [\n");
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const auto& v = variants[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"us_per_step\": %.2f, "
                 "\"us_per_step_min\": %.2f, \"us_per_atom\": %.3f, "
                 "\"ns_day_proxy\": %.4f}%s\n",
                 v.name.c_str(), v.us_per_step, v.us_per_step_min,
                 v.us_per_step / kNatoms, v.ns_day_proxy,
                 i + 1 < variants.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"batched_speedup\": %.3f,\n", speedup);
  std::fprintf(f, "  \"fullemb_batched_speedup\": %.3f,\n", fullemb_speedup);
  if (!baseline.empty()) {
    const std::string src = baseline_path.substr(baseline_path.rfind('/') + 1);
    std::fprintf(f, "  \"baseline\": {\n");
    std::fprintf(f, "    \"source\": %s,\n", json_str(src).c_str());
    std::fprintf(f, "    \"rungs\": [\n");
    const std::size_t rungs[] = {1, 3};  // batched_b64, batched_b64_fit_fp32
    for (const std::size_t r : rungs) {
      const auto& v = variants[r];
      const double before = variant_field(baseline, v.name, "us_per_step");
      const double before_min =
          variant_field(baseline, v.name, "us_per_step_min");
      std::fprintf(f,
                   "      {\"name\": \"%s\", \"us_per_step_before\": %.2f, "
                   "\"us_per_step_after\": %.2f, \"speedup\": %.3f, "
                   "\"us_per_step_min_before\": %.2f, "
                   "\"us_per_step_min_after\": %.2f, "
                   "\"speedup_min\": %.3f}%s\n",
                   v.name.c_str(), before, v.us_per_step,
                   before > 0.0 ? before / v.us_per_step : 0.0, before_min,
                   v.us_per_step_min,
                   before_min > 0.0 ? before_min / v.us_per_step_min : 0.0,
                   r == rungs[1] ? "" : ",");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"overlap\": {\n");
  std::fprintf(f, "    \"system\": \"water-256 cell tiled 2x (512 atoms), "
                  "2 ranks, %u threads/rank, block %d\",\n",
               ovl.threads_per_rank, kBlock);
  std::fprintf(f, "    \"hardware_threads\": %u,\n", ovl.hardware_threads);
  std::fprintf(f, "    \"us_per_step_overlap_on\": %.1f,\n",
               ovl.on_us_per_step);
  std::fprintf(f, "    \"us_per_step_overlap_off\": %.1f,\n",
               ovl.off_us_per_step);
  std::fprintf(f, "    \"halo_us_per_step_off\": %.1f,\n", ovl.halo_off_us);
  std::fprintf(f, "    \"halo_us_per_step_on\": %.1f,\n", ovl.halo_on_us);
  std::fprintf(f, "    \"hidden_exchange_fraction\": %.3f\n",
               ovl.hidden_fraction);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"table_eval\": {\n");
  std::fprintf(f, "    \"m1\": 100, \"bins\": 1024, \"min_of\": %d,\n",
               fused_repeats);
  std::fprintf(f, "    \"scalar_ns_per_row\": %.2f,\n", tbl.scalar_ns_per_row);
  std::fprintf(f, "    \"eval_row_ns_per_row\": %.2f,\n", tbl.row_ns_per_row);
  std::fprintf(f, "    \"speedup\": %.2f\n", tbl.speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"phases\": {\n");
  std::fprintf(f, "    \"system\": \"water-256 single process, block %d, "
                  "fp64 compressed\",\n", kBlock);
  std::fprintf(f, "    \"env_build_us\": %.1f,\n", ph.env_build_us);
  std::fprintf(f, "    \"env_refresh_us\": %.1f,\n", ph.env_refresh_us);
  std::fprintf(f, "    \"table_us\": %.1f,\n", ph.table_us);
  std::fprintf(f, "    \"contract_us\": %.1f,\n", ph.contract_us);
  std::fprintf(f, "    \"fitnet_us\": %.1f,\n", ph.fitnet_us);
  std::fprintf(f, "    \"embed_gemm_us\": %.1f,\n", ph.embed_gemm_us);
  std::fprintf(f, "    \"eval_us\": %.1f\n", ph.eval_us);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fitnet\": {\n");
  std::fprintf(f, "    \"system\": \"water-256 fitting stage (240^3, fp64), "
                  "real D slabs, fwd + dE/dD bwd, min of %d interleaved\",\n",
               fused_repeats);
  std::fprintf(f, "    \"perblock_us\": %.1f,\n", fitnet.perblock_us);
  std::fprintf(f, "    \"sweep_us\": %.1f,\n", fitnet.sweep_us);
  std::fprintf(f, "    \"sweep_speedup\": %.2f\n", fitnet.speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fused_table\": {\n");
  std::fprintf(f, "    \"system\": \"water-256 single process, block %d, "
                  "fp64 compressed, table+contraction fwd+bwd, min of %d "
                  "interleaved\",\n", kBlock, fused_repeats);
  std::fprintf(f, "    \"unfused_us\": %.1f,\n", fused.unfused_us);
  std::fprintf(f, "    \"fused_us\": %.1f,\n", fused.fused_us);
  std::fprintf(f, "    \"phase_speedup\": %.2f,\n", fused.speedup);
  std::fprintf(f, "    \"end_to_end_speedup\": %.2f\n", fused_e2e_speedup);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"cadence\": {\n");
  std::fprintf(f, "    \"system\": \"water-256 tiled 2x (512 atoms), 2 ranks, "
                  "staged+overlap, block %d\",\n", kBlock);
  std::fprintf(f, "    \"rungs\": [\n");
  for (std::size_t i = 0; i < cadence.size(); ++i) {
    const auto& c = cadence[i];
    std::fprintf(f,
                 "      {\"rebuild_every\": %d, \"skin\": %.2f, "
                 "\"steps\": %d, \"rebuilds\": %d, \"us_per_step\": %.1f, "
                 "\"halo_us\": %.1f, \"neigh_us\": %.1f, "
                 "\"pair_us\": %.1f}%s\n",
                 c.rebuild_every, c.skin, c.steps, c.rebuilds, c.us_per_step,
                 c.halo_us, c.neigh_us, c.pair_us,
                 i + 1 < cadence.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"checkpoint\": {\n");
  std::fprintf(f, "    \"system\": \"water-like 192 atoms single process, "
                  "reference potential, save_checkpoint_file every %d "
                  "steps\",\n",
               ckpt.cadence);
  std::fprintf(f, "    \"snapshot_bytes\": %zu,\n", ckpt.bytes);
  std::fprintf(f, "    \"write_us\": %.1f,\n", ckpt.write_us);
  std::fprintf(f, "    \"base_us_per_step\": %.1f,\n", ckpt.base_us_per_step);
  std::fprintf(f, "    \"ckpt_us_per_step\": %.1f,\n", ckpt.ckpt_us_per_step);
  std::fprintf(f, "    \"overhead_fraction\": %.4f\n",
               ckpt.overhead_fraction);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"rebalance_2rank\": {\n");
  std::fprintf(f, "    \"system\": \"corner LJ droplet, %d atoms, 2x1x1 "
                  "ranks, rebuild 5, rebalance 5, damping 1.0\",\n",
               reb.uniform.natoms);
  std::fprintf(f, "    \"uniform_imbalance_excess\": %.4f,\n",
               reb.uniform.imbalance_excess);
  std::fprintf(f, "    \"balanced_imbalance_excess\": %.4f,\n",
               reb.balanced.imbalance_excess);
  std::fprintf(f, "    \"imbalance_excess_ratio\": %.4f,\n",
               reb.excess_ratio);
  std::fprintf(f, "    \"rebalances\": %d\n", reb.balanced.rebalances);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"mempool\": {\n");
  std::fprintf(f, "    \"pattern\": \"per-job gang scratch: 1024 Vec3 force "
                  "buffer + 64-node tag->slot map\",\n");
  std::fprintf(f, "    \"heap_ns_per_job\": %.1f,\n", mem.heap_ns_per_job);
  std::fprintf(f, "    \"arena_ns_per_job\": %.1f,\n", mem.arena_ns_per_job);
  std::fprintf(f, "    \"speedup\": %.2f\n", mem.speedup);
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("per-atom          : %8.1f us/step (%6.2f us/atom)\n",
              variants[0].us_per_step, variants[0].us_per_step / kNatoms);
  std::printf("batched fused     : %8.1f us/step (%6.2f us/atom)  [B=%d]\n",
              variants[1].us_per_step, variants[1].us_per_step / kNatoms,
              kBlock);
  std::printf("batched unfused   : %8.1f us/step (%6.2f us/atom)\n",
              variants[2].us_per_step, variants[2].us_per_step / kNatoms);
  std::printf("batched fit-fp32  : %8.1f us/step (%6.2f us/atom)  [B=%d]\n",
              variants[3].us_per_step, variants[3].us_per_step / kNatoms,
              kBlock);
  std::printf("batched fit-bf16  : %8.1f us/step (%6.2f us/atom)  [B=%d]\n",
              variants[4].us_per_step, variants[4].us_per_step / kNatoms,
              kBlock);
  std::printf("per-atom full-emb : %8.1f us/step (%6.2f us/atom)\n",
              variants[5].us_per_step, variants[5].us_per_step / kNatoms);
  std::printf("batched full-emb  : %8.1f us/step (%6.2f us/atom)  [B=%d]\n",
              variants[6].us_per_step, variants[6].us_per_step / kNatoms,
              kBlock);
  std::printf("overlap (512 atoms, 2 ranks): %8.1f us/step on, %8.1f off; "
              "halo %.1f us, %.0f%% hidden\n",
              ovl.on_us_per_step, ovl.off_us_per_step, ovl.halo_off_us,
              100.0 * ovl.hidden_fraction);
  std::printf("table eval: %.1f ns/row scalar, %.1f ns/row eval_row "
              "(%.2fx)\n",
              tbl.scalar_ns_per_row, tbl.row_ns_per_row, tbl.speedup);
  std::printf("phases (256 atoms): env build %.0f us, refresh %.0f us, "
              "table %.0f us, contract %.0f us, fitnet %.0f us, "
              "rest %.0f us\n",
              ph.env_build_us, ph.env_refresh_us, ph.table_us, ph.contract_us,
              ph.fitnet_us, ph.embed_gemm_us);
  std::printf("fitnet stage: %.0f us per-block, %.0f us sweep (%.2fx)\n",
              fitnet.perblock_us, fitnet.sweep_us, fitnet.speedup);
  std::printf("fused table+contract phase: %.0f us unfused, %.0f us fused "
              "(%.2fx; end-to-end %.2fx)\n",
              fused.unfused_us, fused.fused_us, fused.speedup,
              fused_e2e_speedup);
  for (const auto& c : cadence) {
    std::printf("cadence %2d (skin %.2f): %8.1f us/step amortized "
                "(%d rebuilds/%d steps; halo %.0f, neigh %.0f, pair %.0f)\n",
                c.rebuild_every, c.skin, c.us_per_step, c.rebuilds, c.steps,
                c.halo_us, c.neigh_us, c.pair_us);
  }
  std::printf("job-scratch mempool: %.0f ns/job heap, %.0f ns/job arena "
              "(%.2fx)\n",
              mem.heap_ns_per_job, mem.arena_ns_per_job, mem.speedup);
  std::printf("checkpoint (cadence %d): %zu bytes, %.0f us/write, "
              "%.1f -> %.1f us/step (%.2f%% overhead)\n",
              ckpt.cadence, ckpt.bytes, ckpt.write_us, ckpt.base_us_per_step,
              ckpt.ckpt_us_per_step, 100.0 * ckpt.overhead_fraction);
  std::printf("rebalance (2 ranks, %d atoms): pair imbalance excess "
              "%.3f -> %.3f (ratio %.2f, %d shifts)\n",
              reb.uniform.natoms, reb.uniform.imbalance_excess,
              reb.balanced.imbalance_excess, reb.excess_ratio,
              reb.balanced.rebalances);
  std::printf("speedup  : %.2fx compressed, %.2fx full-emb  -> %s\n", speedup,
              fullemb_speedup, out_path.c_str());
  return 0;
}
