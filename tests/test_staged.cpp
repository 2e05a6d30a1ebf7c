// Staged force API (ISSUE 3): the staged begin_step / compute_partition /
// end_step schedule must produce, every step, the forces and potential
// energy of the fresh monolithic oracle (Pair::compute on new ghosts and
// exact-cutoff lists, tests/reference_forces.hpp) across every pair style —
// including the default adapter (EAM) and the natively partitioned Deep
// Potential — on both the single-process Sim and the distributed
// DomainEngine, with exchange/compute overlap on and off (which must also
// agree with each other).  Plus the interior/boundary classification edge
// cases and the async runtime/comm primitives the overlap path is built on.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>

#include "comm/domain_engine.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/pair_eam.hpp"
#include "md/pair_lj.hpp"
#include "md/pair_morse.hpp"
#include "md/pair_water_ref.hpp"
#include "md/partition.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "reference_forces.hpp"
#include "runtime/threadpool.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace dpmd {
namespace {

// ---------------------------------------------------------------------------
// Partition classification edge cases
// ---------------------------------------------------------------------------

TEST(Partition, StrictMarginClassification) {
  md::Box box({0, 0, 0}, {20, 20, 20});
  md::Atoms atoms;
  atoms.add_local({5.0, 10, 10}, {0, 0, 0}, 0, 0);   // exactly at margin
  atoms.add_local({5.001, 10, 10}, {0, 0, 0}, 0, 1); // just inside
  atoms.add_local({4.0, 10, 10}, {0, 0, 0}, 0, 2);   // clearly boundary
  atoms.add_local({10, 10, 15.0}, {0, 0, 0}, 0, 3);  // exactly at hi margin
  atoms.add_local({10, 10, 10}, {0, 0, 0}, 0, 4);    // center

  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  // An atom exactly margin from a face is conservatively boundary: its
  // stencil touches the face, so a neighbor could be a ghost.
  EXPECT_EQ(part.boundary, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(part.interior, (std::vector<int>{1, 4}));
  EXPECT_EQ(part.nlocal(), atoms.nlocal);
}

TEST(Partition, EmptyInteriorWhenBoxSmallerThanTwiceMargin) {
  md::Box box({0, 0, 0}, {8, 8, 8});
  md::Atoms atoms;
  for (int i = 0; i < 10; ++i) {
    atoms.add_local({0.8 * i, 4.0, 4.0}, {0, 0, 0}, 0, i);
  }
  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  EXPECT_TRUE(part.interior.empty());
  EXPECT_EQ(static_cast<int>(part.boundary.size()), atoms.nlocal);
}

TEST(Partition, EmptyBoundaryWhenAllAtomsDeepInside) {
  md::Box box({0, 0, 0}, {40, 40, 40});
  md::Atoms atoms;
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    atoms.add_local({rng.uniform(18.0, 22.0), rng.uniform(18.0, 22.0),
                     rng.uniform(18.0, 22.0)},
                    {0, 0, 0}, 0, i);
  }
  md::StagePartition part;
  md::classify_partition(atoms, box, 5.0, part);
  EXPECT_TRUE(part.boundary.empty());
  EXPECT_EQ(static_cast<int>(part.interior.size()), atoms.nlocal);
}

// ---------------------------------------------------------------------------
// Sim: staged == fresh monolithic oracle for every pair style
// ---------------------------------------------------------------------------

struct GasSystem {
  md::Box box;
  md::Atoms atoms;
  std::vector<double> masses;
};

/// Two-type gas with a minimum separation (keeps every style stable).
GasSystem make_gas(int natoms, double box_len, double min_sep, int ntypes,
                   double t_kelvin, uint64_t seed) {
  GasSystem sys;
  sys.box = md::Box::cubic(box_len);
  sys.masses.assign(static_cast<std::size_t>(ntypes), 20.0);
  Rng rng(seed);
  int placed = 0;
  while (placed < natoms) {
    const Vec3 p{rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
                 rng.uniform(0.0, box_len)};
    bool ok = true;
    for (int i = 0; i < placed && ok; ++i) {
      ok = sys.box.minimum_image(p, sys.atoms.x[static_cast<std::size_t>(i)])
               .norm() >= min_sep;
    }
    if (!ok) continue;
    sys.atoms.add_local(p, {0, 0, 0}, placed % ntypes, placed);
    ++placed;
  }
  md::thermalize(sys.atoms, sys.masses, t_kelvin, rng);
  return sys;
}

/// Runs the staged Sim and, at setup and after every step, checks its
/// forces (|df| < ftol), potential energy and virial (relative ftol)
/// against the fresh monolithic oracle at the Sim's own positions.
void expect_staged_matches_oracle(const GasSystem& sys,
                                  const oracle::PairFactory& mk, int steps,
                                  double ftol) {
  md::Atoms atoms = sys.atoms;
  md::SimConfig cfg{.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 4};
  md::Sim sim(sys.box, std::move(atoms), sys.masses, mk(), cfg);
  sim.setup();
  for (int s = 0; s <= steps; ++s) {
    if (s > 0) sim.step();
    const md::Atoms& at = sim.atoms();
    const auto n = static_cast<std::size_t>(at.nlocal);
    const oracle::Reference ref = oracle::reference_forces(
        sys.box, std::vector<Vec3>(at.x.begin(), at.x.begin() + n),
        std::vector<int>(at.type.begin(), at.type.begin() + n), mk);
    EXPECT_NEAR(sim.pe(), ref.pe, ftol * std::max(1.0, std::fabs(ref.pe)))
        << "step " << s;
    EXPECT_NEAR(sim.virial(), ref.virial,
                ftol * std::max(1.0, std::fabs(ref.virial)))
        << "step " << s;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_LT((at.f[i] - ref.f[i]).norm(), ftol)
          << "step " << s << " atom " << i;
    }
  }
}

TEST(StagedSim, LjMatchesMonolithic) {
  const GasSystem sys = make_gas(120, 22.0, 3.0, 1, 60.0, 11);
  expect_staged_matches_oracle(
      sys,
      [] {
        auto p = std::make_shared<md::PairLJ>(1, 5.0);
        p->set_pair(0, 0, 0.0104, 3.4);
        return p;
      },
      12, 1e-11);
}

TEST(StagedSim, MorseMatchesMonolithic) {
  const GasSystem sys = make_gas(100, 20.0, 2.6, 1, 80.0, 13);
  expect_staged_matches_oracle(
      sys,
      [] {
        auto p = std::make_shared<md::PairMorse>(1, 4.5);
        p->set_pair(0, 0, 0.05, 1.5, 2.8);
        return p;
      },
      12, 1e-11);
}

TEST(StagedSim, EamDefaultAdapterMatchesMonolithic) {
  // EAM keeps the monolithic compute (many-body density coupling) and goes
  // through the default staged adapter: partitions defer, end_step runs
  // compute() after the ghost refresh.  Identical math, identical result.
  const GasSystem sys = make_gas(80, 20.0, 3.2, 1, 50.0, 17);
  expect_staged_matches_oracle(
      sys, [] { return std::make_shared<md::PairEamSC>(); }, 10, 1e-11);
}

TEST(StagedSim, WaterRefMatchesMonolithic) {
  const GasSystem sys = make_gas(96, 18.0, 1.6, 2, 120.0, 19);
  expect_staged_matches_oracle(
      sys, [] { return std::make_shared<md::PairWaterRef>(); }, 10, 1e-11);
}

std::shared_ptr<dp::DPModel> small_dp_model(uint64_t seed) {
  dp::ModelConfig cfg;
  cfg.ntypes = 2;
  cfg.descriptor.rcut = 4.5;
  cfg.descriptor.rcut_smth = 1.5;
  cfg.descriptor.sel = {32, 32};
  cfg.descriptor.emb_widths = {8, 16};
  cfg.descriptor.axis_neurons = 4;
  cfg.fit_widths = {24, 24};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(seed);
  model->init_random(rng);
  return model;
}

TEST(StagedSim, DpPerAtomMatchesMonolithic) {
  const GasSystem sys = make_gas(64, 16.0, 1.8, 2, 80.0, 23);
  auto model = small_dp_model(29);
  expect_staged_matches_oracle(
      sys,
      [&] {
        dp::EvalOptions opts;
        opts.block_size = 1;  // legacy per-atom oracle path
        return std::make_shared<dp::PairDeepMD>(model, opts);
      },
      6, 1e-9);
}

TEST(StagedSim, DpBatchedMatchesMonolithic) {
  const GasSystem sys = make_gas(64, 16.0, 1.8, 2, 80.0, 23);
  auto model = small_dp_model(29);
  expect_staged_matches_oracle(
      sys,
      [&] {
        dp::EvalOptions opts;
        opts.block_size = 16;  // partitions split into batched blocks
        return std::make_shared<dp::PairDeepMD>(model, opts);
      },
      6, 1e-9);
}

TEST(StagedSim, EmptyBoundaryPartitionStillCorrect) {
  // Atoms clustered in the middle of a big box: every atom is interior,
  // the boundary partition is empty, and there are no ghosts at all.
  GasSystem sys;
  sys.box = md::Box::cubic(40.0);
  sys.masses = {20.0};
  Rng rng(31);
  int placed = 0;
  while (placed < 20) {
    // Cluster inside [12, 28]^3: more than rcut + skin = 6 A from every
    // face, so classification puts every atom in the interior.
    const Vec3 p{rng.uniform(12.0, 28.0), rng.uniform(12.0, 28.0),
                 rng.uniform(12.0, 28.0)};
    bool ok = true;
    for (int i = 0; i < placed && ok; ++i) {
      ok = (p - sys.atoms.x[static_cast<std::size_t>(i)]).norm() >= 3.0;
    }
    if (!ok) continue;
    sys.atoms.add_local(p, {0, 0, 0}, 0, placed++);
  }
  md::thermalize(sys.atoms, sys.masses, 40.0, rng);

  auto mk = [] {
    auto p = std::make_shared<md::PairLJ>(1, 5.0);
    p->set_pair(0, 0, 0.0104, 3.4);
    return p;
  };
  md::Atoms atoms = sys.atoms;
  md::SimConfig cfg{.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 4};
  md::Sim sim(sys.box, std::move(atoms), sys.masses, mk(), cfg);
  sim.setup();
  EXPECT_TRUE(sim.partition().boundary.empty());
  EXPECT_EQ(static_cast<int>(sim.partition().interior.size()),
            sim.atoms().nlocal);
  expect_staged_matches_oracle(sys, mk, 10, 1e-11);
}

// ---------------------------------------------------------------------------
// DomainEngine: overlap on and off == fresh monolithic oracle across ranks
// ---------------------------------------------------------------------------

struct GlobalArrays {
  std::vector<Vec3> x;
  std::vector<Vec3> v;
  std::vector<int> type;
};

GlobalArrays arrays_of(const GasSystem& sys) {
  GlobalArrays g;
  g.x = sys.atoms.x;
  g.v.assign(sys.atoms.v.begin(), sys.atoms.v.begin() + sys.atoms.nlocal);
  g.type.assign(sys.atoms.type.begin(),
                sys.atoms.type.begin() + sys.atoms.nlocal);
  return g;
}

/// Gathered (sorted-by-tag) atoms and total pe at the end of a run.
struct EngineRun {
  std::vector<comm::DomainEngine::GlobalAtom> atoms;
  double pe = 0.0;
};

/// Steps the domain engine `steps` times on `grid` and, after every step,
/// checks the gathered forces (|df| < tol) and the total potential energy
/// (relative tol) against the fresh monolithic oracle at the gathered
/// positions.  `mk_rank` builds each rank's pair (e.g. on that rank's
/// thread pool), `mk_ref` the oracle's.
EngineRun run_engine_checked(
    const GasSystem& sys, const simmpi::CartGrid& grid,
    const std::function<std::shared_ptr<md::Pair>(int rank)>& mk_rank,
    const oracle::PairFactory& mk_ref, comm::DomainConfig cfg, int steps,
    double tol) {
  const GlobalArrays g = arrays_of(sys);
  EngineRun out;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses,
                              mk_rank(rank.rank()), cfg);
    engine.seed(g.x, g.v, g.type);
    for (int s = 1; s <= steps; ++s) {
      engine.step();
      const auto all = engine.gather_all();  // collective
      const double pe = engine.total_pe();   // collective
      if (rank.rank() != 0) continue;
      EXPECT_EQ(all.size(), g.x.size()) << "step " << s;
      const oracle::Reference ref =
          oracle::reference_forces(sys.box, all, g.type, mk_ref);
      EXPECT_NEAR(pe, ref.pe, tol * std::max(1.0, std::fabs(ref.pe)))
          << "step " << s;
      for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_LT((all[i].f - ref.f[i]).norm(), tol)
            << "step " << s << " tag " << all[i].tag;
      }
      out.atoms = all;  // rank 0 only; read after run_world joins
      out.pe = pe;
    }
  });
  return out;
}

EngineRun run_engine_checked(const GasSystem& sys,
                             const simmpi::CartGrid& grid,
                             const oracle::PairFactory& mk,
                             comm::DomainConfig cfg, int steps, double tol) {
  return run_engine_checked(
      sys, grid, [&](int) { return mk(); }, mk, cfg, steps, tol);
}

void expect_runs_equal(const GasSystem& sys, const EngineRun& a,
                       const EngineRun& b, double tol) {
  ASSERT_EQ(a.atoms.size(), b.atoms.size());
  EXPECT_NEAR(a.pe, b.pe, tol * std::max(1.0, std::fabs(b.pe)));
  for (std::size_t i = 0; i < a.atoms.size(); ++i) {
    ASSERT_EQ(a.atoms[i].tag, b.atoms[i].tag);
    EXPECT_LT(sys.box.minimum_image(a.atoms[i].x, b.atoms[i].x).norm(), tol)
        << "tag " << a.atoms[i].tag;
    EXPECT_LT((a.atoms[i].v - b.atoms[i].v).norm(), tol)
        << "tag " << a.atoms[i].tag;
  }
}

/// Overlap on and off each match the oracle every step and agree with
/// each other at the end.
void expect_overlap_on_off_match_oracle(const GasSystem& sys,
                                        const simmpi::CartGrid& grid,
                                        const oracle::PairFactory& mk,
                                        double dt_fs, int steps, double tol) {
  const EngineRun seq = run_engine_checked(
      sys, grid, mk, {.dt_fs = dt_fs, .overlap = false}, steps, tol);
  const EngineRun ovl = run_engine_checked(
      sys, grid, mk, {.dt_fs = dt_fs, .overlap = true}, steps, tol);
  expect_runs_equal(sys, ovl, seq, tol);
}

TEST(StagedDomainEngine, LjOverlapOnAndOffMatchOracle) {
  const GasSystem sys = make_gas(160, 24.0, 2.9, 1, 60.0, 37);
  const simmpi::CartGrid grid(2, 2, 2);
  auto mk = [] {
    auto p = std::make_shared<md::PairLJ>(1, 5.0);
    p->set_pair(0, 0, 0.0104, 3.4);
    return p;
  };
  expect_overlap_on_off_match_oracle(sys, grid, mk, 1.0, 15, 1e-9);
}

TEST(StagedDomainEngine, MorseOverlapOnAndOffMatchOracle) {
  const GasSystem sys = make_gas(120, 22.0, 2.6, 1, 120.0, 41);
  const simmpi::CartGrid grid(2, 1, 1);
  auto mk = [] {
    auto p = std::make_shared<md::PairMorse>(1, 4.0);
    p->set_pair(0, 0, 0.05, 1.5, 2.6);
    return p;
  };
  expect_overlap_on_off_match_oracle(sys, grid, mk, 1.0, 20, 1e-9);
}

TEST(StagedDomainEngine, DpBatchedOverlapWithPoolMatchesOracle) {
  // The real overlap configuration: batched Deep Potential blocks launched
  // async on pool workers while the driver thread runs the halo exchange.
  GasSystem sys = make_gas(96, 19.0, 1.8, 2, 60.0, 43);
  auto model = small_dp_model(47);  // rcut 4.5 fits a 2x1x1 split of 19 A
  const simmpi::CartGrid grid(2, 1, 1);

  // Per-rank pools so both ranks evaluate concurrently while exchanging.
  std::vector<std::unique_ptr<rt::ThreadPool>> pools;
  for (int r = 0; r < grid.size(); ++r) {
    pools.push_back(std::make_unique<rt::ThreadPool>(3));
  }
  const auto mk_pooled = [&](int rank) -> std::shared_ptr<md::Pair> {
    dp::EvalOptions opts;
    opts.block_size = 8;
    return std::make_shared<dp::PairDeepMD>(
        model, opts, pools[static_cast<std::size_t>(rank)].get());
  };
  // Serial oracle pair, same math.
  const auto mk_ref = [&]() -> std::shared_ptr<md::Pair> {
    dp::EvalOptions opts;
    opts.block_size = 8;
    return std::make_shared<dp::PairDeepMD>(model, opts);
  };
  const EngineRun seq = run_engine_checked(
      sys, grid, mk_pooled, mk_ref, {.dt_fs = 0.5, .overlap = false}, 4, 1e-7);
  const EngineRun ovl = run_engine_checked(
      sys, grid, mk_pooled, mk_ref, {.dt_fs = 0.5, .overlap = true}, 4, 1e-7);
  expect_runs_equal(sys, ovl, seq, 1e-7);
}

TEST(StagedDomainEngine, DpPerAtomOverlapOnAndOffMatchOracle) {
  GasSystem sys = make_gas(72, 19.0, 1.8, 2, 60.0, 53);
  auto model = small_dp_model(59);
  const simmpi::CartGrid grid(2, 1, 1);
  auto mk = [&]() -> std::shared_ptr<md::Pair> {
    dp::EvalOptions opts;
    opts.block_size = 1;
    return std::make_shared<dp::PairDeepMD>(model, opts);
  };
  expect_overlap_on_off_match_oracle(sys, grid, mk, 0.5, 4, 1e-7);
}

// ---------------------------------------------------------------------------
// Building blocks: async pool submission, irecv, EvalOptions validation
// ---------------------------------------------------------------------------

TEST(ThreadPoolAsync, SubmitDynamicRunsEveryItemOnce) {
  rt::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.submit_dynamic(hits.size(), [&](std::size_t i, unsigned) {
    hits[i].fetch_add(1);
  });
  EXPECT_TRUE(pool.async_in_flight());
  // The caller thread is free while workers run — then joins and helps.
  pool.wait_async();
  EXPECT_FALSE(pool.async_in_flight());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolAsync, SingleThreadPoolDrainsInline) {
  rt::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.submit_dynamic(10, [&](std::size_t i, unsigned tid) {
    EXPECT_EQ(tid, 0u);  // caller drains everything
    sum.fetch_add(static_cast<int>(i));
  });
  pool.wait_async();
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolAsync, CallerWorksWhileJobRuns) {
  rt::ThreadPool pool(3);
  std::atomic<int> done{0};
  pool.submit_dynamic(64, [&](std::size_t, unsigned) {
    done.fetch_add(1);
  });
  // Simulated "communication" on the caller thread while workers compute.
  int local = 0;
  for (int i = 0; i < 1000; ++i) local += i;
  EXPECT_EQ(local, 499500);
  pool.wait_async();
  EXPECT_EQ(done.load(), 64);
}

TEST(SimMpiAsync, IsendIrecvRing) {
  simmpi::run_world(4, [](simmpi::Rank& rank) {
    const int next = (rank.rank() + 1) % rank.size();
    const int prev = (rank.rank() + rank.size() - 1) % rank.size();
    const std::vector<int> payload{rank.rank(), rank.rank() * 10};
    // Post the receive before the send lands: wait() claims it later.
    simmpi::Request rq = rank.irecv(prev, 7);
    rank.isend_vec(next, 7, payload);
    const auto got = rq.wait_vec<int>();
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], prev);
    EXPECT_EQ(got[1], prev * 10);
  });
}

TEST(HaloSplit, BeginFinishWithComputeBetweenMatchesOracle) {
  // The split exchange with caller work between begin and finish delivers
  // exactly the brute-force ghost set (same guarantee the blocking
  // exchange_three_stage has — it is begin+finish by construction).
  const simmpi::CartGrid grid(2, 2, 1);
  md::Box global_box({0, 0, 0}, {16, 16, 12});
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    Rng rng(100 + static_cast<uint64_t>(rank.rank()));
    const auto c = grid.coords_of(rank.rank());
    comm::LocalDomain dom;
    dom.sub_box = md::Box({c[0] * 8.0, c[1] * 8.0, 0.0},
                          {(c[0] + 1) * 8.0, (c[1] + 1) * 8.0, 12.0});
    for (int i = 0; i < 25; ++i) {
      comm::HaloAtom a;
      a.x = rng.uniform(dom.sub_box.lo.x, dom.sub_box.hi.x);
      a.y = rng.uniform(dom.sub_box.lo.y, dom.sub_box.hi.y);
      a.z = rng.uniform(dom.sub_box.lo.z, dom.sub_box.hi.z);
      a.type = 0;
      a.tag = rank.rank() * 1000 + i;
      dom.locals.push_back(a);
    }
    comm::HaloExchange hx(rank, grid, global_box, 3.0);
    hx.begin(dom);
    EXPECT_TRUE(hx.in_flight());
    // "Interior evaluation" stand-in on the caller thread.
    volatile double sink = 0;
    for (int i = 0; i < 5000; ++i) {
      sink = sink + std::sqrt(static_cast<double>(i));
    }
    const auto ghosts = hx.finish();
    EXPECT_FALSE(hx.in_flight());
    const auto expected =
        comm::expected_ghosts_bruteforce(rank, global_box, dom, 3.0);
    EXPECT_EQ(comm::ghost_keys(ghosts), comm::ghost_keys(expected));
  });
}

TEST(EvalOptionsValidation, BlockSizeMustBePositive) {
  auto model = small_dp_model(61);
  dp::EvalOptions opts;
  opts.block_size = 0;
  EXPECT_THROW(dp::DPEvaluator(model, opts), Error);
  EXPECT_THROW(dp::PairDeepMD(model, opts), Error);
  opts.block_size = -8;
  EXPECT_THROW(dp::DPEvaluator(model, opts), Error);
  opts.block_size = 1;
  EXPECT_NO_THROW(dp::DPEvaluator(model, opts));
}

TEST(EvalOptionsValidation, PackedGemmToggleMatchesUnpacked) {
  // The packed-B weight panels are a pure layout change: forces with the
  // toggle off (raw row-major gemm_blocked) match the packed default.
  const GasSystem sys = make_gas(48, 15.0, 1.8, 2, 60.0, 67);
  auto model = small_dp_model(71);

  const auto forces_with = [&](bool packed, bool compressed) {
    dp::EvalOptions opts;
    opts.packed_gemm = packed;
    opts.compressed = compressed;
    opts.block_size = 16;
    opts.fitting_gemm = nn::GemmKind::Blocked;  // the kind the toggle gates
    md::Atoms atoms = sys.atoms;
    md::SimConfig cfg{.dt_fs = 0.5, .skin = 1.0};
    md::Sim sim(sys.box, std::move(atoms), sys.masses,
                std::make_shared<dp::PairDeepMD>(model, opts), cfg);
    sim.setup();
    return std::make_pair(sim.pe(), sim.atoms().f);
  };
  for (const bool compressed : {true, false}) {
    const auto [pe_p, f_p] = forces_with(true, compressed);
    const auto [pe_r, f_r] = forces_with(false, compressed);
    EXPECT_NEAR(pe_p, pe_r, 1e-9 * std::max(1.0, std::fabs(pe_r)));
    ASSERT_EQ(f_p.size(), f_r.size());
    for (std::size_t i = 0; i < f_p.size(); ++i) {
      EXPECT_LT((f_p[i] - f_r[i]).norm(), 1e-9) << i;
    }
  }
}

}  // namespace
}  // namespace dpmd
