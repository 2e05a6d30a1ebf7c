// Skin-cadence step state (ISSUE 4): DomainEngine with
// DomainConfig::{skin, rebuild_every, rebuild_on_drift} must produce, on
// every step of a trajectory — rebuild steps and position-only refresh
// steps alike — forces identical (to amplified round-off) to a fresh
// single-process evaluation at the same positions.  Covers the recorded
// halo-plan replay, the persistent neighbor lists/partition, PairDeepMD's
// persistent env-batch structure, drift-triggered mid-cadence rebuilds and
// migration landing on rebuild steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "comm/domain_engine.hpp"
#include "core/pair_deepmd.hpp"
#include "md/lattice.hpp"
#include "md/pair_lj.hpp"
#include "md/sim.hpp"
#include "md/thermo.hpp"
#include "reference_forces.hpp"
#include "util/random.hpp"

namespace dpmd {
namespace {

struct GlobalSystem {
  md::Box box;
  std::vector<Vec3> x;
  std::vector<Vec3> v;
  std::vector<int> type;
  std::vector<double> masses;
};

GlobalSystem make_lj_gas(int natoms, double box_len, double t_kelvin,
                         double mass, uint64_t seed) {
  GlobalSystem sys;
  sys.box = md::Box::cubic(box_len);
  sys.masses = {mass};
  Rng rng(seed);
  md::Atoms atoms;
  const double min_sep = 3.0;
  int placed = 0;
  while (placed < natoms) {
    const Vec3 p{rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
                 rng.uniform(0.0, box_len)};
    bool ok = true;
    for (int i = 0; i < placed && ok; ++i) {
      ok = sys.box.minimum_image(p, atoms.x[static_cast<std::size_t>(i)])
               .norm() >= min_sep;
    }
    if (!ok) continue;
    atoms.add_local(p, {0, 0, 0}, 0, placed++);
  }
  md::thermalize(atoms, sys.masses, t_kelvin, rng);
  sys.x = atoms.x;
  sys.v.assign(atoms.v.begin(), atoms.v.begin() + atoms.nlocal);
  sys.type.assign(atoms.type.begin(), atoms.type.begin() + atoms.nlocal);
  return sys;
}

std::shared_ptr<md::PairLJ> make_lj(double rc) {
  auto pair = std::make_shared<md::PairLJ>(1, rc);
  pair->set_pair(0, 0, 0.0104, 3.4);
  return pair;
}

std::shared_ptr<const dp::DPModel> small_dp_model() {
  dp::ModelConfig cfg;
  cfg.ntypes = 1;
  cfg.descriptor.rcut = 3.0;
  cfg.descriptor.rcut_smth = 1.0;
  cfg.descriptor.sel = {24};
  cfg.descriptor.emb_widths = {8, 16};
  cfg.descriptor.axis_neurons = 4;
  cfg.fit_widths = {24, 24};
  auto model = std::make_shared<dp::DPModel>(cfg);
  Rng rng(91);
  model->init_random(rng);
  return model;
}

/// Steps the cadenced engine and, after every step, checks the gathered
/// forces against the fresh-evaluation oracle at the same positions.
/// Returns rank 0's rebuild count; `final_atoms` (if given) receives the
/// gathered end state.
int run_and_check_every_step(
    const GlobalSystem& sys, const simmpi::CartGrid& grid,
    const oracle::PairFactory& mk, comm::DomainConfig cfg, int steps,
    double ftol,
    std::vector<comm::DomainEngine::GlobalAtom>* final_atoms = nullptr) {
  int rebuilds = 0;
  std::mutex mu;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(), cfg);
    engine.seed(sys.x, sys.v, sys.type);
    for (int s = 0; s < steps; ++s) {
      engine.step();
      const auto all = engine.gather_all();  // collective
      const double pe = engine.total_pe();   // collective
      if (rank.rank() != 0) continue;
      ASSERT_EQ(all.size(), sys.x.size()) << "step " << s;
      const oracle::Reference ref =
          oracle::reference_forces(sys.box, all, sys.type, mk);
      EXPECT_NEAR(pe, ref.pe, 1e-9 * std::max(1.0, std::fabs(ref.pe)))
          << "step " << s;
      double fscale = 1e-3;  // rel-vs-abs floor for near-zero forces
      for (const Vec3& f : ref.f) fscale = std::max(fscale, f.norm());
      for (std::size_t i = 0; i < all.size(); ++i) {
        const Vec3 df =
            all[i].f - ref.f[static_cast<std::size_t>(all[i].tag)];
        EXPECT_LT(df.norm() / fscale, ftol)
            << "step " << s << " tag " << all[i].tag;
      }
    }
    const auto all = engine.gather_all();  // collective
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      rebuilds = engine.rebuild_count();
      if (final_atoms != nullptr) *final_atoms = all;
    }
  });
  return rebuilds;
}

// ---------------------------------------------------------------------------
// LJ: cadence 6 + skin over a 2x2x1 grid, forces vs fresh oracle each step
// ---------------------------------------------------------------------------

TEST(Cadence, LjRefreshStepsMatchFreshEvaluation) {
  const GlobalSystem sys = make_lj_gas(140, 24.0, 60.0, 40.0, 19);
  const simmpi::CartGrid grid(2, 2, 1);
  const auto mk = [] { return make_lj(5.0); };
  // skin 0.9 keeps 2*(rcut+skin) <= 12 on the split dimensions.
  const int rebuilds = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 1.0, .skin = 0.9, .rebuild_every = 6}, 18, 1e-10);
  // Cold gas: the fixed cadence dominates (setup + ~1 per 6 steps); far
  // fewer rebuilds than steps is the point of the exercise.
  EXPECT_LT(rebuilds, 10);
  EXPECT_GE(rebuilds, 4);
}

TEST(Cadence, LjAllSchedulesAgreeUnderCadence) {
  // Overlap on and off (the async flag of the interior partition) must
  // both match the fresh oracle every step through the refresh path exactly
  // as through the rebuild path, and agree with each other.
  const GlobalSystem sys = make_lj_gas(120, 24.0, 50.0, 40.0, 23);
  const simmpi::CartGrid grid(2, 1, 1);
  const auto mk = [] { return make_lj(5.0); };
  const int steps = 14;

  comm::DomainConfig cfg{.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5};
  std::vector<comm::DomainEngine::GlobalAtom> sequential, overlapped;
  cfg.overlap = false;
  run_and_check_every_step(sys, grid, mk, cfg, steps, 1e-9, &sequential);
  cfg.overlap = true;
  run_and_check_every_step(sys, grid, mk, cfg, steps, 1e-9, &overlapped);

  ASSERT_EQ(sequential.size(), sys.x.size());
  ASSERT_EQ(overlapped.size(), sys.x.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_LT((overlapped[i].x - sequential[i].x).norm(), 1e-9);
    EXPECT_LT((overlapped[i].f - sequential[i].f).norm(), 1e-9);
  }
}

TEST(Cadence, CadenceFiftyTracksRebuildEveryStepTrajectory) {
  // The acceptance pairing: rebuild_every = 50 + skin vs the
  // rebuild-every-step engine, same trajectory within amplified round-off
  // over a short run.
  const GlobalSystem sys = make_lj_gas(120, 24.0, 40.0, 40.0, 29);
  const simmpi::CartGrid grid(2, 1, 1);
  const auto mk = [] { return make_lj(5.0); };
  const int steps = 25;

  std::vector<comm::DomainEngine::GlobalAtom> every_step, cadenced;
  std::mutex mu;
  const auto run_cfg = [&](comm::DomainConfig cfg,
                           std::vector<comm::DomainEngine::GlobalAtom>& out) {
    simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
      comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(), cfg);
      engine.seed(sys.x, sys.v, sys.type);
      engine.run(steps);
      const auto all = engine.gather_all();
      if (rank.rank() == 0) {
        std::lock_guard lock(mu);
        out = all;
      }
    });
  };
  run_cfg({.dt_fs = 0.5, .skin = 0.0, .rebuild_every = 1}, every_step);
  run_cfg({.dt_fs = 0.5, .skin = 0.9, .rebuild_every = 50}, cadenced);

  ASSERT_EQ(every_step.size(), cadenced.size());
  for (std::size_t i = 0; i < every_step.size(); ++i) {
    ASSERT_EQ(every_step[i].tag, cadenced[i].tag);
    EXPECT_LT(sys.box.minimum_image(cadenced[i].x, every_step[i].x).norm(),
              1e-7)
        << "tag " << every_step[i].tag;
    EXPECT_LT((cadenced[i].v - every_step[i].v).norm(), 1e-8);
    EXPECT_LT((cadenced[i].f - every_step[i].f).norm(), 1e-7);
  }
}

// ---------------------------------------------------------------------------
// Drift + migration edge cases
// ---------------------------------------------------------------------------

TEST(Cadence, FastAtomTriggersMidCadenceRebuildAndStaysCorrect) {
  GlobalSystem sys = make_lj_gas(100, 22.0, 30.0, 40.0, 31);
  // One hot atom: crosses skin/2 (0.4 A) on nearly every step and several
  // sub-box faces over the run, so drift rebuilds (with migration landing
  // on them) fire mid-cadence.
  sys.v[0] = {0.5, 0.3, 0.1};
  const simmpi::CartGrid grid(2, 1, 1);
  const auto mk = [] { return make_lj(4.5); };
  const int rebuilds = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 1.0, .skin = 0.8, .rebuild_every = 50}, 16, 1e-10);
  // Far more rebuilds than the fixed cadence alone (setup + 1) would give.
  EXPECT_GT(rebuilds, 5);
}

TEST(Cadence, DriftCheckOffFollowsFixedCadenceOnly) {
  const GlobalSystem sys = make_lj_gas(90, 22.0, 30.0, 40.0, 41);
  const simmpi::CartGrid grid(2, 1, 1);
  const auto mk = [] { return make_lj(4.5); };
  std::mutex mu;
  int rebuilds = 0;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(
        rank, grid, sys.box, sys.masses, mk(),
        {.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 6,
         .rebuild_on_drift = false});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(13);  // setup rebuild + rebuilds at steps 6 and 12
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      rebuilds = engine.rebuild_count();
    }
  });
  EXPECT_EQ(rebuilds, 3);
}

TEST(Cadence, AutoSkinPicksLargestAdmissibleAndStaysCorrect) {
  // DomainConfig::skin < 0 = auto (ISSUE 5 satellite): the engine resolves
  // the largest skin the decomposition slack rule admits, capped at the
  // paper's 2 A, identically on every rank — and the cadenced trajectory
  // stays pinned to the fresh-evaluation oracle.
  const GlobalSystem sys = make_lj_gas(140, 24.0, 60.0, 40.0, 47);
  const auto mk = [] { return make_lj(5.0); };
  {
    // 2x2x1 over a 24 A cube: split dims have slack 24 - 12 = 12, so the
    // admissible skin is 12/2 - 5 = 1.0 (under the 2 A cap).
    const simmpi::CartGrid grid(2, 2, 1);
    std::mutex mu;
    double resolved = -1.0;
    simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
      comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(),
                                {.dt_fs = 1.0, .skin = -1.0});
      const double got = engine.config().skin;
      std::lock_guard lock(mu);
      if (resolved < 0.0) resolved = got;
      EXPECT_EQ(got, resolved);  // every rank agrees
    });
    EXPECT_NEAR(resolved, 1.0, 1e-12);
  }
  {
    // Single rank: slack is the full box length per dim (24/2 - 5 = 7),
    // so the 2 A production cap binds.
    const simmpi::CartGrid grid(1, 1, 1);
    simmpi::run_world(1, [&](simmpi::Rank& rank) {
      comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(),
                                {.dt_fs = 1.0, .skin = -1.0});
      EXPECT_NEAR(engine.config().skin, 2.0, 1e-12);
    });
  }
  // Trajectory correctness under the auto skin, forces vs oracle each step.
  const simmpi::CartGrid grid(2, 2, 1);
  const int rebuilds = run_and_check_every_step(
      sys, grid, mk, {.dt_fs = 1.0, .skin = -1.0, .rebuild_every = 6}, 12,
      1e-10);
  EXPECT_LT(rebuilds, 8);
}

TEST(Cadence, MigrationConservesTagsUnderCadence) {
  // Hot gas on a long cadence with drift rebuilds: atoms hand off between
  // ranks only on rebuild steps and nothing is lost or duplicated.
  const GlobalSystem sys = make_lj_gas(80, 20.0, 500.0, 10.0, 43);
  const simmpi::CartGrid grid(2, 2, 1);
  const auto mk = [] { return make_lj(4.0); };
  std::mutex mu;
  std::vector<comm::DomainEngine::GlobalAtom> all;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, mk(),
                              {.dt_fs = 1.0, .skin = 1.0,
                               .rebuild_every = 10});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(30);
    const auto gathered = engine.gather_all();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      all = gathered;
    }
  });
  ASSERT_EQ(all.size(), 80u);
  std::set<std::int64_t> tags;
  for (const auto& a : all) tags.insert(a.tag);
  EXPECT_EQ(tags.size(), 80u);
}

// ---------------------------------------------------------------------------
// Deep Potential: persistent env-batch structure through the full stack
// ---------------------------------------------------------------------------

TEST(Cadence, DpEnvReuseMatchesFreshEvaluationEachStep) {
  auto model = small_dp_model();
  GlobalSystem sys;
  md::Atoms atoms = md::make_fcc(4.2, 4, 3, 3, 0, sys.box);
  sys.masses = {30.0};
  Rng rng(53);
  md::thermalize(atoms, sys.masses, 120.0, rng);
  sys.x = atoms.x;
  sys.v.assign(atoms.v.begin(), atoms.v.begin() + atoms.nlocal);
  sys.type.assign(atoms.type.begin(), atoms.type.begin() + atoms.nlocal);

  const simmpi::CartGrid grid(2, 1, 1);
  const auto mk = [&] {
    return std::make_shared<dp::PairDeepMD>(model, dp::EvalOptions{});
  };
  // 2*(rcut + skin) = 7.6 <= 8.4 (the split dimension's slack).
  const int rebuilds = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 0.5, .skin = 0.8, .rebuild_every = 5}, 12, 1e-9);
  EXPECT_LT(rebuilds, 7);
}

TEST(Cadence, SimDpEnvReuseMatchesFreshEvaluationEachStep) {
  // Single-process engine, same contract: md::Sim's cadence now reuses the
  // packed env structure between rebuilds (on_lists_rebuilt), and every
  // step must still match a cache-free evaluation at the same positions.
  auto model = small_dp_model();
  md::Box box;
  md::Atoms atoms = md::make_fcc(4.2, 3, 3, 3, 0, box);
  Rng rng(57);
  md::thermalize(atoms, {30.0}, 120.0, rng);
  auto pair = std::make_shared<dp::PairDeepMD>(model, dp::EvalOptions{});
  md::Sim sim(box, std::move(atoms), {30.0}, pair,
              {.dt_fs = 0.5, .skin = 1.0, .rebuild_every = 4});
  for (int s = 0; s < 10; ++s) {
    sim.step();
    // Fresh oracle at the post-step positions.
    const md::Atoms& at = sim.atoms();
    const auto n = static_cast<std::size_t>(at.nlocal);
    const oracle::Reference ref = oracle::reference_forces(
        box, std::vector<Vec3>(at.x.begin(), at.x.begin() + n),
        std::vector<int>(at.type.begin(), at.type.begin() + n), [&] {
          return std::make_shared<dp::PairDeepMD>(model, dp::EvalOptions{});
        });
    for (std::size_t i = 0; i < n; ++i) {
      const Vec3 df = sim.atoms().f[i] - ref.f[i];
      EXPECT_LT(df.norm(), 1e-10) << "step " << s << " atom " << i;
    }
  }
  EXPECT_LT(sim.rebuild_count(), 7);
}

}  // namespace
}  // namespace dpmd
