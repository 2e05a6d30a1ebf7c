// Workload-aware dynamic load balancing (ISSUE 7): DomainEngine with
// DomainConfig::{rebalance_every, rebalance_damping} measures per-rank
// pair-phase seconds, allgathers them, and shifts the decomposition planes
// on rebuild steps.  The physics must not notice: on every step of a
// balanced trajectory — whatever geometry the measured costs produced —
// the gathered forces must match a fresh single-process evaluation on the
// uniform (undecomposed) system at the same positions, to 1e-10.  Also
// covers atom conservation across boundary-shift migrations, the planner
// guard rails as seen from the engine, mid-balance checkpoint/restart on a
// non-uniform grid, and composition with cadence and overlap schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <vector>

#include "comm/domain_engine.hpp"
#include "loadbalance/loadbalance.hpp"
#include "md/pair_lj.hpp"
#include "md/thermo.hpp"
#include "reference_forces.hpp"
#include "util/error.hpp"
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

/// Heterogeneous-density system: an off-center spherical droplet in
/// vacuum.  The blob sits toward the low-x/low-y corner, so a uniform
/// grid gives the low-coordinate ranks nearly all of the pair work — the
/// imbalance the rebalancer exists to fix.
GlobalSystem make_droplet(int natoms, double box_len, const Vec3& center,
                          double radius, double t_kelvin, double mass,
                          uint64_t seed) {
  GlobalSystem sys;
  sys.box = md::Box::cubic(box_len);
  sys.masses = {mass};
  Rng rng(seed);
  md::Atoms atoms;
  const double min_sep = 3.0;
  int placed = 0;
  int attempts = 0;
  while (placed < natoms) {
    // Rejection sampling saturates near ~38% sphere packing; fail loudly
    // instead of spinning if a caller asks for an over-dense droplet.
    DPMD_REQUIRE(++attempts < 2000000, "droplet too dense to place");
    const Vec3 p{center.x + rng.uniform(-radius, radius),
                 center.y + rng.uniform(-radius, radius),
                 center.z + rng.uniform(-radius, radius)};
    if ((p - center).norm() > radius) continue;
    bool ok = p.x > 0.5 && p.y > 0.5 && p.z > 0.5 && p.x < box_len - 0.5 &&
              p.y < box_len - 0.5 && p.z < box_len - 0.5;
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

/// What a balanced run reports back to the checks below.
struct RunReport {
  int rebalances = 0;
  std::array<std::vector<double>, 3> planes;
};

/// Steps a rebalancing engine and checks the gathered forces against the
/// fresh uniform-grid oracle after EVERY step — rebuilds, refreshes, and
/// boundary-shift steps alike.  With ckpt_step >= 0, the engine saves a
/// per-rank checkpoint after that step, is torn down, and a brand-new
/// engine restores and carries the trajectory on (the mid-balance restart
/// path); the restored planes must be bit-equal to the saved ones.
RunReport run_and_check_every_step(
    const GlobalSystem& sys, const simmpi::CartGrid& grid,
    const std::function<std::shared_ptr<md::Pair>()>& mk,
    comm::DomainConfig cfg, int steps, double ftol, int ckpt_step = -1,
    const std::string& ckpt_base = "") {
  RunReport report;
  std::mutex mu;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    std::optional<comm::DomainEngine> eng;
    eng.emplace(rank, grid, sys.box, sys.masses, mk(), cfg);
    eng->seed(sys.x, sys.v, sys.type);
    for (int s = 0; s < steps; ++s) {
      eng->step();
      const auto all = eng->gather_all();  // collective
      const double pe = eng->total_pe();   // collective
      if (s == ckpt_step) {
        // Save, tear the engine down, and resume from the file: a restart
        // mid-balance must come back on the saved (non-uniform) planes.
        // Forces are not serialized — the resumed engine recomputes them on
        // its next step, which the following iterations keep checking.
        const auto saved_planes = eng->planes();
        eng->save_checkpoint_file(ckpt_base);
        rank.barrier();  // every rank's file exists before any restore
        eng.emplace(rank, grid, sys.box, sys.masses, mk(), cfg);
        eng->restore_checkpoint_file(ckpt_base);
        EXPECT_EQ(eng->planes(), saved_planes)
            << "restore must resume the balanced decomposition bit-exactly";
      }
      if (rank.rank() != 0) continue;
      ASSERT_EQ(all.size(), sys.x.size()) << "step " << s;
      // The uniform-grid oracle: no decomposition at all.
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
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      report.rebalances = eng->rebalance_count();
      report.planes = eng->planes();
    }
  });
  if (ckpt_step >= 0) {
    for (int r = 0; r < grid.size(); ++r) {
      std::remove(
          comm::DomainEngine::rank_checkpoint_path(ckpt_base, r).c_str());
    }
  }
  return report;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

bool planes_uniform(const std::array<std::vector<double>, 3>& planes,
                    const md::Box& box, const simmpi::CartGrid& grid) {
  const int n[3] = {grid.nx(), grid.ny(), grid.nz()};
  for (int d = 0; d < 3; ++d) {
    if (planes[static_cast<std::size_t>(d)] !=
        lb::uniform_planes(box.lo[d], box.hi[d], n[d])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The acceptance pairing: balanced droplet trajectory vs the uniform oracle
// ---------------------------------------------------------------------------

TEST(Rebalance, DropletMatchesUniformOracleOver100StepsWithRestart) {
  // 4 ranks on a 32 A box: the droplet loads the low-x/low-y ranks, the
  // rebalancer shifts planes toward it, and every one of the 110 steps —
  // including a checkpoint/restart at step 54, mid-balance, on an already
  // non-uniform grid — must match the fresh oracle at 1e-10.
  const GlobalSystem sys =
      make_droplet(56, 32.0, {11.5, 11.5, 16.0}, 10.5, 40.0, 40.0, 61);
  const simmpi::CartGrid grid(2, 2, 1);
  const auto mk = [] { return make_lj(5.0); };
  // 2*(rcut+skin) = 12 <= 16 (the initial sub-box width): feasible.
  const auto report = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5, .rebalance_every = 10},
      110, 1e-10, /*ckpt_step=*/54, temp_path("rebalance_midrun.ckpt"));
  // The imbalance is real, so planes must actually have moved — this is a
  // rebalance test, not a no-op test.
  EXPECT_GE(report.rebalances, 1);
  EXPECT_FALSE(planes_uniform(report.planes, sys.box, grid));
}

TEST(Rebalance, DropletMatchesUniformOracleAt8Ranks) {
  const GlobalSystem sys =
      make_droplet(56, 32.0, {11.5, 11.5, 12.5}, 10.5, 40.0, 40.0, 67);
  const simmpi::CartGrid grid(2, 2, 2);
  const auto mk = [] { return make_lj(5.0); };
  const auto report = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5, .rebalance_every = 10},
      40, 1e-10);
  EXPECT_GE(report.rebalances, 1);
}

// ---------------------------------------------------------------------------
// Conservation + guard rails as seen from the engine
// ---------------------------------------------------------------------------

TEST(Rebalance, BoundaryShiftConservesAtoms) {
  // Plane moves hand atoms over through the normal migration path: after
  // many balance events every tag must still exist exactly once.
  const GlobalSystem sys =
      make_droplet(48, 32.0, {11.5, 11.5, 16.0}, 10.5, 120.0, 40.0, 71);
  const simmpi::CartGrid grid(2, 2, 1);
  std::mutex mu;
  std::vector<comm::DomainEngine::GlobalAtom> all;
  int rebalances = 0;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(
        rank, grid, sys.box, sys.masses, make_lj(5.0),
        {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5,
         .rebalance_every = 5, .rebalance_damping = 1.0});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(40);
    const auto gathered = engine.gather_all();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      all = gathered;
      rebalances = engine.rebalance_count();
    }
  });
  EXPECT_GE(rebalances, 2);
  ASSERT_EQ(all.size(), 48u);
  std::set<std::int64_t> tags;
  for (const auto& a : all) tags.insert(a.tag);
  EXPECT_EQ(tags.size(), 48u);
}

TEST(Rebalance, MinWidthGuardHoldsUnderExtremeImbalance) {
  // Damping 1 and nearly all work on one rank: the engine-side guard —
  // no slab thinner than 2*(rcut+skin) — must hold on every dimension
  // after every event.
  const GlobalSystem sys =
      make_droplet(28, 32.0, {9.0, 9.0, 9.0}, 8.5, 60.0, 40.0, 73);
  const simmpi::CartGrid grid(2, 2, 1);
  const double rcut = 5.0, skin = 1.0;
  std::mutex mu;
  std::array<std::vector<double>, 3> planes;
  int rebalances = 0;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(
        rank, grid, sys.box, sys.masses, make_lj(rcut),
        {.dt_fs = 1.0, .skin = skin, .rebuild_every = 5,
         .rebalance_every = 5, .rebalance_damping = 1.0});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(50);
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      planes = engine.planes();
      rebalances = engine.rebalance_count();
    }
  });
  EXPECT_GE(rebalances, 2);
  const double min_w = 2.0 * (rcut + skin);
  for (int d = 0; d < 2; ++d) {  // z is unsplit
    for (std::size_t k = 0; k + 1 < planes[d].size(); ++k) {
      EXPECT_GE(planes[d][k + 1] - planes[d][k], min_w - 1e-9)
          << "dim " << d << " slab " << k;
    }
  }
}

TEST(Rebalance, DampingZeroFreezesTheGridBitExactly) {
  // damping = 0 must be indistinguishable from rebalancing off: no events,
  // planes bit-equal to the uniform decomposition.
  const GlobalSystem sys =
      make_droplet(48, 32.0, {11.5, 11.5, 16.0}, 10.5, 40.0, 40.0, 79);
  const simmpi::CartGrid grid(2, 2, 1);
  std::mutex mu;
  std::array<std::vector<double>, 3> planes;
  int rebalances = -1;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(
        rank, grid, sys.box, sys.masses, make_lj(5.0),
        {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5,
         .rebalance_every = 5, .rebalance_damping = 0.0});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(30);
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      planes = engine.planes();
      rebalances = engine.rebalance_count();
    }
  });
  EXPECT_EQ(rebalances, 0);
  EXPECT_TRUE(planes_uniform(planes, sys.box, grid));
}

TEST(Rebalance, InfeasibleGeometryIsRejectedAtConstruction) {
  // 4 slabs over 32 A cannot honor min_width = 2*(5+1) = 12: the engine
  // must refuse up front instead of wedging the halo later.
  const GlobalSystem sys =
      make_droplet(24, 32.0, {11.5, 11.5, 16.0}, 10.5, 40.0, 40.0, 83);
  const simmpi::CartGrid grid(4, 1, 1);
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    EXPECT_THROW(comm::DomainEngine(rank, grid, sys.box, sys.masses,
                                    make_lj(5.0),
                                    {.dt_fs = 1.0, .skin = 1.0,
                                     .rebalance_every = 10}),
                 dpmd::Error);
  });
}

// ---------------------------------------------------------------------------
// Composition: cadence 50, overlap on/off, legacy schedule
// ---------------------------------------------------------------------------

TEST(Rebalance, ComposesWithCadenceFifty) {
  // rebuild_every = 50 (the paper's production cadence): the balance
  // window expires long before the cadence rebuild, so the shift must wait
  // for it (or for a drift rebuild) and the refresh replay in between must
  // keep matching the oracle on the balanced geometry.
  const GlobalSystem sys =
      make_droplet(48, 32.0, {11.5, 11.5, 16.0}, 10.5, 40.0, 40.0, 89);
  const simmpi::CartGrid grid(2, 2, 1);
  const auto mk = [] { return make_lj(5.0); };
  const auto report = run_and_check_every_step(
      sys, grid, mk,
      {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 50, .rebalance_every = 10},
      60, 1e-10);
  EXPECT_GE(report.rebalances, 1);
}

TEST(Rebalance, ComposesWithOverlapOnAndOff) {
  const GlobalSystem sys =
      make_droplet(48, 32.0, {11.5, 11.5, 16.0}, 10.5, 40.0, 40.0, 97);
  const simmpi::CartGrid grid(2, 2, 1);
  const auto mk = [] { return make_lj(5.0); };
  comm::DomainConfig cfg{.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 5,
                         .rebalance_every = 10};
  for (const bool overlap : {true, false}) {
    cfg.overlap = overlap;
    EXPECT_GE(run_and_check_every_step(sys, grid, mk, cfg, 25, 1e-10)
                  .rebalances,
              1)
        << "overlap " << overlap;
  }
}

}  // namespace
}  // namespace dpmd
