// Fault-injection acceptance suite (ISSUE 6): corrupted/dropped/delayed
// comm payloads become named errors instead of hangs or silent wrong
// physics, and an injected numerical blow-up is healed by the rewind
// ladder — the recovered trajectory matches a fault-free oracle — or is
// aborted with a diagnosable incident log once the retry budget is spent.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/domain_engine.hpp"
#include "md/lattice.hpp"
#include "md/pair_lj.hpp"
#include "md/sim.hpp"
#include "md/thermostat.hpp"
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

md::Atoms atoms_of(const GlobalSystem& sys) {
  md::Atoms atoms;
  for (std::size_t i = 0; i < sys.x.size(); ++i) {
    atoms.add_local(sys.x[i], sys.v[i], sys.type[i],
                    static_cast<std::int64_t>(i));
  }
  return atoms;
}

/// Delegating pair style that injects a NaN into atoms.f[0] starting at
/// force evaluation number `trigger_eval` (1-based).  `shots` = how many
/// evaluations inject from there on; -1 = every one (a persistent fault
/// the recovery ladder cannot outrun).  Runs through the default staged
/// adapter, so both engines hit the injection in their normal force path.
class FaultyPair : public md::Pair {
 public:
  FaultyPair(std::shared_ptr<md::Pair> inner, int trigger_eval, int shots = 1)
      : inner_(std::move(inner)), trigger_eval_(trigger_eval),
        shots_(shots) {}

  std::string name() const override { return "faulty(" + inner_->name() + ")"; }
  double cutoff() const override { return inner_->cutoff(); }
  bool needs_full_list() const override { return inner_->needs_full_list(); }
  void on_lists_rebuilt() override { inner_->on_lists_rebuilt(); }

  md::ForceResult compute(md::Atoms& atoms,
                          const md::NeighborList& list) override {
    const md::ForceResult res = inner_->compute(atoms, list);
    ++evals_;
    if (evals_ >= trigger_eval_ && shots_ != 0 && atoms.nlocal > 0) {
      if (shots_ > 0) --shots_;
      atoms.f[0].x = std::numeric_limits<double>::quiet_NaN();
    }
    return res;
  }

 private:
  std::shared_ptr<md::Pair> inner_;
  int trigger_eval_;
  int shots_;
  int evals_ = 0;
};

// --------------------------------------- corrupted payload detection ----

// The halo tags live in [100, 200); migration is 700, force return 800
// (src/comm constants).  Payloads are wire-framed with a 16-byte header.
constexpr std::size_t kWireHeaderBytes = 16;

void run_two_rank_lj(simmpi::World& w, const GlobalSystem& sys, int steps) {
  w.run([&](simmpi::Rank& rank) {
    const simmpi::CartGrid grid(2, 1, 1);
    // skin 0 / rebuild every step: every step exercises migrate, the full
    // halo exchange and the ghost-force return.
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              {.dt_fs = 1.0, .skin = 0.0, .rebuild_every = 1});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(steps);
  });
}

TEST(CommFaults, CorruptedHaloPayloadIsNamedChecksumError) {
  const GlobalSystem sys = make_lj_gas(140, 20.0, 60.0, 40.0, 211);
  simmpi::World w(2);
  std::atomic<bool> armed{true};
  w.set_fault_hook([&](int, int, int tag, std::size_t bytes) {
    simmpi::Fault f;
    if (tag >= 100 && tag < 200 && bytes > kWireHeaderBytes + 8 &&
        armed.exchange(false)) {
      f.kind = simmpi::Fault::Kind::kCorrupt;
      f.corrupt_offset = kWireHeaderBytes + 4;  // inside the data section
    }
    return f;
  });
  try {
    run_two_rank_lj(w, sys, 4);
    FAIL() << "corrupted halo payload went undetected";
  } catch (const dpmd::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("halo"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
  EXPECT_EQ(w.faults_injected(), 1u);
}

TEST(CommFaults, CorruptedMigrationHeaderIsNamedLengthError) {
  const GlobalSystem sys = make_lj_gas(140, 20.0, 60.0, 40.0, 223);
  simmpi::World w(2);
  std::atomic<bool> armed{true};
  w.set_fault_hook([&](int, int, int tag, std::size_t) {
    simmpi::Fault f;
    if (tag == 700 && armed.exchange(false)) {
      f.kind = simmpi::Fault::Kind::kCorrupt;
      f.corrupt_offset = 0;  // the header's element count
    }
    return f;
  });
  try {
    run_two_rank_lj(w, sys, 2);
    FAIL() << "corrupted migration header went undetected";
  } catch (const dpmd::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("migration atoms"), std::string::npos) << what;
  }
}

TEST(CommFaults, CorruptedForceReturnIsNamedChecksumError) {
  const GlobalSystem sys = make_lj_gas(140, 20.0, 60.0, 40.0, 227);
  simmpi::World w(2);
  std::atomic<bool> armed{true};
  w.set_fault_hook([&](int, int, int tag, std::size_t bytes) {
    simmpi::Fault f;
    if (tag == 800 && bytes > kWireHeaderBytes + 8 && armed.exchange(false)) {
      f.kind = simmpi::Fault::Kind::kCorrupt;
      f.corrupt_offset = kWireHeaderBytes + 4;
    }
    return f;
  });
  try {
    run_two_rank_lj(w, sys, 4);
    FAIL() << "corrupted ghost-force return went undetected";
  } catch (const dpmd::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("returned ghost forces"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(CommFaults, StalledRankBecomesTimeoutNotHang) {
  const GlobalSystem sys = make_lj_gas(140, 20.0, 60.0, 40.0, 229);
  simmpi::World w(2);
  w.set_recv_timeout(0.3);
  std::atomic<bool> armed{true};
  w.set_fault_hook([&](int, int, int tag, std::size_t) {
    simmpi::Fault f;
    if (tag >= 100 && tag < 200 && armed.exchange(false)) {
      f.kind = simmpi::Fault::Kind::kDelay;
      f.delay_s = 1.5;  // well past the receiver's deadline
    }
    return f;
  });
  EXPECT_THROW(run_two_rank_lj(w, sys, 4), simmpi::TimeoutError);
}

// ------------------------------------- numerical blow-up recovery ----

TEST(HealthGuard, SimNaNBlowupRecoversOntoTheOracleTrajectory) {
  // Snapshots land on rebuild boundaries (snapshot_every == rebuild_every),
  // so retry 1 — rewind + forced rebuild, no numeric changes — replays the
  // undisturbed trajectory bit-for-bit, Langevin RNG stream included.
  const GlobalSystem sys = make_lj_gas(80, 22.0, 50.0, 40.0, 307);
  md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.2, .rebuild_every = 4};
  cfg.health.snapshot_every = 4;
  const auto mk_sim = [&](std::shared_ptr<md::Pair> pair) {
    auto s = std::make_unique<md::Sim>(sys.box, atoms_of(sys), sys.masses,
                                       std::move(pair), cfg);
    s->set_thermostat(std::make_unique<md::LangevinThermostat>(50.0, 0.05, 5));
    return s;
  };

  auto oracle = mk_sim(make_lj(5.0));
  oracle->run(12);
  ASSERT_TRUE(oracle->incidents().empty());

  // Evaluation 8 = step 7 (setup is evaluation 1): one transient NaN, two
  // steps past the step-4 snapshot.
  auto faulty = mk_sim(std::make_shared<FaultyPair>(make_lj(5.0), 8));
  faulty->run(12);

  EXPECT_EQ(faulty->steps_done(), 12);
  ASSERT_EQ(faulty->incidents().size(), 1u);
  EXPECT_EQ(faulty->incidents().entries()[0].phase, "health");
  for (int i = 0; i < oracle->atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_LT((faulty->atoms().x[k] - oracle->atoms().x[k]).norm(), 1e-10);
    EXPECT_LT((faulty->atoms().v[k] - oracle->atoms().v[k]).norm(), 1e-10);
  }
  // No NaN survived into the recovered state.
  for (int i = 0; i < faulty->atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_TRUE(std::isfinite(faulty->atoms().x[k].x));
    EXPECT_TRUE(std::isfinite(faulty->atoms().v[k].x));
  }
}

TEST(HealthGuard, PersistentFaultAbortsWithIncidentLog) {
  const GlobalSystem sys = make_lj_gas(80, 22.0, 50.0, 40.0, 311);
  md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.2, .rebuild_every = 4};
  cfg.health.snapshot_every = 4;

  // Every evaluation from step 6 on injects: the full ladder runs (rewind,
  // dt backoff, conservative numerics) and then aborts diagnosably.
  md::Sim sim(sys.box, atoms_of(sys), sys.masses,
              std::make_shared<FaultyPair>(make_lj(5.0), 7, -1), cfg);
  try {
    sim.run(12);
    FAIL() << "persistent NaN fault did not abort";
  } catch (const dpmd::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("numerical health trip"), std::string::npos) << what;
    EXPECT_NE(what.find("retry budget"), std::string::npos) << what;
    EXPECT_NE(what.find("incidents"), std::string::npos) << what;
  }
  // max_retries rewinds plus the aborting trip, all on the log.
  EXPECT_GE(sim.incidents().size(),
            static_cast<std::size_t>(cfg.health.max_retries + 1));
  // The ladder escalated: some recovery action backed off the timestep.
  bool saw_dt_backoff = false;
  for (const auto& inc : sim.incidents().entries()) {
    if (inc.action.find("dt ->") != std::string::npos) saw_dt_backoff = true;
  }
  EXPECT_TRUE(saw_dt_backoff);
  // ... and the engine really runs on it: every rewind restores the
  // snapshot's dt (taken before the fault), then backs it off once.
  EXPECT_DOUBLE_EQ(sim.config().dt_fs, cfg.dt_fs * cfg.health.dt_backoff);
}

TEST(HealthGuard, DomainNaNOnOneRankRewindsAllRanksOntoTheOracle) {
  // The trip verdict is collective: a NaN on rank 0 must rewind every rank
  // to the same snapshot step, after which the recovered trajectory matches
  // a fault-free oracle at 1e-10.
  const GlobalSystem sys = make_lj_gas(140, 24.0, 60.0, 40.0, 313);
  const simmpi::CartGrid grid(2, 1, 1);
  comm::DomainConfig cfg{.dt_fs = 1.0, .skin = 0.9, .rebuild_every = 5};
  cfg.health.snapshot_every = 5;

  const auto run_domain = [&](bool with_fault) {
    std::vector<comm::DomainEngine::GlobalAtom> out;
    std::mutex mu;
    std::size_t rank0_incidents = 0;
    simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
      // Evaluation 8 = step 7 on rank 0 only (the first step runs two
      // evaluations: the setup exchange plus the step's own).
      std::shared_ptr<md::Pair> pair =
          with_fault && rank.rank() == 0
              ? std::make_shared<FaultyPair>(make_lj(5.0), 8)
              : std::static_pointer_cast<md::Pair>(make_lj(5.0));
      comm::DomainEngine engine(rank, grid, sys.box, sys.masses,
                                std::move(pair), cfg);
      engine.seed(sys.x, sys.v, sys.type);
      engine.run(12);
      EXPECT_EQ(engine.steps_done(), 12);
      if (with_fault) {
        // Collective recovery: both the faulty and the healthy rank must
        // have rewound (and logged it).
        EXPECT_GE(engine.incidents().size(), 1u) << "rank " << rank.rank();
      } else {
        EXPECT_TRUE(engine.incidents().empty());
      }
      const auto all = engine.gather_all();
      if (rank.rank() == 0) {
        std::lock_guard lock(mu);
        out = all;
        rank0_incidents = engine.incidents().size();
      }
    });
    return std::make_pair(out, rank0_incidents);
  };

  const auto [oracle, oracle_incidents] = run_domain(false);
  const auto [recovered, recovered_incidents] = run_domain(true);
  EXPECT_EQ(oracle_incidents, 0u);
  EXPECT_GE(recovered_incidents, 1u);

  ASSERT_EQ(recovered.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(recovered[i].tag, oracle[i].tag);
    EXPECT_LT(sys.box.minimum_image(recovered[i].x, oracle[i].x).norm(),
              1e-10);
    EXPECT_LT((recovered[i].v - oracle[i].v).norm(), 1e-10);
  }
}

}  // namespace
}  // namespace dpmd
