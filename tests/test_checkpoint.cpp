// Checkpoint/restart (ISSUE 6): the framed container round-trips and
// rejects corruption; md::Sim restores bit-exactly (state-wise) and a
// restart resumed from a rebuild-boundary checkpoint reproduces the
// uninterrupted trajectory; comm::DomainEngine restarts per-rank on 2-4
// ranks; engine-kind and geometry mismatches are named errors; checkpoints
// committed under tests/data by an earlier build still restore.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "comm/domain_engine.hpp"
#include "md/lattice.hpp"
#include "md/pair_lj.hpp"
#include "md/sim.hpp"
#include "md/thermostat.hpp"
#include "util/checkpoint.hpp"
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

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ------------------------------------------------- framed container ----

TEST(CheckpointContainer, RoundTripsScalarsAndVectors) {
  ckpt::Writer w;
  w.scalar(42);
  w.scalar(3.5);
  w.vec(std::vector<double>{1.0, 2.0, 3.0});
  w.vec(std::vector<std::int64_t>{});
  ckpt::Reader r(w.framed(), "unit test");
  EXPECT_EQ(r.scalar<int>(), 42);
  EXPECT_EQ(r.scalar<double>(), 3.5);
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(r.vec<std::int64_t>().empty());
  r.expect_end();
}

TEST(CheckpointContainer, FileRoundTrip) {
  const std::string path = temp_path("ckpt_file_roundtrip.ckpt");
  ckpt::Writer w;
  w.scalar(7);
  w.vec(std::vector<double>{4.0, 5.0});
  w.save_file(path);
  auto r = ckpt::Reader::from_file(path);
  EXPECT_EQ(r.scalar<int>(), 7);
  EXPECT_EQ(r.vec<double>(), (std::vector<double>{4.0, 5.0}));
  r.expect_end();
  std::remove(path.c_str());
}

TEST(CheckpointContainer, CorruptedFileIsRejectedByChecksum) {
  const std::string path = temp_path("ckpt_corrupt.ckpt");
  ckpt::Writer w;
  w.vec(std::vector<double>(16, 1.25));
  w.save_file(path);
  // Flip one payload byte, past the 32-byte header.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(40);
    char b = 0;
    f.seekg(40);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x01);
    f.seekp(40);
    f.write(&b, 1);
  }
  try {
    auto r = ckpt::Reader::from_file(path);
    FAIL() << "corrupted checkpoint was accepted";
  } catch (const dpmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(CheckpointContainer, TruncatedFileIsRejected) {
  const std::string path = temp_path("ckpt_trunc.ckpt");
  ckpt::Writer w;
  w.vec(std::vector<double>(64, 2.0));
  const auto framed = w.framed();
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(framed.data()),
            static_cast<std::streamsize>(framed.size() / 2));
  }
  EXPECT_THROW(ckpt::Reader::from_file(path), dpmd::Error);
  std::remove(path.c_str());
}

TEST(CheckpointContainer, GarbageFileIsRejectedByMagic) {
  const std::string path = temp_path("ckpt_garbage.ckpt");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a checkpoint at all, but it is long enough to parse";
  }
  try {
    auto r = ckpt::Reader::from_file(path);
    FAIL() << "garbage accepted as a checkpoint";
  } catch (const dpmd::Error& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------ md::Sim ----

TEST(SimCheckpoint, RestoreIsBitExactAndResaveIsIdentical) {
  const GlobalSystem sys = make_lj_gas(80, 22.0, 50.0, 40.0, 101);
  const md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 4};

  md::Sim a(sys.box, atoms_of(sys), sys.masses, make_lj(5.0), cfg);
  a.set_thermostat(std::make_unique<md::LangevinThermostat>(50.0, 0.05, 7));
  a.run(7);

  ckpt::Writer w;
  a.save_checkpoint(w);
  const auto framed = w.framed();

  md::Sim b(sys.box, atoms_of(sys), sys.masses, make_lj(5.0), cfg);
  b.set_thermostat(std::make_unique<md::LangevinThermostat>(50.0, 0.05, 7));
  ckpt::Reader r(framed, "round trip");
  b.restore_checkpoint(r);
  r.expect_end();

  EXPECT_EQ(b.steps_done(), a.steps_done());
  ASSERT_EQ(b.atoms().nlocal, a.atoms().nlocal);
  for (int i = 0; i < a.atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_EQ(b.atoms().x[k].x, a.atoms().x[k].x);
    EXPECT_EQ(b.atoms().x[k].y, a.atoms().x[k].y);
    EXPECT_EQ(b.atoms().x[k].z, a.atoms().x[k].z);
    EXPECT_EQ(b.atoms().v[k].x, a.atoms().v[k].x);
    EXPECT_EQ(b.atoms().v[k].y, a.atoms().v[k].y);
    EXPECT_EQ(b.atoms().v[k].z, a.atoms().v[k].z);
  }
  // Save -> restore -> save must reproduce the identical byte stream
  // (counters, RNG stream and thermostat accumulators included).
  ckpt::Writer w2;
  b.save_checkpoint(w2);
  EXPECT_EQ(w2.framed(), framed);
}

TEST(SimCheckpoint, RestartAtRebuildBoundaryMatchesUninterruptedRun) {
  // Checkpoint right after a rebuild step: the forced rebuild at restore
  // re-derives the identical lists and forces, so the resumed trajectory —
  // Langevin RNG stream included — is the uninterrupted one bit-for-bit
  // (compared here at 1e-12).
  const GlobalSystem sys = make_lj_gas(80, 22.0, 60.0, 40.0, 103);
  const md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.2, .rebuild_every = 4};
  const auto mk_sim = [&] {
    auto s = std::make_unique<md::Sim>(sys.box, atoms_of(sys), sys.masses,
                                       make_lj(5.0), cfg);
    s->set_thermostat(std::make_unique<md::LangevinThermostat>(60.0, 0.05, 9));
    return s;
  };

  auto oracle = mk_sim();
  oracle->run(24);

  const std::string path = temp_path("sim_restart.ckpt");
  auto first = mk_sim();
  first->run(12);  // 12 = a multiple of rebuild_every: a cadence boundary
  first->save_checkpoint_file(path);

  auto resumed = mk_sim();
  resumed->restore_checkpoint_file(path);
  EXPECT_EQ(resumed->steps_done(), 12);
  resumed->run(12);

  ASSERT_EQ(resumed->atoms().nlocal, oracle->atoms().nlocal);
  for (int i = 0; i < oracle->atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_LT((resumed->atoms().x[k] - oracle->atoms().x[k]).norm(), 1e-12);
    EXPECT_LT((resumed->atoms().v[k] - oracle->atoms().v[k]).norm(), 1e-12);
  }
  std::remove(path.c_str());
}

TEST(SimCheckpoint, MidCadenceRestartStaysOnTrajectory) {
  // Checkpoint mid-window: the restart rebuilds one step early, so the
  // rebuild schedule shifts — the same legitimate perturbation the cadence
  // suite bounds at amplified round-off across schedules.
  const GlobalSystem sys = make_lj_gas(80, 22.0, 40.0, 40.0, 107);
  const md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.2, .rebuild_every = 5};
  const auto mk_sim = [&] {
    return std::make_unique<md::Sim>(sys.box, atoms_of(sys), sys.masses,
                                     make_lj(5.0), cfg);
  };

  auto oracle = mk_sim();
  oracle->run(20);

  const std::string path = temp_path("sim_midcadence.ckpt");
  auto first = mk_sim();
  first->run(13);  // 13 % 5 != 0: mid-window
  first->save_checkpoint_file(path);

  auto resumed = mk_sim();
  resumed->restore_checkpoint_file(path);
  resumed->run(7);

  for (int i = 0; i < oracle->atoms().nlocal; ++i) {
    const auto k = static_cast<std::size_t>(i);
    // Wrapping happens at rebuilds, which now land on different steps:
    // compare through the minimum image.
    EXPECT_LT(sys.box
                  .minimum_image(resumed->atoms().x[k], oracle->atoms().x[k])
                  .norm(),
              1e-8);
  }
  std::remove(path.c_str());
}

TEST(SimCheckpoint, RejectsGeometryAndKindMismatch) {
  const GlobalSystem sys = make_lj_gas(40, 20.0, 40.0, 40.0, 109);
  md::Sim a(sys.box, atoms_of(sys), sys.masses, make_lj(5.0),
            {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 4});
  a.run(3);
  ckpt::Writer w;
  a.save_checkpoint(w);
  const auto framed = w.framed();

  // Different rebuild cadence: restoring would silently change what the
  // serialized steps_since_build_ means, so it must be rejected.
  md::Sim b(sys.box, atoms_of(sys), sys.masses, make_lj(5.0),
            {.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 7});
  ckpt::Reader r(framed, "mismatch test");
  EXPECT_THROW(b.restore_checkpoint(r), dpmd::Error);

  // A Sim checkpoint restored into a DomainEngine: kind tag mismatch.
  simmpi::run_world(1, [&](simmpi::Rank& rank) {
    const simmpi::CartGrid grid(1, 1, 1);
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              {.dt_fs = 1.0, .skin = 1.0});
    ckpt::Reader rd(framed, "kind mismatch test");
    try {
      engine.restore_checkpoint(rd);
      FAIL() << "Sim checkpoint restored into a DomainEngine";
    } catch (const dpmd::Error& e) {
      EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos)
          << e.what();
    }
  });
}

// ------------------------------------------------- comm::DomainEngine ----

TEST(DomainCheckpoint, PerRankRestartMatchesUninterruptedRun) {
  const GlobalSystem sys = make_lj_gas(140, 24.0, 60.0, 40.0, 113);
  const simmpi::CartGrid grid(2, 2, 1);
  const comm::DomainConfig cfg{.dt_fs = 1.0, .skin = 0.9, .rebuild_every = 5};
  const std::string base = temp_path("domain_restart.ckpt");

  // 50-step trajectory, interrupted at step 25 (a rebuild boundary, so the
  // restart's forced rebuild re-derives identical lists and forces).
  std::vector<comm::DomainEngine::GlobalAtom> oracle;
  std::mutex mu;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              cfg);
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(50);
    const auto all = engine.gather_all();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      oracle = all;
    }
  });

  // First leg: run to the boundary (25 = 5 x rebuild_every) and checkpoint
  // every rank.
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              cfg);
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(25);
    engine.save_checkpoint_file(base);
  });

  // Second leg: fresh world, restore per rank, finish the trajectory.
  std::vector<comm::DomainEngine::GlobalAtom> resumed;
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              cfg);
    engine.restore_checkpoint_file(base);
    EXPECT_EQ(engine.steps_done(), 25);
    engine.run(25);
    const auto all = engine.gather_all();
    if (rank.rank() == 0) {
      std::lock_guard lock(mu);
      resumed = all;
    }
  });

  ASSERT_EQ(resumed.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(resumed[i].tag, oracle[i].tag);
    EXPECT_LT(sys.box.minimum_image(resumed[i].x, oracle[i].x).norm(), 1e-10);
    EXPECT_LT((resumed[i].v - oracle[i].v).norm(), 1e-10);
  }
  for (int r = 0; r < grid.size(); ++r) {
    std::remove(comm::DomainEngine::rank_checkpoint_path(base, r).c_str());
  }
}

TEST(DomainCheckpoint, RejectsWrongRankCountOrRank) {
  const GlobalSystem sys = make_lj_gas(60, 20.0, 40.0, 40.0, 127);
  const std::string base = temp_path("domain_wrongrank.ckpt");

  simmpi::run_world(2, [&](simmpi::Rank& rank) {
    const simmpi::CartGrid grid(2, 1, 1);
    // skin 0: a 2x1x1 split of this box has no slack for a ghost band.
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              {.dt_fs = 1.0, .skin = 0.0});
    engine.seed(sys.x, sys.v, sys.type);
    engine.run(2);
    engine.save_checkpoint_file(base);
  });

  // Restoring rank 1's file into rank 0 of a fresh world must be rejected.
  simmpi::run_world(1, [&](simmpi::Rank& rank) {
    const simmpi::CartGrid grid(1, 1, 1);
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(5.0),
                              {.dt_fs = 1.0, .skin = 1.0});
    ckpt::Reader r = ckpt::Reader::from_file(
        comm::DomainEngine::rank_checkpoint_path(base, 1));
    EXPECT_THROW(engine.restore_checkpoint(r), dpmd::Error);
  });
  for (int r = 0; r < 2; ++r) {
    std::remove(comm::DomainEngine::rank_checkpoint_path(base, r).c_str());
  }
}

// ------------------------------------------------ cross-version restore ----
// tests/data holds checkpoints written by an earlier build of the engines
// (see tests/data/README.md for the systems and how they were made).  The
// current code must restore them, and saving the restored engine again must
// reproduce the committed bytes exactly — same format, same fields, same
// order.  A byte comparison of restored state, so it holds on any host.

std::string data_path(const std::string& name) {
  return std::string(DPMD_TEST_DATA_DIR) + "/" + name;
}

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(CheckpointCompat, CommittedSimCheckpointRestoresAndResavesIdentically) {
  const GlobalSystem sys = make_lj_gas(40, 18.0, 50.0, 40.0, 131);
  const md::SimConfig cfg{.dt_fs = 1.0, .skin = 1.0, .rebuild_every = 4};
  md::Sim sim(sys.box, atoms_of(sys), sys.masses, make_lj(5.0), cfg);
  sim.set_thermostat(std::make_unique<md::LangevinThermostat>(50.0, 0.05, 7));
  const std::string committed = data_path("sim_lj40.ckpt");
  sim.restore_checkpoint_file(committed);
  EXPECT_EQ(sim.steps_done(), 7);

  const std::string resaved = temp_path("sim_lj40_resaved.ckpt");
  sim.save_checkpoint_file(resaved);
  EXPECT_EQ(read_bytes(resaved), read_bytes(committed));
  std::remove(resaved.c_str());
  // The restored state is live: it steps on through the forced rebuild.
  sim.run(3);
  EXPECT_EQ(sim.steps_done(), 10);
  EXPECT_TRUE(std::isfinite(sim.pe()));
}

TEST(CheckpointCompat, CommittedDomainCheckpointsRestoreAndResaveIdentically) {
  const GlobalSystem sys = make_lj_gas(60, 20.0, 60.0, 40.0, 137);
  const simmpi::CartGrid grid(2, 1, 1);
  const comm::DomainConfig cfg{.dt_fs = 1.0, .skin = 0.9, .rebuild_every = 5};
  const std::string committed = data_path("domain_lj60_2rank.ckpt");
  const std::string resaved = temp_path("domain_lj60_2rank_resaved.ckpt");
  simmpi::run_world(grid.size(), [&](simmpi::Rank& rank) {
    comm::DomainEngine engine(rank, grid, sys.box, sys.masses, make_lj(4.0),
                              cfg);
    engine.restore_checkpoint_file(committed);
    EXPECT_EQ(engine.steps_done(), 7);
    engine.save_checkpoint_file(resaved);
    engine.run(3);
    EXPECT_EQ(engine.steps_done(), 10);
    EXPECT_TRUE(std::isfinite(engine.total_pe()));
  });
  for (int r = 0; r < grid.size(); ++r) {
    const auto path = [r](const std::string& base) {
      return comm::DomainEngine::rank_checkpoint_path(base, r);
    };
    const std::string out = path(resaved);
    EXPECT_EQ(read_bytes(out), read_bytes(path(committed))) << "rank " << r;
    std::remove(out.c_str());
  }
}

}  // namespace
}  // namespace dpmd
