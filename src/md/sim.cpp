#include "md/sim.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "md/ghosts.hpp"
#include "md/units.hpp"
#include "util/error.hpp"

namespace dpmd::md {

namespace {

/// SimConfig::skin < 0 = auto (ISSUE 5 satellite): the largest skin the
/// periodic cell admits — the ghost band may not wrap past the far image,
/// so 2*(rcut+skin) <= shortest box length — capped at kMaxAutoSkin (the
/// paper's 2 A production skin) and floored at 0.
SimConfig resolve_config(SimConfig cfg, const Box& box, double rcut) {
  if (cfg.skin >= 0.0) return cfg;
  const Vec3 len = box.length();
  const double shortest = std::min({len.x, len.y, len.z});
  cfg.skin = std::clamp(0.5 * shortest - rcut, 0.0, kMaxAutoSkin);
  return cfg;
}

}  // namespace

Sim::Sim(Box box, Atoms atoms, std::vector<double> masses,
         std::shared_ptr<Pair> pair, SimConfig cfg)
    : box_(box), atoms_(std::move(atoms)), masses_(std::move(masses)),
      pair_(std::move(pair)),
      cfg_(resolve_config(cfg, box_, pair_->cutoff())),
      nlist_({pair_->cutoff(), cfg_.skin, pair_->needs_full_list()}),
      integrity_(cfg_.health, "") {
  DPMD_REQUIRE(pair_ != nullptr, "pair style required");
  for (int i = 0; i < atoms_.nlocal; ++i) {
    const int t = atoms_.type[static_cast<std::size_t>(i)];
    DPMD_REQUIRE(t >= 0 && static_cast<std::size_t>(t) < masses_.size(),
                 "atom type without a mass");
  }
}

void Sim::build_ghosts() {
  build_periodic_ghosts(atoms_, box_, pair_->cutoff() + cfg_.skin);
}

void Sim::refresh_ghost_positions() {
  for (int g = 0; g < atoms_.nghost; ++g) {
    const int parent = atoms_.ghost_parent[static_cast<std::size_t>(g)];
    atoms_.x[static_cast<std::size_t>(atoms_.nlocal + g)] =
        atoms_.x[static_cast<std::size_t>(parent)] +
        atoms_.ghost_shift[static_cast<std::size_t>(g)];
  }
}

void Sim::fold_ghost_forces() {
  for (int g = 0; g < atoms_.nghost; ++g) {
    const int parent = atoms_.ghost_parent[static_cast<std::size_t>(g)];
    atoms_.f[static_cast<std::size_t>(parent)] +=
        atoms_.f[static_cast<std::size_t>(atoms_.nlocal + g)];
  }
}

void Sim::rebuild_lists() {
  ScopedTimer timer(timers_, "neigh");
  // Wrap all locals, then rebuild ghosts and the list.
  for (int i = 0; i < atoms_.nlocal; ++i) {
    box_.wrap(atoms_.x[static_cast<std::size_t>(i)],
              atoms_.image[static_cast<std::size_t>(i)].data());
  }
  build_ghosts();
  nlist_.build(atoms_, box_);
  // Interior/boundary split, pinned to the build positions: the
  // classification (like the list) stays valid while atoms drift under the
  // skin, because its guarantee is about neighbor indices.
  classify_partition(atoms_, box_, nlist_.list_cutoff(), partition_);
  x_at_build_.assign(atoms_.x.begin(), atoms_.x.begin() + atoms_.nlocal);
  // Let the style drop/refresh list-derived caches (PairDeepMD keeps its
  // packed env-batch structure between rebuilds; see md::Pair).
  pair_->on_lists_rebuilt();
  ++rebuilds_;
  steps_since_build_ = 0;
}

void Sim::compute_forces(bool ghosts_stale) {
  atoms_.zero_forces();
  ForceAccum accum;
  {
    ScopedTimer timer(timers_, "pair");
    pair_->begin_step(atoms_, nlist_);
    pair_->compute_partition(atoms_, nlist_, partition_.interior, accum);
  }
  if (ghosts_stale) {
    ScopedTimer timer(timers_, "comm");
    refresh_ghost_positions();
  }
  ScopedTimer timer(timers_, "pair");
  pair_->compute_partition(atoms_, nlist_, partition_.boundary, accum);
  const ForceResult res = pair_->end_step(atoms_, nlist_, accum);
  fold_ghost_forces();
  pe_ = res.pe;
  virial_ = res.virial;
}

bool Sim::drift_exceeds_skin() const {
  const double limit2 = 0.25 * cfg_.skin * cfg_.skin;
  for (int i = 0; i < atoms_.nlocal; ++i) {
    const Vec3 d = atoms_.x[static_cast<std::size_t>(i)] -
                   x_at_build_[static_cast<std::size_t>(i)];
    if (d.norm2() > limit2) return true;
  }
  return false;
}

void Sim::setup() {
  rebuild_lists();
  compute_forces(/*ghosts_stale=*/false);
  needs_setup_ = false;
  // First rewind target until the cadence takes over.  No health verdict
  // here: the guard protects *trajectories* (the first step() scans these
  // same forces before they enter the velocities), while a setup-only Sim
  // is a legitimate static evaluator of arbitrarily pathological
  // configurations (the force-field gradient tests rely on that).  The
  // snapshot stores positions/velocities, not forces, so it is a valid
  // rewind target either way.
  integrity_.ensure_snapshot(
      steps_done_, [this](ckpt::Writer& w) { save_checkpoint(w); });
}

void Sim::step() {
  if (needs_setup_) setup();
  stop_.check("md step");

  const double dt = cfg_.dt_fs;
  // Velocity Verlet, metal-style units (see md/units.hpp).
  {
    ScopedTimer timer(timers_, "integrate");
    for (int i = 0; i < atoms_.nlocal; ++i) {
      const double inv_m =
          kForceConv / masses_[static_cast<std::size_t>(
                           atoms_.type[static_cast<std::size_t>(i)])];
      atoms_.v[static_cast<std::size_t>(i)] +=
          atoms_.f[static_cast<std::size_t>(i)] * (0.5 * dt * inv_m);
      atoms_.x[static_cast<std::size_t>(i)] +=
          atoms_.v[static_cast<std::size_t>(i)] * dt;
    }
  }

  ++steps_since_build_;
  const bool rebuild = steps_since_build_ >= cfg_.rebuild_every ||
                       (cfg_.rebuild_on_drift && drift_exceeds_skin());
  if (rebuild) rebuild_lists();

  // On non-rebuild steps the ghost refresh happens inside compute_forces,
  // between the interior and boundary partitions (the distributed engine
  // genuinely overlaps there).
  compute_forces(/*ghosts_stale=*/!rebuild);

  // Health guard (ISSUE 6): scan before the forces enter the velocities.
  // On a trip the whole step is abandoned — no second kick, no counter
  // advance — and the engine rewinds to the last snapshot (or aborts).
  if (integrity_.rewound_after_trip(
          atoms_, pe_, steps_done_,
          [this](ckpt::Reader& r) { restore_checkpoint(r); }, cfg_.dt_fs,
          *pair_)) {
    return;
  }

  {
    ScopedTimer timer(timers_, "integrate");
    for (int i = 0; i < atoms_.nlocal; ++i) {
      const double inv_m =
          kForceConv / masses_[static_cast<std::size_t>(
                           atoms_.type[static_cast<std::size_t>(i)])];
      atoms_.v[static_cast<std::size_t>(i)] +=
          atoms_.f[static_cast<std::size_t>(i)] * (0.5 * dt * inv_m);
    }
  }

  if (thermostat_ != nullptr) {
    ScopedTimer timer(timers_, "thermostat");
    thermostat_->apply(atoms_, masses_, dt);
  }
  ++steps_done_;
  integrity_.step_completed(
      steps_done_, [this](ckpt::Writer& w) { save_checkpoint(w); });
}

void Sim::run(int nsteps, int callback_every, const Callback& cb) {
  if (needs_setup_) setup();
  // A health rewind rolls steps_done_ back, so count against the target
  // rather than a loop index — rewound steps re-run.  The callback only
  // fires on steps that actually completed.
  const int target = steps_done_ + nsteps;
  while (steps_done_ < target) {
    const int before = steps_done_;
    step();
    if (cb && callback_every > 0 && steps_done_ > before &&
        (steps_done_ % callback_every) == 0) {
      cb(steps_done_, *this);
    }
  }
}

namespace {
/// Leading tag word of a Sim checkpoint section ("SIM1"): a checkpoint can
/// only be restored into the engine kind that wrote it.
constexpr std::uint32_t kSimCkptTag = 0x53494d31u;
}  // namespace

void Sim::save_checkpoint(ckpt::Writer& w) const {
  w.scalar(kSimCkptTag);
  w.scalar(box_.lo);
  w.scalar(box_.hi);
  w.scalar(cfg_.dt_fs);
  w.scalar(cfg_.skin);
  w.scalar(cfg_.rebuild_every);
  w.scalar(steps_done_);
  w.scalar(steps_since_build_);
  w.scalar(rebuilds_);
  w.scalar(pe_);
  w.scalar(virial_);
  const auto n = static_cast<std::size_t>(atoms_.nlocal);
  w.vec(std::vector<Vec3>(atoms_.x.begin(), atoms_.x.begin() + n));
  w.vec(std::vector<Vec3>(atoms_.v.begin(), atoms_.v.begin() + n));
  w.vec(std::vector<int>(atoms_.type.begin(), atoms_.type.begin() + n));
  w.vec(std::vector<std::int64_t>(atoms_.tag.begin(), atoms_.tag.begin() + n));
  w.vec(std::vector<std::array<int, 3>>(atoms_.image.begin(),
                                        atoms_.image.begin() + n));
  w.vec(x_at_build_);
  const std::uint8_t has_thermostat = thermostat_ != nullptr ? 1 : 0;
  w.scalar(has_thermostat);
  if (thermostat_ != nullptr) thermostat_->save_state(w);
}

void Sim::restore_checkpoint(ckpt::Reader& r) {
  const auto ctx = [&](const char* msg) { return r.context() + ": " + msg; };
  DPMD_REQUIRE(r.scalar<std::uint32_t>() == kSimCkptTag,
               ctx("not a Sim checkpoint (engine kind mismatch)"));
  const Vec3 lo = r.scalar<Vec3>();
  const Vec3 hi = r.scalar<Vec3>();
  DPMD_REQUIRE(lo.x == box_.lo.x && lo.y == box_.lo.y && lo.z == box_.lo.z &&
                   hi.x == box_.hi.x && hi.y == box_.hi.y && hi.z == box_.hi.z,
               ctx("checkpoint box differs from this simulation's"));
  // dt is *restored* (the health guard may have backed it off before the
  // save); the list-cadence geometry must match the engine it restores into.
  cfg_.dt_fs = r.scalar<double>();
  DPMD_REQUIRE(r.scalar<double>() == cfg_.skin,
               ctx("checkpoint skin differs from this simulation's"));
  DPMD_REQUIRE(r.scalar<int>() == cfg_.rebuild_every,
               ctx("checkpoint rebuild cadence differs from this simulation's"));
  steps_done_ = r.scalar<int>();
  steps_since_build_ = r.scalar<int>();
  rebuilds_ = r.scalar<int>();
  pe_ = r.scalar<double>();
  virial_ = r.scalar<double>();
  const auto x = r.vec<Vec3>();
  const auto v = r.vec<Vec3>();
  const auto type = r.vec<int>();
  const auto tag = r.vec<std::int64_t>();
  const auto image = r.vec<std::array<int, 3>>();
  DPMD_REQUIRE(v.size() == x.size() && type.size() == x.size() &&
                   tag.size() == x.size() && image.size() == x.size(),
               ctx("checkpoint atom arrays disagree in length"));
  atoms_ = Atoms{};
  for (std::size_t i = 0; i < x.size(); ++i) {
    atoms_.add_local(x[i], v[i], type[i], tag[i]);
    atoms_.image[i] = image[i];
  }
  x_at_build_ = r.vec<Vec3>();
  const auto has_thermostat = r.scalar<std::uint8_t>();
  DPMD_REQUIRE((has_thermostat != 0) == (thermostat_ != nullptr),
               ctx("checkpoint thermostat presence differs from this "
                   "simulation's"));
  if (thermostat_ != nullptr) thermostat_->restore_state(r);
  // Ghosts, lists, partition and forces are derived state: the forced
  // rebuild of the next step regenerates them, which also makes a
  // mid-cadence restart correct (the rebuild lands one step early and the
  // cadence restarts from there).
  needs_setup_ = true;
}

void Sim::save_checkpoint_file(const std::string& path) const {
  ckpt::Writer w;
  save_checkpoint(w);
  w.save_file(path);
}

void Sim::restore_checkpoint_file(const std::string& path) {
  auto r = ckpt::Reader::from_file(path);
  restore_checkpoint(r);
  r.expect_end();
}

ThermoState Sim::thermo() const {
  return compute_thermo(atoms_, masses_, pe_, virial_, box_);
}

}  // namespace dpmd::md
