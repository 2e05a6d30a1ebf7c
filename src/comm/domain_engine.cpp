#include "comm/domain_engine.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "comm/geometry.hpp"
#include "comm/wire.hpp"
#include "loadbalance/loadbalance.hpp"
#include "md/units.hpp"
#include "util/error.hpp"

namespace dpmd::comm {

namespace {

constexpr int kTagMigrate = 700;
constexpr int kTagForce = 800;

struct MigrantAtom {
  double x, y, z;
  double vx, vy, vz;
  std::int32_t type;
  std::int32_t pad;
  std::int64_t tag;
};
static_assert(std::is_trivially_copyable_v<MigrantAtom>);

struct ForceMsg {
  std::int64_t tag;
  double fx, fy, fz;
};
static_assert(std::is_trivially_copyable_v<ForceMsg>);

/// If the exchange throws (e.g. a poisoned world after a peer rank
/// failed), a launched partition must be joined before the frame — which
/// owns the accumulator and atom arrays the workers use — unwinds.
struct JoinGuard {
  md::Pair* pair;
  void join() { std::exchange(pair, nullptr)->join(); }
  ~JoinGuard() { if (pair != nullptr) pair->join(); }
};

/// Resolves DomainConfig::skin < 0 (auto, ISSUE 5 satellite) to the largest
/// admissible skin of this decomposition: the halo exchange requires
/// 2*(rcut+skin) <= slack per dimension (slack = global - sub length where
/// the grid splits the dimension, the full box length otherwise — see
/// HaloExchange::begin), so the auto skin is the tightest dimension's
/// slack/2 - rcut, clamped to [0, md::kMaxAutoSkin].  The grid and global
/// box are replicated, so every rank derives the same value; an allreduce
/// pins the agreement anyway (cadence decisions must be collective).
DomainConfig resolve_config(DomainConfig cfg, const simmpi::CartGrid& grid,
                            const md::Box& box, double rcut,
                            simmpi::Rank& rank) {
  if (cfg.skin >= 0.0) return cfg;
  const Vec3 len = box.length();
  const int n[3] = {grid.nx(), grid.ny(), grid.nz()};
  double skin = md::kMaxAutoSkin;
  for (int d = 0; d < 3; ++d) {
    const double sub = len[d] / n[d];
    const double slack = n[d] > 1 ? len[d] - sub : len[d];
    skin = std::min(skin, 0.5 * slack - rcut);
    // Rebalancing additionally needs every initial sub-box to satisfy the
    // planner's min-width guard, sub >= 2*(rcut+skin): cap the auto skin so
    // the feasibility check in the constructor holds by construction.
    if (cfg.rebalance_every > 0 && n[d] > 1) {
      skin = std::min(skin, 0.5 * sub - rcut);
    }
  }
  skin = std::max(0.0, skin);
  cfg.skin = -rank.allreduce_max(-skin);  // collective min
  return cfg;
}

}  // namespace

DomainEngine::DomainEngine(simmpi::Rank& rank, const simmpi::CartGrid& grid,
                           const md::Box& global_box,
                           std::vector<double> masses,
                           std::shared_ptr<md::Pair> pair, DomainConfig cfg)
    : rank_(rank), grid_(grid), global_box_(global_box),
      masses_(std::move(masses)), pair_(std::move(pair)),
      cfg_(resolve_config(cfg, grid, global_box, pair_->cutoff(), rank)),
      nlist_({pair_->cutoff(), cfg_.skin, pair_->needs_full_list()}),
      halo_(rank_, grid_, global_box_, pair_->cutoff() + cfg_.skin),
      integrity_(cfg_.health, " on rank " + std::to_string(rank.rank()),
                 [&rank](bool bad) {
                   // One rank's NaN rewinds every rank, or the domains
                   // would disagree about which step they are on.
                   return rank.allreduce_max(bad ? 1.0 : 0.0) > 0.5;
                 }) {
  DPMD_REQUIRE(cfg_.skin >= 0.0 && cfg_.rebuild_every >= 1,
               "bad skin/rebuild cadence");
  DPMD_REQUIRE(cfg_.rebalance_every >= 0 && cfg_.rebalance_damping >= 0.0 &&
                   cfg_.rebalance_damping <= 1.0,
               "bad rebalance cadence/damping");
  const Vec3 len = global_box_.length();
  const int n[3] = {grid_.nx(), grid_.ny(), grid_.nz()};
  for (int d = 0; d < 3; ++d) {
    // lb::uniform_planes uses lo + i * (len/n) — the exact arithmetic the
    // uniform sub-box construction has always used, so rebalancing off is
    // bit-identical to the pre-rebalance engine.
    planes_[static_cast<std::size_t>(d)] =
        lb::uniform_planes(global_box_.lo[d], global_box_.hi[d], n[d]);
    // Feasibility of the planner's min-width guard: a slab can never grow
    // thinner than 2*(rcut+skin), so the uniform start must already be at
    // least that wide on every split dimension.
    DPMD_REQUIRE(cfg_.rebalance_every <= 0 || n[d] == 1 ||
                     len[d] / n[d] + 1e-9 >=
                         2.0 * (pair_->cutoff() + cfg_.skin),
                 "rebalancing requires every initial sub-box to be at least "
                 "2*(rcut+skin) wide on split dimensions");
  }
  set_sub_box_from_planes();
  const Vec3 sub{len.x / grid_.nx(), len.y / grid_.ny(), len.z / grid_.nz()};

  // Symmetric peer set: every rank whose offset has a non-empty ghost
  // overlap (covers force return from multi-hop ghosts) plus the 26-cell
  // migration shell.  The ghost band includes the skin.
  const auto regions =
      enumerate_ghost_regions(sub, pair_->cutoff() + cfg_.skin);
  std::vector<int> peers;
  for (const auto& region : regions) {
    peers.push_back(grid_.neighbor(rank_.rank(), region.offset[0],
                                   region.offset[1], region.offset[2]));
  }
  for (int dx = -1; dx <= 1; ++dx) {
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dz = -1; dz <= 1; ++dz) {
        peers.push_back(grid_.neighbor(rank_.rank(), dx, dy, dz));
      }
    }
  }
  std::sort(peers.begin(), peers.end());
  peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
  peers.erase(std::remove(peers.begin(), peers.end(), rank_.rank()),
              peers.end());
  exchange_peers_ = std::move(peers);
}

void DomainEngine::set_sub_box_from_planes() {
  const auto c = grid_.coords_of(rank_.rank());
  sub_box_ = md::Box({planes_[0][static_cast<std::size_t>(c[0])],
                      planes_[1][static_cast<std::size_t>(c[1])],
                      planes_[2][static_cast<std::size_t>(c[2])]},
                     {planes_[0][static_cast<std::size_t>(c[0]) + 1],
                      planes_[1][static_cast<std::size_t>(c[1]) + 1],
                      planes_[2][static_cast<std::size_t>(c[2]) + 1]});
}

int DomainEngine::slab_of(int d, double x) const {
  const auto& p = planes_[static_cast<std::size_t>(d)];
  const int n = static_cast<int>(p.size()) - 1;
  const int i =
      static_cast<int>(std::upper_bound(p.begin(), p.end(), x) - p.begin()) -
      1;
  return std::clamp(i, 0, n - 1);
}

void DomainEngine::maybe_rebalance() {
  // The expiry decision must be collective without a message:
  // steps_since_balance_ advances in lockstep on every rank and rebuild
  // steps are collectively agreed, so every rank reaches the allgather
  // below together (or none does).
  if (cfg_.rebalance_every <= 0 ||
      steps_since_balance_ < cfg_.rebalance_every) {
    return;
  }
  steps_since_balance_ = 0;
  // Measured cost: this rank's pair-phase seconds since the last balance
  // event (clamped at 0 in case a caller reset the timer registry
  // mid-window).
  const double pair_s = timers_.total("pair");
  const double cost = std::max(0.0, pair_s - pair_mark_);
  pair_mark_ = pair_s;
  const auto costs = rank_.allgather(cost);
  // plan() is a pure function of (planes, costs) and every rank holds the
  // identical allgathered vector, so all ranks derive the same geometry.
  lb::RebalanceConfig rcfg;
  rcfg.damping = cfg_.rebalance_damping;
  rcfg.min_width = 2.0 * (pair_->cutoff() + cfg_.skin);
  const lb::Rebalancer planner({grid_.nx(), grid_.ny(), grid_.nz()}, rcfg);
  auto next = planner.plan(planes_, costs);
  if (next == planes_) return;  // balanced (or nothing measured): no event
  planes_ = std::move(next);
  set_sub_box_from_planes();
  ++rebalances_;
  // The caller (the rebuild branch) now migrates onto the new geometry and
  // re-records the halo plan; min_width >= 2*(rcut+skin) bounds the plane
  // move to under half the neighboring slab, so one migration through the
  // 26-cell shell always suffices.
}

void DomainEngine::seed(const std::vector<Vec3>& x, const std::vector<Vec3>& v,
                        const std::vector<int>& type) {
  DPMD_REQUIRE(x.size() == v.size() && x.size() == type.size(),
               "seed array mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) {
    Vec3 p = x[i];
    global_box_.wrap(p);
    if (sub_box_.contains(p)) {
      atoms_.add_local(p, v[i], type[i], static_cast<std::int64_t>(i));
    }
  }
  forces_ready_ = false;
}

void DomainEngine::migrate() {
  // Wrap locals and hand off atoms that left the sub-box.
  std::unordered_map<int, std::vector<MigrantAtom>> outbox;
  for (const int peer : exchange_peers_) outbox[peer];  // pre-create (empty ok)

  md::Atoms kept;
  for (int i = 0; i < atoms_.nlocal; ++i) {
    Vec3 p = atoms_.x[static_cast<std::size_t>(i)];
    global_box_.wrap(p);
    if (sub_box_.contains(p)) {
      kept.add_local(p, atoms_.v[static_cast<std::size_t>(i)],
                     atoms_.type[static_cast<std::size_t>(i)],
                     atoms_.tag[static_cast<std::size_t>(i)]);
      continue;
    }
    // Owner lookup searches the decomposition planes — the same values
    // Box::contains compares against — so ownership and membership can
    // never disagree, uniform grid or not.
    const int owner = grid_.rank_of(slab_of(0, p.x), slab_of(1, p.y),
                                    slab_of(2, p.z));
    const auto it = outbox.find(owner);
    DPMD_REQUIRE(it != outbox.end(),
                 "atom migrated beyond the exchange shell in one step");
    const Vec3& vel = atoms_.v[static_cast<std::size_t>(i)];
    it->second.push_back({p.x, p.y, p.z, vel.x, vel.y, vel.z,
                          atoms_.type[static_cast<std::size_t>(i)], 0,
                          atoms_.tag[static_cast<std::size_t>(i)]});
  }

  for (const int peer : exchange_peers_) {
    wire::send_checked(rank_, peer, kTagMigrate, outbox[peer]);
  }
  for (const int peer : exchange_peers_) {
    for (const auto& m : wire::recv_checked<MigrantAtom>(
             rank_, peer, kTagMigrate, "migration atoms")) {
      kept.add_local({m.x, m.y, m.z}, {m.vx, m.vy, m.vz}, m.type, m.tag);
    }
  }
  atoms_ = std::move(kept);

  // Locals changed (order and membership): refresh the force-return map.
  // Migration only happens on rebuild steps, so the map (like the halo
  // plan) is steady-state between rebuilds.
  tag_to_local_.clear();
  tag_to_local_.reserve(static_cast<std::size_t>(atoms_.nlocal));
  for (int i = 0; i < atoms_.nlocal; ++i) {
    tag_to_local_[atoms_.tag[static_cast<std::size_t>(i)]] = i;
  }
}

void DomainEngine::fill_local_domain() {
  dom_.sub_box = sub_box_;
  dom_.locals.clear();
  dom_.locals.reserve(static_cast<std::size_t>(atoms_.nlocal));
  for (int i = 0; i < atoms_.nlocal; ++i) {
    HaloAtom a;
    const Vec3& p = atoms_.x[static_cast<std::size_t>(i)];
    a.x = p.x;
    a.y = p.y;
    a.z = p.z;
    a.type = atoms_.type[static_cast<std::size_t>(i)];
    a.pad = rank_.rank();  // owner travels with the atom for force return
    a.tag = atoms_.tag[static_cast<std::size_t>(i)];
    dom_.locals.push_back(a);
  }
}

void DomainEngine::adopt_ghosts(const std::vector<HaloAtom>& ghosts) {
  atoms_.clear_ghosts();
  ghost_owner_.clear();
  ghost_owner_.reserve(ghosts.size());
  for (const HaloAtom& g : ghosts) {
    atoms_.add_ghost({g.x, g.y, g.z}, g.type, g.tag, /*parent=*/-1,
                     {0, 0, 0});
    ghost_owner_.push_back(g.pad);
  }
}

void DomainEngine::return_ghost_forces() {
  const auto& tag_to_local = tag_to_local_;
  std::unordered_map<int, std::vector<ForceMsg>> outbox;
  for (const int peer : exchange_peers_) outbox[peer];
  for (int g = 0; g < atoms_.nghost; ++g) {
    const Vec3& f = atoms_.f[static_cast<std::size_t>(atoms_.nlocal + g)];
    if (f.norm2() == 0.0) continue;  // nothing to return
    const int owner = ghost_owner_[static_cast<std::size_t>(g)];
    const std::int64_t tag = atoms_.tag[static_cast<std::size_t>(
        atoms_.nlocal + g)];
    if (owner == rank_.rank()) {
      // Periodic self-image: fold directly.
      atoms_.f[static_cast<std::size_t>(tag_to_local.at(tag))] += f;
      continue;
    }
    outbox[owner].push_back({tag, f.x, f.y, f.z});
  }

  for (const int peer : exchange_peers_) {
    wire::send_checked(rank_, peer, kTagForce, outbox[peer]);
  }
  for (const int peer : exchange_peers_) {
    for (const auto& msg : wire::recv_checked<ForceMsg>(
             rank_, peer, kTagForce, "returned ghost forces")) {
      atoms_.f[static_cast<std::size_t>(tag_to_local.at(msg.tag))] +=
          Vec3{msg.fx, msg.fy, msg.fz};
    }
  }
}

void DomainEngine::compute_forces(bool rebuild) {
  // One schedule (paper §III-C): post the halo sends, evaluate the interior
  // partition, finish the exchange, evaluate the boundary partition.  An
  // interior center's stencil cannot reach a ghost, so its evaluation (and,
  // on a rebuild, its list build) needs no ghost; with cfg_.overlap it runs
  // on the pair's worker threads while this thread drives the remaining
  // exchange rounds.  The exchange reads a snapshot of the locals (dom_ on
  // a rebuild, the recorded plan's gather on a refresh), never the arrays
  // the workers use, which is what makes the overlap race-free.
  if (rebuild) {
    fill_local_domain();
    // With a rebuild cadence, this full exchange doubles as the recording
    // pass for the steady-state position-only replays.
    halo_.record_plan(cfg_.rebuild_every > 1 ? &plan_ : nullptr);
    md::classify_partition(atoms_, sub_box_, nlist_.list_cutoff(),
                           partition_);
    pair_->on_lists_rebuilt();
  } else {
    // Steady-state step: no migration, no list build, no env
    // re-pack — ghosts keep their identity and only their positions
    // travel, over the schedule recorded at the last rebuild.
    DPMD_REQUIRE(plan_.recorded && plan_.nlocal == atoms_.nlocal &&
                     plan_.nghost == atoms_.nghost,
                 "halo plan out of date (missed rebuild?)");
  }
  atoms_.zero_forces();
  {
    ScopedTimer timer(timers_, "halo");
    if (rebuild) {
      halo_.begin(dom_);
    } else {
      halo_.refresh_begin(
          {atoms_.x.data(), static_cast<std::size_t>(atoms_.nlocal)}, plan_);
    }
  }
  if (rebuild) {
    ScopedTimer timer(timers_, "neigh");
    nlist_.build_centers(atoms_, global_box_, partition_.interior,
                         /*reset=*/true);
  }
  md::ForceAccum accum;
  pair_->begin_step(atoms_, nlist_);
  JoinGuard join_guard{pair_.get()};
  {
    ScopedTimer timer(timers_, "pair");
    pair_->compute_partition(atoms_, nlist_, partition_.interior, accum,
                             /*async=*/cfg_.overlap);
  }
  {
    // The interior reads atoms_.x: join it before ghosts land there.
    ScopedTimer timer(timers_, "halo");
    if (rebuild) {
      const auto ghosts = halo_.finish();
      join_guard.join();
      adopt_ghosts(ghosts);
    } else {
      const auto& gx = halo_.refresh_finish();  // nghost positions
      join_guard.join();
      std::copy(gx.begin(), gx.end(), atoms_.x.begin() + atoms_.nlocal);
    }
  }
  if (rebuild) {
    ScopedTimer timer(timers_, "neigh");
    nlist_.build_centers(atoms_, global_box_, partition_.boundary,
                         /*reset=*/false);
  }
  {
    ScopedTimer timer(timers_, "pair");
    pair_->compute_partition(atoms_, nlist_, partition_.boundary, accum);
    const md::ForceResult res = pair_->end_step(atoms_, nlist_, accum);
    pe_ = res.pe;
    virial_ = res.virial;
  }
  {
    ScopedTimer timer(timers_, "force_return");
    return_ghost_forces();
  }
  if (rebuild) {
    // Cadence bookkeeping: this step's positions are the drift reference.
    x_at_build_.assign(atoms_.x.begin(), atoms_.x.begin() + atoms_.nlocal);
    steps_since_build_ = 0;
    ++rebuilds_;
  }
  forces_ready_ = true;
}

bool DomainEngine::drift_exceeds_skin() {
  double max2 = 0.0;
  for (int i = 0; i < atoms_.nlocal; ++i) {
    const Vec3 d = atoms_.x[static_cast<std::size_t>(i)] -
                   x_at_build_[static_cast<std::size_t>(i)];
    max2 = std::max(max2, d.norm2());
  }
  // Collective: every rank sees the global maximum, so the rebuild
  // decision (migration + exchange are synchronizing) is unanimous.
  const double limit = 0.5 * cfg_.skin;
  return rank_.allreduce_max(max2) > limit * limit;
}

void DomainEngine::step() {
  const auto save = [this](ckpt::Writer& w) { save_checkpoint(w); };
  // Collective health verdict on fresh forces: true = every rank tripped
  // and rewound together (md::Integrity), so the step is abandoned.
  const auto health_rewound = [&] {
    return integrity_.rewound_after_trip(
        atoms_, pe_, steps_done_,
        [this](ckpt::Reader& r) { restore_checkpoint(r); }, cfg_.dt_fs,
        *pair_);
  };
  if (!forces_ready_) {
    migrate();
    compute_forces(/*rebuild=*/true);
    if (health_rewound()) return;  // the rewound step re-runs on the next call
    // First healthy state: the rewind target until the cadence takes over.
    integrity_.ensure_snapshot(steps_done_, save);
  }

  const double dt = cfg_.dt_fs;
  for (int i = 0; i < atoms_.nlocal; ++i) {
    const double inv_m =
        md::kForceConv / masses_[static_cast<std::size_t>(
                             atoms_.type[static_cast<std::size_t>(i)])];
    atoms_.v[static_cast<std::size_t>(i)] +=
        atoms_.f[static_cast<std::size_t>(i)] * (0.5 * dt * inv_m);
    atoms_.x[static_cast<std::size_t>(i)] +=
        atoms_.v[static_cast<std::size_t>(i)] * dt;
  }

  // Rebuild cadence: the fixed-interval check and the plan validity are
  // deterministic and rank-synchronized; the drift check is collective.
  ++steps_since_build_;
  ++steps_since_balance_;
  bool rebuild = cfg_.rebuild_every <= 1 ||
                 steps_since_build_ >= cfg_.rebuild_every || !plan_.recorded;
  if (!rebuild && cfg_.rebuild_on_drift) rebuild = drift_exceeds_skin();
  if (rebuild) {
    // Boundary shift first (ISSUE 7), so the migration below hands atoms
    // over to the new geometry and the exchange records the halo plan on
    // it — the shift rides the normal rebuild path end to end.
    maybe_rebalance();
    migrate();
  }
  compute_forces(rebuild);

  // Health guard (ISSUE 6): scan before the forces enter the velocities.
  // On a trip the whole step is abandoned — no second kick, no counter
  // advance — and every rank rewinds to its snapshot of the same step.
  if (health_rewound()) return;

  for (int i = 0; i < atoms_.nlocal; ++i) {
    const double inv_m =
        md::kForceConv / masses_[static_cast<std::size_t>(
                             atoms_.type[static_cast<std::size_t>(i)])];
    atoms_.v[static_cast<std::size_t>(i)] +=
        atoms_.f[static_cast<std::size_t>(i)] * (0.5 * dt * inv_m);
  }
  ++steps_done_;
  integrity_.step_completed(steps_done_, save);
}

void DomainEngine::run(int nsteps) {
  // A health rewind rolls steps_done_ back, so count against the target
  // rather than the loop index — rewound steps re-run.
  const int target = steps_done_ + nsteps;
  while (steps_done_ < target) step();
}

namespace {
/// Leading tag word of a DomainEngine checkpoint section ("DOM1"), so a
/// file saved by md::Sim (or garbage) is rejected by kind, not mis-read.
constexpr std::uint32_t kDomainCkptTag = 0x444f4d31u;
}  // namespace

void DomainEngine::save_checkpoint(ckpt::Writer& w) const {
  w.scalar(kDomainCkptTag);
  w.scalar(rank_.rank());
  w.scalar(rank_.size());
  w.scalar(grid_.nx());
  w.scalar(grid_.ny());
  w.scalar(grid_.nz());
  w.scalar(global_box_.lo);
  w.scalar(global_box_.hi);
  w.scalar(cfg_.dt_fs);
  w.scalar(cfg_.skin);
  w.scalar(cfg_.rebuild_every);
  w.scalar(cfg_.rebalance_every);
  w.scalar(steps_since_balance_);
  w.scalar(rebalances_);
  // The decomposition planes ARE the balanced geometry: restoring them is
  // what lets a restart resume a non-uniform grid mid-balance.
  w.vec(planes_[0]);
  w.vec(planes_[1]);
  w.vec(planes_[2]);
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
  w.vec(x_at_build_);
}

void DomainEngine::restore_checkpoint(ckpt::Reader& r) {
  const auto ctx = [&](const char* msg) { return r.context() + ": " + msg; };
  DPMD_REQUIRE(r.scalar<std::uint32_t>() == kDomainCkptTag,
               ctx("not a DomainEngine checkpoint (engine kind mismatch)"));
  DPMD_REQUIRE(r.scalar<int>() == rank_.rank(),
               ctx("checkpoint belongs to a different rank"));
  DPMD_REQUIRE(r.scalar<int>() == rank_.size(),
               ctx("checkpoint was written by a different rank count"));
  DPMD_REQUIRE(r.scalar<int>() == grid_.nx() && r.scalar<int>() == grid_.ny() &&
                   r.scalar<int>() == grid_.nz(),
               ctx("checkpoint was written on a different rank grid"));
  const Vec3 lo = r.scalar<Vec3>();
  const Vec3 hi = r.scalar<Vec3>();
  DPMD_REQUIRE(lo.x == global_box_.lo.x && lo.y == global_box_.lo.y &&
                   lo.z == global_box_.lo.z && hi.x == global_box_.hi.x &&
                   hi.y == global_box_.hi.y && hi.z == global_box_.hi.z,
               ctx("checkpoint global box differs from this engine's"));
  // dt is *restored* (the health guard may have backed it off before the
  // save); the cadence geometry must match the engine it restores into.
  cfg_.dt_fs = r.scalar<double>();
  DPMD_REQUIRE(r.scalar<double>() == cfg_.skin,
               ctx("checkpoint skin differs from this engine's"));
  DPMD_REQUIRE(r.scalar<int>() == cfg_.rebuild_every,
               ctx("checkpoint rebuild cadence differs from this engine's"));
  DPMD_REQUIRE(r.scalar<int>() == cfg_.rebalance_every,
               ctx("checkpoint rebalance cadence differs from this engine's"));
  steps_since_balance_ = r.scalar<int>();
  rebalances_ = r.scalar<int>();
  for (int d = 0; d < 3; ++d) {
    auto p = r.vec<double>();
    auto& cur = planes_[static_cast<std::size_t>(d)];
    DPMD_REQUIRE(p.size() == cur.size(),
                 ctx("checkpoint plane count does not match the rank grid"));
    DPMD_REQUIRE(std::is_sorted(p.begin(), p.end()),
                 ctx("checkpoint planes are not sorted"));
    // The end planes never move, so they must be bit-equal to the ones the
    // constructor derived from the (already validated) global box.
    DPMD_REQUIRE(p.front() == cur.front() && p.back() == cur.back(),
                 ctx("checkpoint plane endpoints differ from the global box"));
    cur = std::move(p);
  }
  set_sub_box_from_planes();
  // Re-arm the measurement window at the current timer total: the seconds
  // accumulated before the restore belong to the discarded trajectory.
  pair_mark_ = timers_.total("pair");
  steps_done_ = r.scalar<int>();
  steps_since_build_ = r.scalar<int>();
  rebuilds_ = r.scalar<int>();
  pe_ = r.scalar<double>();
  virial_ = r.scalar<double>();
  const auto x = r.vec<Vec3>();
  const auto v = r.vec<Vec3>();
  const auto type = r.vec<int>();
  const auto tag = r.vec<std::int64_t>();
  DPMD_REQUIRE(v.size() == x.size() && type.size() == x.size() &&
                   tag.size() == x.size(),
               ctx("checkpoint atom arrays disagree in length"));
  atoms_ = md::Atoms{};
  for (std::size_t i = 0; i < x.size(); ++i) {
    atoms_.add_local(x[i], v[i], type[i], tag[i]);
  }
  x_at_build_ = r.vec<Vec3>();
  // Everything derived (ghosts, lists, halo plan, force-return map) is
  // rebuilt by the forced migrate + full exchange of the next step; a
  // restart therefore resumes mid-cadence correctly — the rebuild just
  // happens one step early, which the cadence logic treats as normal.
  forces_ready_ = false;
  plan_.recorded = false;
  ghost_owner_.clear();
  tag_to_local_.clear();
}

std::string DomainEngine::rank_checkpoint_path(const std::string& base,
                                               int rank) {
  return base + ".rank" + std::to_string(rank);
}

void DomainEngine::save_checkpoint_file(const std::string& base) const {
  ckpt::Writer w;
  save_checkpoint(w);
  w.save_file(rank_checkpoint_path(base, rank_.rank()));
}

void DomainEngine::restore_checkpoint_file(const std::string& base) {
  auto r = ckpt::Reader::from_file(rank_checkpoint_path(base, rank_.rank()));
  restore_checkpoint(r);
  r.expect_end();
}

double DomainEngine::total_pe() { return rank_.allreduce_sum(pe_); }

double DomainEngine::total_kinetic() {
  return rank_.allreduce_sum(md::kinetic_energy(atoms_, masses_));
}

std::vector<DomainEngine::GlobalAtom> DomainEngine::gather_all() {
  std::vector<GlobalAtom> mine;
  mine.reserve(static_cast<std::size_t>(atoms_.nlocal));
  for (int i = 0; i < atoms_.nlocal; ++i) {
    mine.push_back({atoms_.tag[static_cast<std::size_t>(i)],
                    atoms_.x[static_cast<std::size_t>(i)],
                    atoms_.v[static_cast<std::size_t>(i)],
                    atoms_.f[static_cast<std::size_t>(i)]});
  }
  const auto all = rank_.allgatherv(mine);
  std::vector<GlobalAtom> out;
  for (const auto& part : all) {
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end(),
            [](const GlobalAtom& a, const GlobalAtom& b) {
              return a.tag < b.tag;
            });
  return out;
}

}  // namespace dpmd::comm
