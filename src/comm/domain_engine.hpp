#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "comm/halo.hpp"
#include "md/atoms.hpp"
#include "md/box.hpp"
#include "md/integrity.hpp"
#include "md/neighbor.hpp"
#include "md/pair.hpp"
#include "md/partition.hpp"
#include "md/thermo.hpp"
#include "simmpi/simmpi.hpp"
#include "util/checkpoint.hpp"
#include "util/timer.hpp"

namespace dpmd::comm {

struct DomainConfig {
  double dt_fs = 1.0;

  /// Neighbor skin + rebuild cadence (ISSUE 4, the paper's steady-state
  /// amortization: lists rebuilt every ~50 steps with a 2 A skin).  On a
  /// *rebuild* step the engine migrates atoms, runs the full three-stage
  /// exchange (recording the halo plan), rebuilds lists and re-classifies
  /// the interior/boundary split; on the steps in between it skips all of
  /// that and replays the recorded plan as a position-only ghost refresh.
  /// skin = 0 with rebuild_every = 1 (the defaults) reproduce the
  /// rebuild-every-step engine exactly.  The ghost band (and the
  /// decomposition constraint 2*(rcut+skin) <= slack) widens by the skin.
  ///
  /// A negative skin (canonically -1) selects auto: the engine picks the
  /// largest admissible skin under the decomposition slack rule, capped at
  /// the paper's 2 A production skin, and the ranks agree on it
  /// collectively at setup — the distributed steady state out of the box.
  /// Read the resolved value back via DomainEngine::config().
  double skin = 0.0;
  int rebuild_every = 1;
  /// Also rebuild when any atom drifted more than skin/2 since the last
  /// build (collective decision — every rank rebuilds together).  Keeps a
  /// long cadence correct for fast atoms; no-op when rebuild_every <= 1.
  bool rebuild_on_drift = true;

  /// Every step runs one staged schedule: post the halo sends,
  /// evaluate the interior partition (stencil entirely inside the sub-box
  /// shrunk by the list cutoff), finish the exchange, evaluate the boundary
  /// partition, return ghost forces.  `overlap` is the interior
  /// evaluation's async flag: on, it runs on the pair's thread-pool workers
  /// while this thread drives the remaining exchange rounds — the §III-C
  /// overlap that hides ghost communication behind Deep Potential block
  /// evaluation; off, this thread evaluates it between posting the sends
  /// and finishing the exchange (the A/B baseline of the overlap bench
  /// rung).
  bool overlap = true;

  /// Numerical health guard + rewind recovery (ISSUE 6).  The trip verdict
  /// is collective (allreduce over the per-rank scans), so every rank
  /// rewinds to its snapshot of the same step together.
  md::HealthConfig health;

  /// Workload-aware dynamic load balancing (ISSUE 7, paper §III-C /
  /// Fig. 10): every `rebalance_every` steps the engine allgathers each
  /// rank's measured pair-phase seconds since the last balance and, on the
  /// next *rebuild* step, shifts the decomposition planes toward equal
  /// cost (lb::Rebalancer) before the migration runs — so the boundary
  /// shift rides the normal rebuild path: migration hands the atoms over,
  /// the full exchange re-records the halo plan on the new geometry, and
  /// cadence/overlap/checkpointing never see anything but a rebuild.
  /// 0 = off: the grid stays uniform and the engine is bit-identical to
  /// the pre-rebalance one.  Requires every initial sub-box to be at
  /// least 2*(rcut+skin) wide on split dimensions (the planner's
  /// min-width guard; also what keeps the halo at one layer per
  /// dimension on any balanced geometry).
  int rebalance_every = 0;
  /// Fraction of the ideal (equal-cost) plane move applied per balance
  /// event; see lb::RebalanceConfig::damping.  0 freezes the grid.
  double rebalance_damping = 0.5;
};

/// Distributed MD engine: the LAMMPS-style main loop running on a simmpi
/// rank grid with real message passing — spatial decomposition, atom
/// migration, 3-stage ghost exchange, Newton-on reverse force return, and
/// velocity-Verlet integration.  Validated atom-for-atom against the
/// single-process md::Sim (tests/test_integration.cpp); this is the
/// functional ground truth behind the communication plans.
class DomainEngine {
 public:
  DomainEngine(simmpi::Rank& rank, const simmpi::CartGrid& grid,
               const md::Box& global_box, std::vector<double> masses,
               std::shared_ptr<md::Pair> pair, DomainConfig cfg);

  /// Takes ownership of the atoms that fall inside this rank's sub-box
  /// from the replicated global arrays (every rank receives the same
  /// arrays and keeps its share).
  void seed(const std::vector<Vec3>& x, const std::vector<Vec3>& v,
            const std::vector<int>& type);

  void step();
  void run(int nsteps);

  // Observers ---------------------------------------------------------
  const md::Box& sub_box() const { return sub_box_; }
  /// Effective configuration: cfg as passed, with a negative (auto) skin
  /// replaced by the collectively agreed admissible value.
  const DomainConfig& config() const { return cfg_; }
  const md::Atoms& atoms() const { return atoms_; }
  int steps_done() const { return steps_done_; }
  /// Full rebuilds (migrate + exchange + list build) performed, including
  /// the setup one; steps in between ran the position-only refresh.
  int rebuild_count() const { return rebuilds_; }
  /// Applied boundary shifts (rebalance events that actually moved a
  /// plane); 0 with rebalancing off or on a perfectly balanced system.
  int rebalance_count() const { return rebalances_; }
  /// Decomposition planes per dimension: planes()[d] has grid_n(d) + 1
  /// sorted entries; slab i of dimension d spans planes()[d][i] ..
  /// planes()[d][i+1].  Uniform until a rebalance event moves them.
  const std::array<std::vector<double>, 3>& planes() const { return planes_; }
  double local_pe() const { return pe_; }
  /// Interior/boundary split of the last rebuild step.
  const md::StagePartition& partition() const { return partition_; }
  /// Per-phase wall time on this rank: "halo" (exchange begin/finish +
  /// ghost adoption), "neigh", "pair", "force_return".  With overlap on,
  /// "halo" includes the time this thread waits in finish() while the
  /// workers evaluate the interior — the overlap window itself — so the
  /// honest exchange cost is the "halo" of an overlap-off run.
  TimerRegistry& timers() { return timers_; }

  /// Collectives over the whole domain.
  double total_pe();
  double total_kinetic();

  /// Gathers (tag, position, velocity, force) of every atom in the domain
  /// on all ranks — the validation hook.  Positions are NOT wrapped into
  /// the global box between rebuilds (wrapping happens at migration);
  /// compare via Box::minimum_image.
  struct GlobalAtom {
    std::int64_t tag;
    Vec3 x;
    Vec3 v;
    Vec3 f;
  };
  std::vector<GlobalAtom> gather_all();

  // Checkpoint/restart (ISSUE 6) ---------------------------------------
  /// Serializes this rank's full dynamic state (counters, locals,
  /// cadence bookkeeping) into `w`.  Restore rebuilds the locals and
  /// forces a migrate + full exchange on the next step, so a restart
  /// resumes mid-cadence correctly on any rank count that matches the
  /// checkpoint's grid.
  void save_checkpoint(ckpt::Writer& w) const;
  void restore_checkpoint(ckpt::Reader& r);
  /// Per-rank checkpoint file: base path + ".rank<r>".
  static std::string rank_checkpoint_path(const std::string& base, int rank);
  void save_checkpoint_file(const std::string& base) const;
  void restore_checkpoint_file(const std::string& base);

  /// Recovery events on this rank (health trips, rewinds, escalations).
  const IncidentLog& incidents() const { return integrity_.incidents(); }

 private:
  /// Recomputes sub_box_ from planes_ and this rank's grid coordinates.
  void set_sub_box_from_planes();
  /// Slab index of coordinate x along dimension d (plane binary search,
  /// clamped to the grid) — the same comparisons Box::contains uses, so
  /// migration ownership and sub-box membership can never disagree.
  int slab_of(int d, double x) const;
  /// Rebalance window expiry check + the collective boundary shift
  /// (allgather pair-phase seconds, plan, move planes).  Called at the top
  /// of every rebuild step; a no-op unless cfg_.rebalance_every has
  /// elapsed since the last balance.
  void maybe_rebalance();
  void migrate();
  /// Snapshot the locals into dom_ (the halo wire format).
  void fill_local_domain();
  /// Append exchanged ghosts to the atom arrays (+ owner bookkeeping).
  void adopt_ghosts(const std::vector<HaloAtom>& ghosts);
  /// The step's force evaluation, one schedule for both step kinds: a
  /// rebuild step runs the full exchange (recording the halo plan) and
  /// builds the lists and partition around it; a refresh step replays the
  /// recorded plan as a position-only ghost update against the persistent
  /// lists, partition and env.
  void compute_forces(bool rebuild);
  /// Collective skin/2 drift check (identical verdict on every rank).
  bool drift_exceeds_skin();
  void return_ghost_forces();

  simmpi::Rank& rank_;
  const simmpi::CartGrid& grid_;
  md::Box global_box_;
  /// Decomposition planes per dimension (size grid_n(d) + 1, end planes
  /// pinned to the global box).  Uniform at construction; rebalance
  /// events move the interior planes.  sub_box_ is always derived from
  /// these, and migration owner lookup searches them — one source of
  /// truth for the (possibly non-uniform) geometry.
  std::array<std::vector<double>, 3> planes_;
  md::Box sub_box_;
  std::vector<double> masses_;
  std::shared_ptr<md::Pair> pair_;
  DomainConfig cfg_;

  md::Atoms atoms_;
  md::NeighborList nlist_;
  HaloExchange halo_;
  LocalDomain dom_;  ///< persists across begin/finish of the exchange
  HaloPlan plan_;    ///< halo schedule recorded at the last rebuild
  md::StagePartition partition_;
  /// Owner rank of each ghost (parallel to the ghost section of atoms_).
  std::vector<int> ghost_owner_;
  /// Neighbor rank ids this rank exchanges with (symmetric set).
  std::vector<int> exchange_peers_;
  /// tag -> local index, rebuilt after every migration (force return).
  std::unordered_map<std::int64_t, int> tag_to_local_;
  /// Local positions at the last list build (drift check).
  std::vector<Vec3> x_at_build_;

  double pe_ = 0.0;
  double virial_ = 0.0;
  int steps_done_ = 0;
  int steps_since_build_ = 0;
  int rebuilds_ = 0;
  // Rebalance bookkeeping (ISSUE 7): steps since the last balance event
  // advances in lockstep on every rank (so the expiry decision is
  // collective without a message), and pair_mark_ is the "pair" timer
  // total at the last event — the measurement window is the delta.
  int steps_since_balance_ = 0;
  int rebalances_ = 0;
  double pair_mark_ = 0.0;
  bool forces_ready_ = false;
  TimerRegistry timers_;
  /// Health guard + rewind snapshots, verdict allreduced over the ranks.
  md::Integrity integrity_;
};

}  // namespace dpmd::comm
