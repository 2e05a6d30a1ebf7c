#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "md/atoms.hpp"
#include "md/box.hpp"
#include "md/integrity.hpp"
#include "md/neighbor.hpp"
#include "md/pair.hpp"
#include "md/partition.hpp"
#include "md/thermo.hpp"
#include "md/thermostat.hpp"
#include "util/checkpoint.hpp"
#include "util/timer.hpp"

namespace dpmd::md {

struct SimConfig {
  double dt_fs = 1.0;
  /// Neighbor skin; paper: 2 A.  Negative (canonically -1) = auto: the
  /// largest skin the periodic cell admits (2*(rcut+skin) <= shortest box
  /// length, the single-process analogue of the decomposition slack rule),
  /// capped at 2 A.  Read the resolved value back via Sim::config().
  double skin = 2.0;
  int rebuild_every = 50;     ///< paper: lists rebuilt every 50 steps
  bool rebuild_on_drift = true;  ///< also rebuild when drift > skin/2

  /// Numerical health guard + rewind recovery (ISSUE 6).
  HealthConfig health;
};

/// Single-process MD engine (the LAMMPS analogue, DESIGN.md S1).
///
/// Ghost atoms are periodic images of locals within cutoff + skin of the
/// box faces; their positions are refreshed from the parents every step
/// (the "forward communication" of a distributed run) and their forces are
/// folded back into the parents after the pair computation (the "reverse
/// communication", Newton's third law on).  The distributed version of the
/// same loop lives in src/comm (DomainEngine) and is validated against this
/// engine.
class Sim {
 public:
  Sim(Box box, Atoms atoms, std::vector<double> masses,
      std::shared_ptr<Pair> pair, SimConfig cfg = SimConfig());

  void set_thermostat(std::unique_ptr<Thermostat> t) { thermostat_ = std::move(t); }

  /// Builds ghosts, neighbor list and initial forces.  Called lazily by
  /// step()/run() if needed.
  void setup();

  void step();
  using Callback = std::function<void(int step, const Sim&)>;
  void run(int nsteps, int callback_every = 0, const Callback& cb = nullptr);

  // Observers -------------------------------------------------------------
  const Atoms& atoms() const { return atoms_; }
  Atoms& atoms() { return atoms_; }
  /// Effective configuration (a negative auto skin arrives resolved).
  const SimConfig& config() const { return cfg_; }
  const Box& box() const { return box_; }
  const std::vector<double>& masses() const { return masses_; }
  const NeighborList& nlist() const { return nlist_; }
  /// Interior/boundary split of the last list build: compute_forces runs
  /// the interior partition before the ghost refresh and the boundary
  /// partition after it (the staged order DomainEngine overlaps).
  const StagePartition& partition() const { return partition_; }
  Pair& pair() { return *pair_; }
  int steps_done() const { return steps_done_; }
  int rebuild_count() const { return rebuilds_; }
  double pe() const { return pe_; }
  double virial() const { return virial_; }
  ThermoState thermo() const;
  TimerRegistry& timers() { return timers_; }

  /// Force refresh after external position edits (tests).
  void invalidate() { needs_setup_ = true; }

  /// Cooperative cancellation (ISSUE 10): the token is checked at the top
  /// of every step() and forwarded to the pair style, so a pending stop
  /// lands between MD steps or between DP block sweeps — whichever comes
  /// first — as an rt::StopError thrown out of step()/run().  A stopped
  /// engine may be mid-evaluation and must not be reused for physics; the
  /// serving layer discards the whole Sim.
  void set_stop_token(rt::StopToken token) {
    stop_ = std::move(token);
    pair_->set_stop_token(stop_);
  }

  // Checkpoint/restart (ISSUE 6) ------------------------------------------
  /// Serializes the full dynamic state — positions, velocities, images,
  /// integration counters, thermostat accumulators and RNG stream — so a
  /// restored Sim resumes bit-exactly (state-wise; forces are recomputed
  /// through the forced rebuild of the next step, which also makes a
  /// mid-cadence restart correct: the rebuild just lands one step early).
  void save_checkpoint(ckpt::Writer& w) const;
  void restore_checkpoint(ckpt::Reader& r);
  void save_checkpoint_file(const std::string& path) const;
  void restore_checkpoint_file(const std::string& path);

  /// Recovery events (health trips, rewinds, escalations) on this engine.
  const IncidentLog& incidents() const { return integrity_.incidents(); }

 private:
  void build_ghosts();
  void refresh_ghost_positions();
  void fold_ghost_forces();
  void rebuild_lists();
  /// `ghosts_stale` = ghost positions still need the per-step refresh (any
  /// non-rebuild step).  Staged order (same contract as
  /// comm::DomainEngine): the interior partition runs against possibly
  /// stale ghost positions — which it never reads — then the ghost refresh
  /// (the engine's "forward comm"), then the boundary partition and any
  /// deferred monolithic styles.
  void compute_forces(bool ghosts_stale);
  bool drift_exceeds_skin() const;

  Box box_;
  Atoms atoms_;
  std::vector<double> masses_;
  std::shared_ptr<Pair> pair_;
  SimConfig cfg_;
  NeighborList nlist_;
  std::unique_ptr<Thermostat> thermostat_;

  std::vector<Vec3> x_at_build_;
  StagePartition partition_;  ///< interior/boundary split at the last build
  double pe_ = 0.0;
  double virial_ = 0.0;
  int steps_done_ = 0;
  int steps_since_build_ = 0;
  int rebuilds_ = 0;
  bool needs_setup_ = true;
  TimerRegistry timers_;
  rt::StopToken stop_;  ///< checked per step; default never stops
  Integrity integrity_;  ///< health guard + rewind snapshots
};

}  // namespace dpmd::md
