#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "md/atoms.hpp"
#include "md/pair.hpp"
#include "util/checkpoint.hpp"
#include "util/incident.hpp"

namespace dpmd::md {

/// Numerical health guard knobs, shared by md::Sim and
/// comm::DomainEngine.  The per-step scan is cheap (one pass over the local
/// forces, folded next to the ghost-force reduction); the recovery ladder
/// on a trip is: rewind to the last in-memory snapshot and force a list
/// rebuild (retry 1 — clears transient faults), additionally back off the
/// timestep (retry 2+), additionally drop the pair style to its most
/// conservative numerics via Pair::degrade_to_conservative (retry 3+).
/// More than `max_retries` trips without a snapshot's worth of progress is
/// a clean diagnosable abort carrying the incident log.
struct HealthConfig {
  bool enabled = true;
  /// Any local |f| beyond this (or NaN/Inf) trips the guard, eV/A.  MD
  /// forces live in O(1..10) eV/A; 1e4 flags a blow-up long before the
  /// integrator turns it into overflow.
  double max_force = 1.0e4;
  /// |PE|/nlocal limit, eV/atom — the energy-blow-up tripwire.
  double max_pe_per_atom = 1.0e3;
  int max_retries = 3;
  double dt_backoff = 0.5;  ///< dt multiplier per escalated retry
  /// In-memory rewind snapshot cadence, steps (0 disables snapshots — a
  /// trip then aborts immediately).  The paper's 50-step list cadence is a
  /// natural default: one snapshot per rebuild window.
  int snapshot_every = 50;
};

/// The trajectory-integrity layer both engines share: the in-memory rewind
/// snapshot and its cadence, the per-step health verdict, the retry and
/// escalation ladder, the abort and the incident log.  Engines pass their
/// checkpoint save/restore per call (a stored callback would dangle once
/// the engine is moved), a location for the abort message, and how the
/// local verdict becomes the one every rank acts on.
class Integrity {
 public:
  using SaveFn = std::function<void(ckpt::Writer&)>;
  using RestoreFn = std::function<void(ckpt::Reader&)>;
  /// Local verdict -> collective verdict.  Empty = local (one process);
  /// DomainEngine passes an allreduce_max so one rank's NaN rewinds every
  /// rank and the ladder stays in lockstep.
  using VerdictFn = std::function<bool(bool)>;

  /// `where` follows "numerical health trip" in the abort message.
  Integrity(HealthConfig cfg, std::string where, VerdictFn verdict = {})
      : cfg_(cfg), where_(std::move(where)), verdict_(std::move(verdict)) {}

  /// First rewind target: snapshots if the guard is on and none exists.
  void ensure_snapshot(int step, const SaveFn& save);
  /// Snapshot cadence: call after every completed step.
  void step_completed(int step, const SaveFn& save);

  /// Health verdict on fresh forces, before they enter the velocities.
  /// Returns false when healthy (or the guard is off).  On a trip it runs
  /// the ladder — restore the snapshot through `restore`, then multiply
  /// `dt_fs` (the restored value) by dt_backoff from retry 2 and ask `pair`
  /// for conservative numerics from retry 3 — and returns true: the caller
  /// abandons the step, which re-runs from the snapshot.  Throws
  /// dpmd::Error carrying the incident log when there is no snapshot or
  /// the retry budget is spent without forward progress.
  bool rewound_after_trip(const Atoms& atoms, double pe, int step,
                          const RestoreFn& restore, double& dt_fs, Pair& pair);

  const IncidentLog& incidents() const { return incidents_; }

 private:
  void take_snapshot(int step, const SaveFn& save);

  HealthConfig cfg_;
  std::string where_;
  VerdictFn verdict_;
  /// Framed checkpoint bytes of the last healthy cadence point; the retry
  /// budget counts trips since it was taken (i.e. without forward progress).
  std::vector<std::byte> snapshot_;
  int snapshot_step_ = -1;
  int trips_since_progress_ = 0;
  IncidentLog incidents_;
};

}  // namespace dpmd::md
